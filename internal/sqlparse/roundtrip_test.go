package sqlparse

import (
	"math/rand"
	"testing"

	"qtrade/internal/expr"
	"qtrade/internal/value"
)

// randomExprAST builds a random expression tree directly from AST nodes,
// independent of the parser's own grammar, to cross-check the printer and
// parser against each other (print → parse → print must be a fixed point).
func randomExprAST(r *rand.Rand, depth int) expr.Expr {
	if depth <= 0 || r.Intn(4) == 0 {
		switch r.Intn(4) {
		case 0:
			return expr.NewColumn("t", []string{"a", "b", "c"}[r.Intn(3)])
		case 1:
			return expr.NewColumn("", "bare")
		case 2:
			return expr.NewLit(value.NewInt(int64(r.Intn(100) - 50)))
		default:
			return expr.NewLit(value.NewStr([]string{"x", "it's", ""}[r.Intn(3)]))
		}
	}
	switch r.Intn(8) {
	case 0:
		ops := []string{"=", "<>", "<", "<=", ">", ">="}
		return &expr.Binary{Op: ops[r.Intn(len(ops))], L: randomExprAST(r, depth-1), R: randomExprAST(r, depth-1)}
	case 1:
		return &expr.Binary{Op: "AND", L: randomExprAST(r, depth-1), R: randomExprAST(r, depth-1)}
	case 2:
		return &expr.Binary{Op: "OR", L: randomExprAST(r, depth-1), R: randomExprAST(r, depth-1)}
	case 3:
		ops := []string{"+", "-", "*", "/", "%"}
		return &expr.Binary{Op: ops[r.Intn(len(ops))], L: randomExprAST(r, depth-1), R: randomExprAST(r, depth-1)}
	case 4:
		return &expr.Unary{Op: "NOT", X: randomExprAST(r, depth-1)}
	case 5:
		n := 1 + r.Intn(3)
		list := make([]expr.Expr, n)
		for i := range list {
			list[i] = expr.NewLit(value.NewInt(int64(i)))
		}
		return &expr.In{X: randomExprAST(r, depth-1), List: list, Not: r.Intn(2) == 0}
	case 6:
		return &expr.Between{
			X:   randomExprAST(r, depth-1),
			Lo:  expr.NewLit(value.NewInt(int64(r.Intn(10)))),
			Hi:  expr.NewLit(value.NewInt(int64(10 + r.Intn(10)))),
			Not: r.Intn(2) == 0,
		}
	default:
		return &expr.IsNull{X: randomExprAST(r, depth-1), Not: r.Intn(2) == 0}
	}
}

// Property: for random ASTs, String() is parseable and parsing is a fixed
// point of printing.
func TestQuickExprPrintParseFixedPoint(t *testing.T) {
	r := rand.New(rand.NewSource(2026))
	for i := 0; i < 1000; i++ {
		e := randomExprAST(r, 4)
		printed := e.String()
		parsed, err := ParseExpr(printed)
		if err != nil {
			t.Fatalf("printer emitted unparseable text %q (from %#v): %v", printed, e, err)
		}
		if parsed.String() != printed {
			t.Fatalf("not a fixed point:\n  ast:      %q\n  reparsed: %q", printed, parsed.String())
		}
	}
}

// Property: precedence is preserved — evaluating the original AST and the
// reparsed AST on random rows gives identical results.
func TestQuickExprReparseSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	schema := []expr.ColumnID{{Table: "t", Name: "a"}, {Table: "t", Name: "b"}, {Table: "t", Name: "c"}, {Name: "bare"}}
	for i := 0; i < 500; i++ {
		e := randomExprAST(r, 3)
		reparsed, err := ParseExpr(e.String())
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 5; j++ {
			row := value.Row{
				value.NewInt(int64(r.Intn(20) - 10)),
				value.NewInt(int64(r.Intn(20))),
				value.NewStr([]string{"x", "y"}[r.Intn(2)]),
				value.NewInt(int64(r.Intn(5))),
			}
			e1, err := expr.Bind(e, schema)
			if err != nil {
				t.Fatal(err)
			}
			e2, err := expr.Bind(reparsed, schema)
			if err != nil {
				t.Fatal(err)
			}
			v1, err1 := expr.Eval(e1, row)
			v2, err2 := expr.Eval(e2, row)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("eval error mismatch for %q: %v vs %v", e, err1, err2)
			}
			if err1 == nil && !value.Identical(v1, v2) && !(v1.IsNull() && v2.IsNull()) {
				t.Fatalf("semantics changed by reparse of %q: %v vs %v (row %v)", e, v1, v2, row)
			}
		}
	}
}
