package expr

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"testing"

	"qtrade/internal/modsrc"
)

// An expression is an immutable value: no node is written after it is built,
// which is what lets queries, rewrites, plans, offers, price-cache entries and
// pricing goroutines share one tree without copying it. In every non-test
// file of the module, bench/ included, nothing outside a composite literal
// assigns to, increments or takes the address of a field of a node, writes an
// element of an In's list, or overwrites a whole node through a pointer. A
// rewrite builds new nodes instead (Transform, Substitute, QualifyBy, Bind).
func TestNodesAreNeverWritten(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := modsrc.Load(root)
	if err != nil {
		t.Fatal(err)
	}
	self, fset := mod.Pkgs["qtrade/internal/expr"], mod.Fset
	nodes, fields := map[types.Object]bool{}, map[*types.Var]string{}
	for _, name := range []string{"Column", "Lit", "Binary", "Unary", "In", "Between", "IsNull", "Agg"} {
		node := self.Scope().Lookup(name)
		nodes[node] = true
		st := node.Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			fields[st.Field(i)] = name + "." + st.Field(i).Name()
		}
	}
	for _, p := range mod.Paths {
		info := mod.Info[p]
		// field names the node field x selects, "" when it selects none.
		field := func(x ast.Expr) string {
			if sel, ok := ast.Unparen(x).(*ast.SelectorExpr); ok {
				if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					return fields[s.Obj().(*types.Var)]
				}
			}
			return ""
		}
		// written reports how writing to x would write a node, "" if it would not.
		written := func(x ast.Expr) string {
			x = ast.Unparen(x)
			if f := field(x); f != "" {
				return f
			}
			if ix, ok := x.(*ast.IndexExpr); ok && field(ix.X) == "In.List" {
				return "an element of In.List"
			}
			if star, ok := x.(*ast.StarExpr); ok {
				if n, ok := info.TypeOf(star).(*types.Named); ok && nodes[n.Obj()] {
					return "a whole " + n.Obj().Name()
				}
			}
			return ""
		}
		for _, file := range mod.Files[p] {
			ast.Inspect(file, func(x ast.Node) bool {
				var targets []ast.Expr
				verb := "writes"
				switch x := x.(type) {
				case *ast.AssignStmt:
					if x.Tok != token.DEFINE {
						targets = x.Lhs
					}
				case *ast.IncDecStmt:
					targets = []ast.Expr{x.X}
				case *ast.RangeStmt:
					if x.Tok == token.ASSIGN {
						targets = []ast.Expr{x.Key, x.Value}
					}
				case *ast.UnaryExpr:
					if x.Op == token.AND {
						targets, verb = []ast.Expr{x.X}, "takes the address of"
					}
				}
				for _, target := range targets {
					if target == nil {
						continue
					}
					if what := written(target); what != "" {
						t.Errorf("%s: %s %s: an expression is never written after it is built; build a new node",
							fset.Position(target.Pos()), verb, what)
					}
				}
				return true
			})
		}
	}
}
