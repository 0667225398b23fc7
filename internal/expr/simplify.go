package expr

import (
	"sort"

	"qtrade/internal/value"
)

// Simplify rewrites an expression into a cheaper equivalent: constant
// folding, boolean identity elimination, double-negation removal, duplicate
// conjunct elimination, and contradiction detection via range analysis.
// A nil input stays nil. Simplify never changes WHERE-clause semantics
// (NULL-as-false), which the property tests assert.
func Simplify(e Expr) Expr {
	if e == nil {
		return nil
	}
	out := Transform(e, simplifyNode)
	out = dedupAnd(out)
	if Unsatisfiable(out) {
		return FalseExpr()
	}
	return out
}

// SimplifyPredicate is Simplify for WHERE clauses: a predicate that folds to
// TRUE becomes nil (no filter).
func SimplifyPredicate(e Expr) Expr {
	s := Simplify(e)
	if l, ok := s.(*Lit); ok && l.V.K == value.Bool && l.V.B {
		return nil
	}
	return s
}

// IsFalse reports whether the expression is the literal FALSE.
func IsFalse(e Expr) bool {
	l, ok := e.(*Lit)
	return ok && l.V.K == value.Bool && !l.V.B
}

// IsTrue reports whether the expression is the literal TRUE (or nil).
func IsTrue(e Expr) bool {
	if e == nil {
		return true
	}
	l, ok := e.(*Lit)
	return ok && l.V.K == value.Bool && l.V.B
}

func isNullLit(e Expr) bool {
	l, ok := e.(*Lit)
	return ok && l.V.IsNull()
}

func isConst(e Expr) bool {
	_, ok := e.(*Lit)
	return ok
}

func litBool(e Expr) (b bool, isBool bool) {
	l, ok := e.(*Lit)
	if !ok || l.V.K != value.Bool {
		return false, false
	}
	return l.V.B, true
}

var negated = map[string]string{
	"=": "<>", "<>": "=", "<": ">=", ">=": "<", ">": "<=", "<=": ">",
}

func simplifyNode(e Expr) Expr {
	switch t := e.(type) {
	case *Binary:
		switch t.Op {
		case "AND":
			if lb, ok := litBool(t.L); ok {
				if !lb {
					return FalseExpr()
				}
				return t.R
			}
			if rb, ok := litBool(t.R); ok {
				if !rb {
					return FalseExpr()
				}
				return t.L
			}
			return t
		case "OR":
			if lb, ok := litBool(t.L); ok {
				if lb {
					return TrueExpr()
				}
				return t.R
			}
			if rb, ok := litBool(t.R); ok {
				if rb {
					return TrueExpr()
				}
				return t.L
			}
			return t
		}
		if isConst(t.L) && isConst(t.R) {
			v, err := Eval(t, nil)
			if err == nil && !v.IsNull() {
				return NewLit(v)
			}
		}
		return t
	case *Unary:
		if t.Op == "NOT" {
			if b, ok := litBool(t.X); ok {
				return NewLit(value.NewBool(!b))
			}
			if inner, ok := t.X.(*Unary); ok && inner.Op == "NOT" {
				return inner.X
			}
			if cmp, ok := t.X.(*Binary); ok {
				if neg, has := negated[cmp.Op]; has {
					return &Binary{Op: neg, L: cmp.L, R: cmp.R}
				}
			}
			if in, ok := t.X.(*In); ok {
				return &In{X: in.X, List: in.List, Not: !in.Not}
			}
			if bw, ok := t.X.(*Between); ok {
				return &Between{X: bw.X, Lo: bw.Lo, Hi: bw.Hi, Not: !bw.Not}
			}
			if n, ok := t.X.(*IsNull); ok {
				return &IsNull{X: n.X, Not: !n.Not}
			}
		}
		if t.Op == "-" && isConst(t.X) {
			v, err := Eval(t, nil)
			if err == nil {
				return NewLit(v)
			}
		}
		return t
	case *In:
		// Single-element IN collapses to a comparison — but not IN (NULL),
		// which the range analysis reads as admitting nothing, as it reads
		// no comparison with NULL.
		if len(t.List) == 1 && !isNullLit(t.List[0]) {
			op := "="
			if t.Not {
				op = "<>"
			}
			return &Binary{Op: op, L: t.X, R: t.List[0]}
		}
		if isConst(t.X) && allConst(t.List) {
			v, err := Eval(t, nil)
			if err == nil && !v.IsNull() {
				return NewLit(v)
			}
		}
		return t
	case *Between:
		if isConst(t.X) && isConst(t.Lo) && isConst(t.Hi) {
			v, err := Eval(t, nil)
			if err == nil && !v.IsNull() {
				return NewLit(v)
			}
		}
		return t
	case *IsNull:
		if l, ok := t.X.(*Lit); ok {
			res := l.V.IsNull()
			if t.Not {
				res = !res
			}
			return NewLit(value.NewBool(res))
		}
		return t
	}
	return e
}

func allConst(list []Expr) bool {
	for _, e := range list {
		if !isConst(e) {
			return false
		}
	}
	return true
}

// dedupAnd removes duplicate and subsumed conjuncts from a top-level AND
// chain, keeping a deterministic order.
func dedupAnd(e Expr) Expr {
	conj := Conjuncts(e)
	if len(conj) <= 1 {
		return e
	}
	// Each conjunct is printed once: its text is the duplicate key and the
	// sort key.
	seen := map[string]bool{}
	var kept []Expr
	var text []string
	for _, c := range conj {
		if b, ok := litBool(c); ok {
			if !b {
				return FalseExpr()
			}
			continue
		}
		s := c.String()
		if !seen[s] {
			seen[s] = true
			kept = append(kept, c)
			text = append(text, s)
		}
	}
	if len(kept) == 0 {
		return TrueExpr()
	}
	sort.Stable(byText{kept, text})
	return And(kept)
}

// byText orders expressions by their printed text, carried alongside.
type byText struct {
	es   []Expr
	text []string
}

func (b byText) Len() int           { return len(b.es) }
func (b byText) Less(i, j int) bool { return b.text[i] < b.text[j] }
func (b byText) Swap(i, j int) {
	b.es[i], b.es[j] = b.es[j], b.es[i]
	b.text[i], b.text[j] = b.text[j], b.text[i]
}

// RenameTables rewrites every column qualifier through the mapping (old
// lower-cased name -> new name). Unmapped qualifiers are untouched. Used when
// rewriting queries between alias namespaces during trading.
func RenameTables(e Expr, mapping map[string]string) Expr {
	return Transform(e, func(n Expr) Expr {
		if c, ok := n.(*Column); ok {
			if nn, has := mapping[lower(c.Table)]; has {
				return &Column{Table: nn, Name: c.Name, Index: c.Index}
			}
		}
		return n
	})
}

func lower(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}
