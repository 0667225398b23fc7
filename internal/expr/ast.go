// Package expr implements the scalar expression engine shared by the parser,
// optimizers, rewriter and executor: an AST with SQL rendering, evaluation
// against rows, constant folding, conjunct algebra, and single-column range
// analysis (satisfiability and implication) which powers horizontal-partition
// pruning and the query-trading rewrite rules.
package expr

import (
	"fmt"
	"strings"

	"qtrade/internal/value"
)

// Expr is a scalar expression tree node. Implementations are immutable once
// built except for Column index resolution performed by Bind.
type Expr interface {
	fmt.Stringer
	node()
}

// Column references a column, optionally qualified by a table or alias name.
// Index is the position in the input row; it is -1 until resolved by Bind.
type Column struct {
	Table string
	Name  string
	Index int
}

// Lit is a literal value.
type Lit struct {
	V value.Value
}

// Binary applies a binary operator. Comparison ops: = <> < <= > >=;
// logical: AND OR; arithmetic: + - * / %.
type Binary struct {
	Op string
	L  Expr
	R  Expr
}

// Unary applies NOT or unary minus.
type Unary struct {
	Op string // "NOT" or "-"
	X  Expr
}

// In tests membership in a literal list.
type In struct {
	X    Expr
	List []Expr
	Not  bool
}

// Between tests Lo <= X <= Hi.
type Between struct {
	X, Lo, Hi Expr
	Not       bool
}

// IsNull tests X IS [NOT] NULL.
type IsNull struct {
	X   Expr
	Not bool
}

// Agg is an aggregate call: SUM, COUNT, AVG, MIN, MAX. Star marks COUNT(*).
type Agg struct {
	Fn       string
	Arg      Expr
	Star     bool
	Distinct bool
}

func (*Column) node()  {}
func (*Lit) node()     {}
func (*Binary) node()  {}
func (*Unary) node()   {}
func (*In) node()      {}
func (*Between) node() {}
func (*IsNull) node()  {}
func (*Agg) node()     {}

// NewColumn returns an unresolved column reference.
func NewColumn(table, name string) *Column {
	return &Column{Table: table, Name: name, Index: -1}
}

// NewLit wraps a value as a literal expression.
func NewLit(v value.Value) *Lit { return &Lit{V: v} }

// Int returns an integer literal.
func Int(i int64) *Lit { return NewLit(value.NewInt(i)) }

// Str returns a string literal.
func Str(s string) *Lit { return NewLit(value.NewStr(s)) }

// TrueExpr and FalseExpr are the boolean literal singletons (by value, not
// pointer identity).
func TrueExpr() *Lit  { return NewLit(value.NewBool(true)) }
func FalseExpr() *Lit { return NewLit(value.NewBool(false)) }

// Eq builds L = R.
func Eq(l, r Expr) *Binary { return &Binary{Op: "=", L: l, R: r} }

// Cmp builds an arbitrary binary node.
func Cmp(op string, l, r Expr) *Binary { return &Binary{Op: op, L: l, R: r} }

func (c *Column) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

func (l *Lit) String() string { return l.V.String() }

// precedence for parenthesization when printing.
func precedence(op string) int {
	switch op {
	case "OR":
		return 1
	case "AND":
		return 2
	case "=", "<>", "<", "<=", ">", ">=":
		return 3
	case "+", "-":
		return 4
	case "*", "/", "%":
		return 5
	}
	return 6
}

// nodePrec is the binding strength of a whole node when it appears as an
// operand, mirroring the parser grammar (postfix IN/BETWEEN/IS sit at
// comparison level; NOT binds between AND and comparisons).
func nodePrec(e Expr) int {
	switch t := e.(type) {
	case *Binary:
		return precedence(t.Op)
	case *In, *Between, *IsNull:
		return 3
	case *Unary:
		if t.Op == "NOT" {
			return 2
		}
		return 6 // unary minus always prints parenthesized
	}
	return 6 // columns, literals, aggregates
}

// associative reports whether chaining the operator left or right reads the
// same (so equal-precedence right operands need no parentheses).
func associative(op string) bool {
	switch op {
	case "AND", "OR", "+", "*":
		return true
	}
	return false
}

// childStr prints an operand of op, parenthesizing when the operand binds
// more loosely than the operator — and, for the right operand of
// non-associative operators, when it binds equally (a - (b - c)).
func childStr(parent string, child Expr, rightSide bool) string {
	p := nodePrec(child)
	pp := precedence(parent)
	if p < pp || (p == pp && rightSide && !associative(parent)) {
		return "(" + child.String() + ")"
	}
	return child.String()
}

// postfixOperand prints the subject of a postfix IN/BETWEEN/IS NULL, which
// the grammar requires to be at least additive unless the subject is itself
// a left-assoc comparison chain; anything at comparison level or below is
// parenthesized for an unambiguous round trip.
func postfixOperand(e Expr) string {
	if nodePrec(e) <= 3 {
		return "(" + e.String() + ")"
	}
	return e.String()
}

func (b *Binary) String() string {
	return childStr(b.Op, b.L, false) + " " + b.Op + " " + childStr(b.Op, b.R, true)
}

func (u *Unary) String() string {
	if u.Op == "NOT" {
		return "NOT (" + u.X.String() + ")"
	}
	return "-(" + u.X.String() + ")"
}

func (i *In) String() string {
	parts := make([]string, len(i.List))
	for k, e := range i.List {
		parts[k] = e.String()
	}
	not := ""
	if i.Not {
		not = " NOT"
	}
	return postfixOperand(i.X) + not + " IN (" + strings.Join(parts, ", ") + ")"
}

func (b *Between) String() string {
	not := ""
	if b.Not {
		not = " NOT"
	}
	// BETWEEN bounds are additive expressions in the grammar; an AND inside
	// an unparenthesized bound would be eaten by BETWEEN's own AND.
	lo, hi := b.Lo.String(), b.Hi.String()
	if nodePrec(b.Lo) <= 3 {
		lo = "(" + lo + ")"
	}
	if nodePrec(b.Hi) <= 3 {
		hi = "(" + hi + ")"
	}
	return postfixOperand(b.X) + not + " BETWEEN " + lo + " AND " + hi
}

func (n *IsNull) String() string {
	if n.Not {
		return postfixOperand(n.X) + " IS NOT NULL"
	}
	return postfixOperand(n.X) + " IS NULL"
}

func (a *Agg) String() string {
	if a.Star {
		return a.Fn + "(*)"
	}
	d := ""
	if a.Distinct {
		d = "DISTINCT "
	}
	return a.Fn + "(" + d + a.Arg.String() + ")"
}

// CloneAll deep-copies every expression of a list.
func CloneAll(es []Expr) []Expr {
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = Clone(e)
	}
	return out
}

// Clone deep-copies an expression tree.
func Clone(e Expr) Expr {
	switch t := e.(type) {
	case nil:
		return nil
	case *Column:
		c := *t
		return &c
	case *Lit:
		l := *t
		return &l
	case *Binary:
		return &Binary{Op: t.Op, L: Clone(t.L), R: Clone(t.R)}
	case *Unary:
		return &Unary{Op: t.Op, X: Clone(t.X)}
	case *In:
		list := make([]Expr, len(t.List))
		for i, x := range t.List {
			list[i] = Clone(x)
		}
		return &In{X: Clone(t.X), List: list, Not: t.Not}
	case *Between:
		return &Between{X: Clone(t.X), Lo: Clone(t.Lo), Hi: Clone(t.Hi), Not: t.Not}
	case *IsNull:
		return &IsNull{X: Clone(t.X), Not: t.Not}
	case *Agg:
		var arg Expr
		if t.Arg != nil {
			arg = Clone(t.Arg)
		}
		return &Agg{Fn: t.Fn, Arg: arg, Star: t.Star, Distinct: t.Distinct}
	}
	panic(fmt.Sprintf("expr: unknown node %T", e))
}

// Walk calls fn for every node in the tree, parents before children. If fn
// returns false the node's children are skipped.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch t := e.(type) {
	case *Binary:
		Walk(t.L, fn)
		Walk(t.R, fn)
	case *Unary:
		Walk(t.X, fn)
	case *In:
		Walk(t.X, fn)
		for _, x := range t.List {
			Walk(x, fn)
		}
	case *Between:
		Walk(t.X, fn)
		Walk(t.Lo, fn)
		Walk(t.Hi, fn)
	case *IsNull:
		Walk(t.X, fn)
	case *Agg:
		if t.Arg != nil {
			Walk(t.Arg, fn)
		}
	}
}

// Transform rebuilds the tree bottom-up, replacing each node with fn(node).
// fn receives a node whose children have already been transformed.
func Transform(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch t := e.(type) {
	case *Binary:
		e = &Binary{Op: t.Op, L: Transform(t.L, fn), R: Transform(t.R, fn)}
	case *Unary:
		e = &Unary{Op: t.Op, X: Transform(t.X, fn)}
	case *In:
		list := make([]Expr, len(t.List))
		for i, x := range t.List {
			list[i] = Transform(x, fn)
		}
		e = &In{X: Transform(t.X, fn), List: list, Not: t.Not}
	case *Between:
		e = &Between{X: Transform(t.X, fn), Lo: Transform(t.Lo, fn), Hi: Transform(t.Hi, fn), Not: t.Not}
	case *IsNull:
		e = &IsNull{X: Transform(t.X, fn), Not: t.Not}
	case *Agg:
		var arg Expr
		if t.Arg != nil {
			arg = Transform(t.Arg, fn)
		}
		e = &Agg{Fn: t.Fn, Arg: arg, Star: t.Star, Distinct: t.Distinct}
	}
	return fn(e)
}

// Columns returns every column reference in the tree, in visit order.
func Columns(e Expr) []*Column {
	var out []*Column
	Walk(e, func(n Expr) bool {
		if c, ok := n.(*Column); ok {
			out = append(out, c)
		}
		return true
	})
	return out
}

// HasAgg reports whether the tree contains an aggregate call.
func HasAgg(e Expr) bool {
	found := false
	Walk(e, func(n Expr) bool {
		if _, ok := n.(*Agg); ok {
			found = true
			return false
		}
		return true
	})
	return found
}

// Tables returns the set of table qualifiers referenced by the expression.
// Unqualified columns contribute "".
func Tables(e Expr) map[string]bool {
	out := map[string]bool{}
	for _, c := range Columns(e) {
		out[strings.ToLower(c.Table)] = true
	}
	return out
}

// Conjuncts flattens nested ANDs into a list. A nil expression yields nil.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}

// And rebuilds a conjunction from a list; nil for an empty list.
func And(list []Expr) Expr {
	var out Expr
	for _, e := range list {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = &Binary{Op: "AND", L: out, R: e}
		}
	}
	return out
}

// Or builds a disjunction from a list; nil for an empty list.
func Or(list []Expr) Expr {
	var out Expr
	for _, e := range list {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = &Binary{Op: "OR", L: out, R: e}
		}
	}
	return out
}

// Qualify returns a copy of e whose bare columns carry the binding
// qualifier: a partition predicate, stored over unqualified column names,
// restated for one FROM entry of a query.
func Qualify(e Expr, binding string) Expr {
	return Transform(Clone(e), func(n Expr) Expr {
		if c, ok := n.(*Column); ok && c.Table == "" {
			return &Column{Table: binding, Name: c.Name, Index: -1}
		}
		return n
	})
}

// Unqualify returns a copy of e whose columns are bare names, so it can be
// combined with partition predicates and evaluated against single-table
// schemas and statistics.
func Unqualify(e Expr) Expr {
	return Transform(Clone(e), func(n Expr) Expr {
		if c, ok := n.(*Column); ok && c.Table != "" {
			return &Column{Name: c.Name, Index: -1}
		}
		return n
	})
}

// Equal reports structural equality via canonical rendering. It is
// conservative: semantically equal but syntactically different expressions
// may compare unequal.
func Equal(a, b Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.String() == b.String()
}

// ColKey returns the canonical lower-cased identity of a column used by range
// analysis maps.
func ColKey(c *Column) string {
	return strings.ToLower(c.Table) + "." + strings.ToLower(c.Name)
}
