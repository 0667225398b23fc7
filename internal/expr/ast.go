// Package expr implements the scalar expression engine shared by the parser,
// optimizers, rewriter and executor: an AST with SQL rendering, evaluation
// against rows, constant folding, conjunct algebra, and single-column range
// analysis (satisfiability and implication) which powers horizontal-partition
// pruning and the query-trading rewrite rules.
package expr

import (
	"fmt"
	"slices"
	"strings"

	"qtrade/internal/value"
)

// Expr is a scalar expression tree node. It is immutable: no node is written
// after it is built, so any tree may be shared — by queries, rewrites, plans,
// offers and the goroutines that read them — and nothing copies one to
// protect itself. A rewrite builds new nodes only where it changes something
// (Transform, Substitute); TestNodesAreNeverWritten holds the rule.
type Expr interface {
	fmt.Stringer
	node()
}

// Column references a column, optionally qualified by a table or alias name.
// Index is the position in the input row; it is -1 except on the copy Bind
// returns.
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
		return QuoteName(c.Table) + "." + QuoteName(c.Name)
	}
	return QuoteName(c.Name)
}

// Keywords are the words SQL text reserves, in upper case. The parser reads
// none of them as a bare name, so the printer quotes a name that spells one.
var Keywords = map[string]bool{
	"SELECT": true, "DISTINCT": true, "FROM": true, "WHERE": true, "GROUP": true,
	"BY": true, "HAVING": true, "ORDER": true, "LIMIT": true, "UNION": true,
	"ALL": true, "AS": true, "AND": true, "OR": true, "NOT": true, "IN": true,
	"BETWEEN": true, "IS": true, "NULL": true, "JOIN": true, "INNER": true,
	"ON": true, "TRUE": true, "FALSE": true, "ASC": true, "DESC": true,
}

// QuoteName prints a table, alias or column name so the parser reads it back
// as itself: bare when it is [A-Za-z_][A-Za-z0-9_]* and no keyword in any
// case, double-quoted otherwise.
func QuoteName(name string) string {
	if bareName(name) {
		return name
	}
	return `"` + name + `"`
}

func bareName(name string) bool {
	if name == "" || '0' <= name[0] && name[0] <= '9' {
		return false
	}
	var upper [8]byte // the longest keyword is DISTINCT or BETWEEN
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z':
			c -= 'a' - 'A'
		case 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '_':
		default:
			return false
		}
		if i < len(upper) {
			upper[i] = c
		}
	}
	return len(name) > len(upper) || !Keywords[string(upper[:len(name)])]
}

// String prints the literal as SQL that reads back as the same kind: a float
// with no fraction keeps one (2.0, not 2), or a seller reading the text would
// do integer arithmetic with it. Displayed values (value.String) are left as
// they are.
func (l *Lit) String() string {
	s := l.V.String()
	if l.V.K == value.Float && !strings.ContainsAny(s, ".eIN") { // N, I: NaN, ±Inf
		s += ".0"
	}
	return s
}

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
// fn receives a node whose children have already been transformed. It is
// copy-on-write: a node none of whose operands changed is handed to fn as it
// is, so an fn that returns its input everywhere gets e itself back, and a
// rewrite of one leaf shares every subtree it did not touch.
func Transform(e Expr, fn func(Expr) Expr) Expr {
	switch t := e.(type) {
	case nil:
		return nil
	case *Binary:
		if l, r := Transform(t.L, fn), Transform(t.R, fn); l != t.L || r != t.R {
			e = &Binary{Op: t.Op, L: l, R: r}
		}
	case *Unary:
		if x := Transform(t.X, fn); x != t.X {
			e = &Unary{Op: t.Op, X: x}
		}
	case *In:
		x, list, copied := Transform(t.X, fn), t.List, false
		for i, item := range t.List {
			if n := Transform(item, fn); n != item {
				if !copied {
					list, copied = slices.Clone(t.List), true
				}
				list[i] = n
			}
		}
		if x != t.X || copied {
			e = &In{X: x, List: list, Not: t.Not}
		}
	case *Between:
		if x, lo, hi := Transform(t.X, fn), Transform(t.Lo, fn), Transform(t.Hi, fn); x != t.X || lo != t.Lo || hi != t.Hi {
			e = &Between{X: x, Lo: lo, Hi: hi, Not: t.Not}
		}
	case *IsNull:
		if x := Transform(t.X, fn); x != t.X {
			e = &IsNull{X: x, Not: t.Not}
		}
	case *Agg:
		if arg := Transform(t.Arg, fn); arg != t.Arg {
			e = &Agg{Fn: t.Fn, Arg: arg, Star: t.Star, Distinct: t.Distinct}
		}
	}
	return fn(e)
}

// Step is what a substitution does at one node of an expression tree.
type Step uint8

const (
	// Descend keeps the node and substitutes inside its operands; a leaf is
	// kept as it is.
	Descend Step = iota
	// Replace puts the expression the function returned in the node's place,
	// as it is; nothing under the node is visited.
	Replace
	// Refuse abandons the whole substitution.
	Refuse
)

// Substitute rewrites e top-down into a new tree, the one way an expression is
// mapped onto another namespace (the outputs of an aggregation, the columns of
// a materialized view): fn sees each node before its operands and replaces
// it, descends into it, or refuses the rewrite, and then Substitute reports
// false. e itself is never written.
func Substitute(e Expr, fn func(Expr) (Expr, Step)) (Expr, bool) {
	if e == nil {
		return nil, true
	}
	switch r, step := fn(e); step {
	case Replace:
		return r, true
	case Refuse:
		return nil, false
	}
	sub := func(x Expr, ok *bool) Expr {
		if !*ok {
			return nil
		}
		out, good := Substitute(x, fn)
		*ok = good
		return out
	}
	ok := true
	var out Expr
	switch t := e.(type) {
	case *Binary:
		out = &Binary{Op: t.Op, L: sub(t.L, &ok), R: sub(t.R, &ok)}
	case *Unary:
		out = &Unary{Op: t.Op, X: sub(t.X, &ok)}
	case *In:
		x, list := sub(t.X, &ok), make([]Expr, len(t.List))
		for i, item := range t.List {
			list[i] = sub(item, &ok)
		}
		out = &In{X: x, List: list, Not: t.Not}
	case *Between:
		out = &Between{X: sub(t.X, &ok), Lo: sub(t.Lo, &ok), Hi: sub(t.Hi, &ok), Not: t.Not}
	case *IsNull:
		out = &IsNull{X: sub(t.X, &ok), Not: t.Not}
	case *Agg:
		out = &Agg{Fn: t.Fn, Arg: sub(t.Arg, &ok), Star: t.Star, Distinct: t.Distinct}
	default:
		out = e
	}
	return out, ok
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

// Conjuncts flattens nested ANDs into a list, left to right. A nil
// expression yields nil.
func Conjuncts(e Expr) []Expr {
	return appendConjuncts(nil, e)
}

func appendConjuncts(dst []Expr, e Expr) []Expr {
	if e == nil {
		return dst
	}
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		return appendConjuncts(appendConjuncts(dst, b.L), b.R)
	}
	return append(dst, e)
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

// Qualify returns e with its bare columns qualified by binding: a partition
// predicate, stored over unqualified column names, restated for one FROM
// entry of a query.
func Qualify(e Expr, binding string) Expr {
	return QualifyBy(e, func(string) string { return binding })
}

// QualifyBy returns e with each bare column qualified by owner(name); a column
// whose owner is "" stays bare.
func QualifyBy(e Expr, owner func(name string) string) Expr {
	return Transform(e, func(n Expr) Expr {
		if c, ok := n.(*Column); ok && c.Table == "" {
			if b := owner(c.Name); b != "" {
				return &Column{Table: b, Name: c.Name, Index: -1}
			}
		}
		return n
	})
}

// Unqualify returns e with every column a bare name, so it can be
// combined with partition predicates and evaluated against single-table
// schemas and statistics.
func Unqualify(e Expr) Expr {
	return Transform(e, func(n Expr) Expr {
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
