package expr

import (
	"fmt"
	"strings"

	"qtrade/internal/value"
)

// ColumnID identifies one output column of an operator or table for binding:
// the (table-or-alias, column) pair exposed to expressions.
type ColumnID struct {
	Table string
	Name  string
}

// Key returns the canonical lower-case identity of the column id.
func (c ColumnID) Key() string {
	return strings.ToLower(c.Table) + "." + strings.ToLower(c.Name)
}

// Bind returns e with every column reference resolved against schema: a
// copy whose columns carry their row position in Column.Index, sharing every
// subtree without a column. Unqualified names match any table; ambiguous
// unqualified names are an error. e itself is not written.
func Bind(e Expr, schema []ColumnID) (Expr, error) {
	var err error
	out := Transform(e, func(n Expr) Expr {
		c, ok := n.(*Column)
		if !ok || err != nil {
			return n
		}
		idx, rerr := resolve(c, schema)
		if rerr != nil {
			err = rerr
			return n
		}
		return &Column{Table: c.Table, Name: c.Name, Index: idx}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// resolve finds c's position in schema, the one rule Bind and Compile share.
func resolve(c *Column, schema []ColumnID) (int, error) {
	if idx := Index(c, schema); idx >= 0 {
		return idx, nil
	}
	for _, s := range schema {
		if strings.EqualFold(c.Name, s.Name) && c.Table == "" {
			return -1, fmt.Errorf("expr: ambiguous column %q", c.Name)
		}
	}
	return -1, fmt.Errorf("expr: unknown column %s", c)
}

// Index returns the position Compile reads c at in schema, or -1 when c does
// not resolve there: no column of schema is c, or c is unqualified and two
// are. It builds no error, so a caller may ask it of schemas that lack c.
func Index(c *Column, schema []ColumnID) int {
	idx := -1
	for i, s := range schema {
		if !strings.EqualFold(c.Name, s.Name) {
			continue
		}
		if c.Table != "" {
			if strings.EqualFold(c.Table, s.Table) {
				return i
			}
			continue
		}
		if idx >= 0 {
			return -1
		}
		idx = i
	}
	return idx
}

// MustBind is Bind that panics on failure; for tests and static plans.
func MustBind(e Expr, schema []ColumnID) Expr {
	out, err := Bind(e, schema)
	if err != nil {
		panic(err)
	}
	return out
}

// Eval evaluates a bound expression against a row by walking its tree. It is
// the reference Compile's programs are held to, and what Simplify folds
// constants with; the executor runs compiled programs. Aggregate nodes cannot
// be evaluated here (the executor's aggregation operator handles them) and
// return an error.
func Eval(e Expr, row value.Row) (value.Value, error) {
	switch t := e.(type) {
	case *Lit:
		return t.V, nil
	case *Column:
		if t.Index < 0 || t.Index >= len(row) {
			return value.Value{}, unbound(t, t.Index, row)
		}
		return row[t.Index], nil
	case *Binary:
		return evalBinary(t, row)
	case *Unary:
		x, err := Eval(t.X, row)
		if err != nil {
			return value.Value{}, err
		}
		switch t.Op {
		case "NOT":
			if x.IsNull() {
				return value.NewNull(), nil
			}
			return value.NewBool(!x.Truth()), nil
		case "-":
			return value.Neg(x)
		}
		return value.Value{}, unknownOp("unary", t.Op)
	case *In:
		return evalIn(t, row)
	case *Between:
		x, err := Eval(t.X, row)
		if err != nil {
			return value.Value{}, err
		}
		lo, err := Eval(t.Lo, row)
		if err != nil {
			return value.Value{}, err
		}
		hi, err := Eval(t.Hi, row)
		if err != nil {
			return value.Value{}, err
		}
		c1, ok1 := value.Compare(x, lo)
		c2, ok2 := value.Compare(x, hi)
		if !ok1 || !ok2 {
			return value.NewNull(), nil
		}
		res := c1 >= 0 && c2 <= 0
		if t.Not {
			res = !res
		}
		return value.NewBool(res), nil
	case *IsNull:
		x, err := Eval(t.X, row)
		if err != nil {
			return value.Value{}, err
		}
		res := x.IsNull()
		if t.Not {
			res = !res
		}
		return value.NewBool(res), nil
	case *Agg:
		return value.Value{}, aggOutside(t)
	}
	return value.Value{}, cannotEval(e)
}

// The errors both evaluators report, worded once.

func unbound(c *Column, idx int, row value.Row) error {
	return fmt.Errorf("expr: unbound column %s (index %d, row width %d)", c, idx, len(row))
}

func unknownOp(kind, op string) error { return fmt.Errorf("expr: unknown %s op %q", kind, op) }

func aggOutside(a *Agg) error {
	return fmt.Errorf("expr: aggregate %s evaluated outside aggregation operator", a.Fn)
}

func cannotEval(e Expr) error { return fmt.Errorf("expr: cannot evaluate %T", e) }

func evalBinary(b *Binary, row value.Row) (value.Value, error) {
	switch b.Op {
	case "AND":
		l, err := Eval(b.L, row)
		if err != nil {
			return value.Value{}, err
		}
		if !l.IsNull() && !l.Truth() {
			return value.NewBool(false), nil
		}
		r, err := Eval(b.R, row)
		if err != nil {
			return value.Value{}, err
		}
		if !r.IsNull() && !r.Truth() {
			return value.NewBool(false), nil
		}
		if l.IsNull() || r.IsNull() {
			return value.NewNull(), nil
		}
		return value.NewBool(true), nil
	case "OR":
		l, err := Eval(b.L, row)
		if err != nil {
			return value.Value{}, err
		}
		if !l.IsNull() && l.Truth() {
			return value.NewBool(true), nil
		}
		r, err := Eval(b.R, row)
		if err != nil {
			return value.Value{}, err
		}
		if !r.IsNull() && r.Truth() {
			return value.NewBool(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return value.NewNull(), nil
		}
		return value.NewBool(false), nil
	}
	l, err := Eval(b.L, row)
	if err != nil {
		return value.Value{}, err
	}
	r, err := Eval(b.R, row)
	if err != nil {
		return value.Value{}, err
	}
	switch b.Op {
	case "+", "-", "*", "/", "%":
		return value.Arith(b.Op, l, r)
	case "=", "<>", "<", "<=", ">", ">=":
		c, ok := value.Compare(l, r)
		if !ok {
			return value.NewNull(), nil
		}
		var res bool
		switch b.Op {
		case "=":
			res = c == 0
		case "<>":
			res = c != 0
		case "<":
			res = c < 0
		case "<=":
			res = c <= 0
		case ">":
			res = c > 0
		case ">=":
			res = c >= 0
		}
		return value.NewBool(res), nil
	}
	return value.Value{}, unknownOp("binary", b.Op)
}

func evalIn(t *In, row value.Row) (value.Value, error) {
	x, err := Eval(t.X, row)
	if err != nil {
		return value.Value{}, err
	}
	if x.IsNull() {
		return value.NewNull(), nil
	}
	sawNull := false
	for _, item := range t.List {
		v, err := Eval(item, row)
		if err != nil {
			return value.Value{}, err
		}
		if v.IsNull() {
			sawNull = true
			continue
		}
		if value.Equal(x, v) {
			return value.NewBool(!t.Not), nil
		}
	}
	if sawNull {
		return value.NewNull(), nil
	}
	return value.NewBool(t.Not), nil
}

// EvalBool evaluates a predicate, mapping NULL to false (WHERE semantics).
func EvalBool(e Expr, row value.Row) (bool, error) {
	if e == nil {
		return true, nil
	}
	v, err := Eval(e, row)
	if err != nil {
		return false, err
	}
	return v.Truth(), nil
}
