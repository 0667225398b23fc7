package expr

import "qtrade/internal/value"

// Program is an expression compiled once against a row schema, for the
// executor to evaluate row after row without walking the tree: columns are
// resolved to row positions and operators to codes, a bare column is an
// index pick, a column compared with a literal is one step (an integer
// against an integer compares the two int64s directly), an IN list of
// literals is a slice of values, and a chain of ANDs or ORs is one loop over
// its operands. Over any row it returns what Eval returns for the bound tree —
// the same value, the same error, in the same order — and every operator
// calls the value helper Eval calls. A Program is never written after
// Compile, so one may serve many goroutines.
type Program struct {
	bare *Column // the expression when it is a bare column, read at col
	col  int
	// Otherwise one of the two is set: the root computes a value, or a truth
	// (a comparison or a logical operator, which builds no value).
	eval evalFn
	test testFn
}

type (
	evalFn func(value.Row) (value.Value, error)
	testFn func(value.Row) (truth, error)
)

// truth is a value read by SQL's three-valued logic: NULL is unknown, any
// other value is its Truth.
type truth uint8

const (
	tFalse truth = iota
	tTrue
	tNull
)

func truthOf(v value.Value) truth {
	switch {
	case v.IsNull():
		return tNull
	case v.Truth():
		return tTrue
	}
	return tFalse
}

func truthBool(b bool) truth {
	if b {
		return tTrue
	}
	return tFalse
}

// value is the truth as Eval returns it: a BOOLEAN, or NULL.
func (t truth) value() value.Value {
	if t == tNull {
		return value.NewNull()
	}
	return value.NewBool(t == tTrue)
}

// Compile resolves e's columns against schema by Bind's rules, failing with
// the error Bind would report, and builds e's program. e is neither copied
// nor written, so a plan's expressions stay shared read-only. A nil e
// compiles to a nil program, which holds on every row.
func Compile(e Expr, schema []ColumnID) (*Program, error) {
	if e == nil {
		return nil, nil
	}
	c := compiler{schema: schema}
	if col, ok := e.(*Column); ok {
		idx, ok := c.resolve(col)
		if !ok {
			return nil, c.err
		}
		return &Program{bare: col, col: idx}, nil
	}
	s := c.step(e)
	if c.err != nil {
		return nil, c.err
	}
	return &Program{eval: s.eval, test: s.test}, nil
}

// Eval evaluates the program over row.
func (p *Program) Eval(row value.Row) (value.Value, error) {
	switch {
	case p.bare != nil:
		if p.col >= len(row) {
			return value.Value{}, unbound(p.bare, p.col, row)
		}
		return row[p.col], nil
	case p.eval != nil:
		return p.eval(row)
	}
	t, err := p.test(row)
	if err != nil {
		return value.Value{}, err
	}
	return t.value(), nil
}

// Column returns the row position the program reads when its expression is
// a bare column, so a caller may read that value in place.
func (p *Program) Column() (int, bool) {
	if p.bare == nil {
		return 0, false
	}
	return p.col, true
}

// Holds evaluates the program as a WHERE clause, where NULL is false; a nil
// program holds on every row.
func (p *Program) Holds(row value.Row) (bool, error) {
	switch {
	case p == nil:
		return true, nil
	case p.test != nil:
		t, err := p.test(row)
		return err == nil && t == tTrue, err
	}
	v, err := p.Eval(row)
	return err == nil && v.Truth(), err
}

// compiler builds the steps of one program. A column that does not resolve
// records the first such error in Bind's visiting order — parents before
// children, operands left to right — and compiles to a step never run.
type compiler struct {
	schema []ColumnID
	err    error
}

// step is one compiled node. It computes either a value or a truth, never
// both; a parent that wants the other form wraps it (asValue, asTruth).
type step struct {
	eval evalFn
	test testFn
}

func (s step) asValue() evalFn {
	if s.eval != nil {
		return s.eval
	}
	test := s.test
	return func(row value.Row) (value.Value, error) {
		t, err := test(row)
		if err != nil {
			return value.Value{}, err
		}
		return t.value(), nil
	}
}

func (s step) asTruth() testFn {
	if s.test != nil {
		return s.test
	}
	eval := s.eval
	return func(row value.Row) (truth, error) {
		v, err := eval(row)
		if err != nil {
			return tFalse, err
		}
		return truthOf(v), nil
	}
}

// failStep evaluates its operands in order and then fails with err, as Eval
// does for an operator it does not know.
func failStep(err error, operands ...evalFn) step {
	return step{eval: func(row value.Row) (value.Value, error) {
		for _, o := range operands {
			if _, oerr := o(row); oerr != nil {
				return value.Value{}, oerr
			}
		}
		return value.Value{}, err
	}}
}

func (c *compiler) step(e Expr) step {
	switch t := e.(type) {
	case *Lit:
		v := t.V
		return step{eval: func(value.Row) (value.Value, error) { return v, nil }}
	case *Column:
		idx, ok := c.resolve(t)
		if !ok {
			return step{}
		}
		return step{eval: func(row value.Row) (value.Value, error) {
			if idx >= len(row) {
				return value.Value{}, unbound(t, idx, row)
			}
			return row[idx], nil
		}}
	case *Binary:
		switch t.Op {
		case "AND", "OR":
			return c.logic(t)
		case "=", "<>", "<", "<=", ">", ">=":
			return c.compare(t)
		}
		l, r := c.step(t.L).asValue(), c.step(t.R).asValue()
		switch t.Op {
		case "+", "-", "*", "/", "%":
			op := t.Op
			return step{eval: func(row value.Row) (value.Value, error) {
				a, err := l(row)
				if err != nil {
					return value.Value{}, err
				}
				b, err := r(row)
				if err != nil {
					return value.Value{}, err
				}
				return value.Arith(op, a, b)
			}}
		}
		return failStep(unknownOp("binary", t.Op), l, r)
	case *Unary:
		x := c.step(t.X)
		switch t.Op {
		case "NOT":
			xt := x.asTruth()
			not := [...]truth{tFalse: tTrue, tTrue: tFalse, tNull: tNull}
			return step{test: func(row value.Row) (truth, error) {
				v, err := xt(row)
				if err != nil {
					return tFalse, err
				}
				return not[v], nil
			}}
		case "-":
			xv := x.asValue()
			return step{eval: func(row value.Row) (value.Value, error) {
				v, err := xv(row)
				if err != nil {
					return value.Value{}, err
				}
				return value.Neg(v)
			}}
		}
		return failStep(unknownOp("unary", t.Op), x.asValue())
	case *In:
		return c.in(t)
	case *Between:
		x, lo, hi := c.step(t.X).asValue(), c.step(t.Lo).asValue(), c.step(t.Hi).asValue()
		not := t.Not
		return step{test: func(row value.Row) (truth, error) {
			v, err := x(row)
			if err != nil {
				return tFalse, err
			}
			a, err := lo(row)
			if err != nil {
				return tFalse, err
			}
			b, err := hi(row)
			if err != nil {
				return tFalse, err
			}
			c1, ok1 := value.Compare(v, a)
			c2, ok2 := value.Compare(v, b)
			if !ok1 || !ok2 {
				return tNull, nil
			}
			return truthBool((c1 >= 0 && c2 <= 0) != not), nil
		}}
	case *IsNull:
		x := c.step(t.X).asValue()
		not := t.Not
		return step{test: func(row value.Row) (truth, error) {
			v, err := x(row)
			if err != nil {
				return tFalse, err
			}
			return truthBool(v.IsNull() != not), nil
		}}
	case *Agg:
		if t.Arg != nil {
			c.step(t.Arg) // Bind resolves the argument's columns too
		}
		return failStep(aggOutside(t))
	}
	return failStep(cannotEval(e))
}

// resolve finds a column's row position, recording the first failure.
func (c *compiler) resolve(col *Column) (int, bool) {
	idx, err := resolve(col, c.schema)
	if err != nil && c.err == nil {
		c.err = err
	}
	return idx, err == nil
}

// logic compiles a chain of one logical operator as one loop over its
// operands, left to right: an AND stops at the first FALSE, an OR at the
// first TRUE, and a NULL on the way makes the answer NULL otherwise — Eval's
// short circuit, so an operand after the deciding one is never evaluated and
// its error never surfaces.
func (c *compiler) logic(b *Binary) step {
	var parts []testFn
	var flatten func(e Expr)
	flatten = func(e Expr) {
		if x, ok := e.(*Binary); ok && x.Op == b.Op {
			flatten(x.L)
			flatten(x.R)
			return
		}
		parts = append(parts, c.step(e).asTruth())
	}
	flatten(b)
	stop, rest := tFalse, tTrue
	if b.Op == "OR" {
		stop, rest = tTrue, tFalse
	}
	return step{test: func(row value.Row) (truth, error) {
		res := rest
		for _, p := range parts {
			t, err := p(row)
			if err != nil {
				return tFalse, err
			}
			if t == stop {
				return stop, nil
			}
			if t == tNull {
				res = tNull
			}
		}
		return res, nil
	}}
}

// outcomes gives, for each comparison operator, its truth when
// value.Compare returns -1, 0 and +1.
var outcomes = map[string][3]truth{
	"=":  {tFalse, tTrue, tFalse},
	"<>": {tTrue, tFalse, tTrue},
	"<":  {tTrue, tFalse, tFalse},
	"<=": {tTrue, tTrue, tFalse},
	">":  {tFalse, tFalse, tTrue},
	">=": {tFalse, tTrue, tTrue},
}

func (c *compiler) compare(b *Binary) step {
	if col, lit, op, ok := splitColLit(b); ok {
		return c.columnVsLiteral(col, lit, outcomes[op])
	}
	res := outcomes[b.Op]
	l, r := c.step(b.L).asValue(), c.step(b.R).asValue()
	return step{test: func(row value.Row) (truth, error) {
		x, err := l(row)
		if err != nil {
			return tFalse, err
		}
		y, err := r(row)
		if err != nil {
			return tFalse, err
		}
		k, ok := value.Compare(x, y)
		if !ok {
			return tNull, nil
		}
		return res[k+1], nil
	}}
}

// columnVsLiteral is a column compared with a non-NULL literal, one step.
func (c *compiler) columnVsLiteral(col *Column, lit value.Value, res [3]truth) step {
	idx, ok := c.resolve(col)
	if !ok {
		return step{}
	}
	isInt, k := lit.K == value.Int, lit.I
	return step{test: func(row value.Row) (truth, error) {
		if idx >= len(row) {
			return tFalse, unbound(col, idx, row)
		}
		v := &row[idx]
		if isInt && v.K == value.Int {
			switch {
			case v.I < k:
				return res[0], nil
			case v.I > k:
				return res[2], nil
			}
			return res[1], nil
		}
		cmp, ok := value.Compare(*v, lit)
		if !ok {
			return tNull, nil
		}
		return res[cmp+1], nil
	}}
}

// in compiles IN as Eval reads it: NULL for a NULL subject without looking at
// the list, else TRUE (FALSE under NOT) at the first item equal to it, else
// NULL when an item was NULL, else FALSE (TRUE under NOT).
func (c *compiler) in(t *In) step {
	x := c.step(t.X).asValue()
	not := t.Not
	if vals, sawNull, ok := literals(t.List); ok {
		return step{test: func(row value.Row) (truth, error) {
			v, err := x(row)
			if err != nil || v.IsNull() {
				return tNull, err
			}
			for _, l := range vals {
				if value.Equal(v, l) {
					return truthBool(!not), nil
				}
			}
			if sawNull {
				return tNull, nil
			}
			return truthBool(not), nil
		}}
	}
	items := make([]evalFn, len(t.List))
	for i, e := range t.List {
		items[i] = c.step(e).asValue()
	}
	return step{test: func(row value.Row) (truth, error) {
		v, err := x(row)
		if err != nil || v.IsNull() {
			return tNull, err
		}
		sawNull := false
		for _, item := range items {
			l, err := item(row)
			if err != nil {
				return tFalse, err
			}
			if l.IsNull() {
				sawNull = true
				continue
			}
			if value.Equal(v, l) {
				return truthBool(!not), nil
			}
		}
		if sawNull {
			return tNull, nil
		}
		return truthBool(not), nil
	}}
}

// literals returns the non-NULL values of a list made only of literals, and
// whether a NULL was among them: a NULL item never matches, and its only
// effect is that a list with no match answers NULL.
func literals(list []Expr) (vals []value.Value, sawNull, ok bool) {
	for _, e := range list {
		l, isLit := e.(*Lit)
		if !isLit {
			return nil, false, false
		}
		if l.V.IsNull() {
			sawNull = true
			continue
		}
		vals = append(vals, l.V)
	}
	return vals, sawNull, true
}
