package exec

import (
	"fmt"

	"qtrade/internal/expr"
	"qtrade/internal/plan"
	"qtrade/internal/value"
)

// aggState accumulates one aggregate for one group.
type aggState struct {
	fn       string
	distinct bool
	star     bool

	count    int64 // values added (rows, for COUNT(*))
	sumInt   int64
	sumFloat float64
	sawFloat bool
	best     value.Value     // MIN's least or MAX's greatest value so far
	seen     map[string]bool // for DISTINCT
}

func newAggState(it plan.AggItem) aggState {
	s := aggState{fn: it.Agg.Fn, distinct: it.Agg.Distinct, star: it.Agg.Star}
	if s.distinct {
		s.seen = map[string]bool{}
	}
	return s
}

func (s *aggState) add(v value.Value) error {
	if s.star {
		s.count++
		return nil
	}
	if v.IsNull() {
		return nil // aggregates skip NULLs
	}
	if s.distinct {
		k := value.Key(value.Row{v}, []int{0})
		if s.seen[k] {
			return nil
		}
		s.seen[k] = true
	}
	s.count++
	switch s.fn {
	case "COUNT":
		return nil
	case "SUM", "AVG":
		switch v.K {
		case value.Int:
			// An integer sum that overflows carries on as a DOUBLE, by Arith's rule.
			sum, _ := value.Arith("+", value.NewInt(s.sumInt), v) // two integers: no error
			if sum.K == value.Int {
				s.sumInt = sum.I
			} else {
				s.sawFloat = true
				s.sumFloat += sum.F
				s.sumInt = 0
			}
		case value.Float:
			s.sawFloat = true
			s.sumFloat += v.F
		default:
			return fmt.Errorf("exec: %s over non-numeric value %s", s.fn, v)
		}
		return nil
	case "MIN", "MAX":
		if s.best.IsNull() {
			s.best = v
		} else if c, ok := value.Compare(v, s.best); ok && (s.fn == "MIN" && c < 0 || s.fn == "MAX" && c > 0) {
			s.best = v
		}
		return nil
	}
	return fmt.Errorf("exec: unknown aggregate %q", s.fn)
}

func (s *aggState) result() value.Value {
	switch s.fn {
	case "COUNT":
		return value.NewInt(s.count)
	case "SUM":
		if s.count == 0 {
			return value.NewNull()
		}
		if s.sawFloat {
			return value.NewFloat(s.sumFloat + float64(s.sumInt))
		}
		return value.NewInt(s.sumInt)
	case "AVG":
		if s.count == 0 {
			return value.NewNull()
		}
		return value.NewFloat((s.sumFloat + float64(s.sumInt)) / float64(s.count))
	case "MIN", "MAX":
		return s.best
	}
	return value.NewNull()
}

// keyIndex numbers the distinct keys it is shown in first-appearance order,
// finding a key by its value.HashRow and then field-wise value.SameKey — the
// grouping equivalence, with no key string built per row. Keys whose hashes
// collide chain through next.
type keyIndex struct {
	heads map[uint64]int32 // key hash -> 1 + newest key with that hash
	next  []int32          // key number -> 1 + the previous key with its hash, 0 at the end
	keys  []value.Row
}

// find returns the number of the key equal to key (whose hash is h), or -1.
func (x *keyIndex) find(h uint64, key value.Row) int {
	for e := x.heads[h]; e != 0; e = x.next[e-1] {
		if value.SameKey(x.keys[e-1], key) {
			return int(e - 1)
		}
	}
	return -1
}

// add numbers a key find did not know. The index keeps key, so it must not
// be a scratch row.
func (x *keyIndex) add(h uint64, key value.Row) {
	if x.heads == nil {
		x.heads = map[uint64]int32{}
	}
	x.next = append(x.next, x.heads[h])
	x.keys = append(x.keys, key)
	x.heads[h] = int32(len(x.keys))
}

// aggCursor folds its input into groups as it pulls it: each row's group key
// is evaluated into a scratch row and looked up in a keyIndex, only a key
// that founds a group is copied, and the row is added to that group's
// states. No input row outlives its fold, so a join beneath writes each batch
// over the last. The first Next pulls the input to its end and closes it
// then (or as soon as a pull or a fold fails), and the groups are re-emitted
// in first-seen order in bounded batches.
type aggCursor struct {
	ex     *Executor
	t      *plan.Aggregate
	in     Cursor
	group  []*expr.Program // group key expressions
	args   []*expr.Program // aggregate arguments, nil for COUNT(*)
	res    *Rows
	closed bool
}

func (c *aggCursor) Open() error {
	schema := c.t.Input.Schema()
	var err error
	if c.group, err = compileAll(c.t.GroupBy, schema); err != nil {
		return err
	}
	c.args = make([]*expr.Program, len(c.t.Aggs))
	for i, it := range c.t.Aggs {
		if it.Agg.Star {
			continue
		}
		if c.args[i], err = expr.Compile(it.Agg.Arg, schema); err != nil {
			return err
		}
	}
	return c.in.Open()
}

func (c *aggCursor) Next() ([]value.Row, error) {
	if c.closed {
		return nil, nil
	}
	if c.res == nil {
		out, err := c.fold()
		if err2 := c.in.Close(); err == nil {
			err = err2
		}
		if err != nil {
			return nil, err
		}
		c.res = NewRows(nil, out, c.ex.batch())
	}
	return c.res.Next()
}

// fold pulls the input to exhaustion, adding every row to its group's
// states, and returns one row per group (its key, then each aggregate's
// result) in first-seen order, carved out of one slab. A global aggregate
// over no rows still yields one row.
func (c *aggCursor) fold() ([]value.Row, error) {
	n := len(c.t.Aggs)
	var groups keyIndex
	var states []aggState // group g's are states[g*n : (g+1)*n]
	newGroup := func(h uint64, key value.Row) {
		groups.add(h, key)
		for _, it := range c.t.Aggs {
			states = append(states, newAggState(it))
		}
	}
	key := make(value.Row, len(c.group)) // scratch: cloned when it founds a group
	for {
		b, err := c.in.Next()
		if err != nil {
			return nil, err
		}
		if len(b) == 0 {
			break
		}
		for _, r := range b {
			for i, g := range c.group {
				if key[i], err = g.Eval(r); err != nil {
					return nil, err
				}
			}
			h := value.HashRow(key)
			g := groups.find(h, key)
			if g < 0 {
				g = len(groups.keys)
				newGroup(h, key.Clone())
			}
			st := states[g*n : (g+1)*n]
			for i, arg := range c.args {
				var v value.Value
				if arg != nil {
					if v, err = arg.Eval(r); err != nil {
						return nil, err
					}
				}
				if err := st[i].add(v); err != nil {
					return nil, err
				}
			}
		}
	}
	if len(groups.keys) == 0 && len(c.group) == 0 {
		newGroup(value.HashRow(nil), nil)
	}
	width := len(c.group) + n
	slab := make([]value.Value, 0, len(groups.keys)*width)
	out := make([]value.Row, len(groups.keys))
	for g, k := range groups.keys {
		start := len(slab)
		slab = append(slab, k...)
		for i := range n {
			slab = append(slab, states[g*n+i].result())
		}
		out[g] = slab[start:len(slab):len(slab)]
	}
	return out, nil
}

func (c *aggCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.in.Close()
}
