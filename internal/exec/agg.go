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

	count    int64
	sumInt   int64
	sumFloat float64
	sawFloat bool
	sawAny   bool
	min, max value.Value
	seen     map[string]bool // for DISTINCT
}

func newAggState(it plan.AggItem) *aggState {
	s := &aggState{fn: it.Agg.Fn, distinct: it.Agg.Distinct, star: it.Agg.Star}
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
	s.sawAny = true
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
	case "MIN":
		if s.min.IsNull() {
			s.min = v
		} else if c, ok := value.Compare(v, s.min); ok && c < 0 {
			s.min = v
		}
		return nil
	case "MAX":
		if s.max.IsNull() {
			s.max = v
		} else if c, ok := value.Compare(v, s.max); ok && c > 0 {
			s.max = v
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
		if !s.sawAny {
			return value.NewNull()
		}
		if s.sawFloat {
			return value.NewFloat(s.sumFloat + float64(s.sumInt))
		}
		return value.NewInt(s.sumInt)
	case "AVG":
		if !s.sawAny || s.count == 0 {
			return value.NewNull()
		}
		return value.NewFloat((s.sumFloat + float64(s.sumInt)) / float64(s.count))
	case "MIN":
		return s.min
	case "MAX":
		return s.max
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

// aggregateRows evaluates the aggregate cursor's fully drained input,
// emitting groups in first-seen order (aggregation is a blocking operator).
func aggregateRows(t *plan.Aggregate, in []value.Row) ([]value.Row, error) {
	inSchema := t.Input.Schema()
	groupExprs, err := compileAll(t.GroupBy, inSchema)
	if err != nil {
		return nil, err
	}
	argExprs := make([]*expr.Program, len(t.Aggs))
	for i, it := range t.Aggs {
		if it.Agg.Star {
			continue
		}
		if argExprs[i], err = expr.Compile(it.Agg.Arg, inSchema); err != nil {
			return nil, err
		}
	}

	var groups keyIndex
	var states [][]*aggState // group number -> one state per aggregate
	newGroup := func(h uint64, key value.Row) {
		groups.add(h, key)
		st := make([]*aggState, len(t.Aggs))
		for i, it := range t.Aggs {
			st[i] = newAggState(it)
		}
		states = append(states, st)
	}
	key := make(value.Row, len(groupExprs)) // scratch: cloned when it founds a group
	for _, r := range in {
		for i, g := range groupExprs {
			v, err := g.Eval(r)
			if err != nil {
				return nil, err
			}
			key[i] = v
		}
		h := value.HashRow(key)
		g := groups.find(h, key)
		if g < 0 {
			g = len(states)
			newGroup(h, key.Clone())
		}
		for i, st := range states[g] {
			var v value.Value
			if !st.star {
				var err error
				v, err = argExprs[i].Eval(r)
				if err != nil {
					return nil, err
				}
			}
			if err := st.add(v); err != nil {
				return nil, err
			}
		}
	}
	// Global aggregation over zero rows still yields one row.
	if len(states) == 0 && len(t.GroupBy) == 0 {
		newGroup(value.HashRow(nil), nil)
	}
	out := make([]value.Row, len(states))
	for g, st := range states {
		row := make(value.Row, 0, len(groups.keys[g])+len(st))
		row = append(row, groups.keys[g]...)
		for _, s := range st {
			row = append(row, s.result())
		}
		out[g] = row
	}
	return out, nil
}
