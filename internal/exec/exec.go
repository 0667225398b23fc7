// Package exec executes plan trees against a node's local storage and, for
// Remote nodes, against the sellers a plan purchased answers from. Execution
// is pulled row-batch iteration: every operator is an Open/Next/Close cursor
// over bounded batches, so the first row surfaces as soon as the pipeline
// below it produces one, LIMIT stops upstream work instead of truncating a
// fully built slice, and peak memory is set by what the blocking operators
// keep (a sort's rows, an aggregate's groups, a join's build side) rather
// than the result size. The cursors are the only executor: Run drains one,
// Open hands it out. No execution ever happens during optimization — the
// trading algorithm prices offers purely from optimizer estimates, and only
// a finished winning plan reaches this package.
package exec

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"qtrade/internal/expr"
	"qtrade/internal/plan"
	"qtrade/internal/storage"
	"qtrade/internal/value"
)

// Result is a materialized query answer: column identities plus rows.
type Result struct {
	Cols []expr.ColumnID
	Rows []value.Row
}

// Executor runs plans against a store, fetching purchased answers via
// FetchStream.
type Executor struct {
	Store *storage.Store
	// FetchStream opens the answer of a Remote node: purchased answers arrive
	// batch by batch, and closing the plan's cursor early releases the
	// seller-side cursors. Nil is fine for plans without Remote leaves.
	FetchStream StreamFunc
	// BatchSize bounds cursor batches; 0 means DefaultBatchSize.
	BatchSize int
	// Stats, when non-nil, receives per-operator actuals (rows in/out,
	// elapsed, call counts) during Run — the raw material of EXPLAIN
	// ANALYZE. Nil (the default) keeps execution on the unwrapped fast path.
	Stats *RunStats
}

// OpStats are the actuals one plan operator accumulated during execution.
// Elapsed is inclusive of the operator's children: a parent's Next pulls its
// children's, so its wall time contains their work.
type OpStats struct {
	Calls   int
	RowsIn  int64 // rows consumed from children (0 for leaves)
	RowsOut int64 // rows produced
	Elapsed time.Duration
}

// RunStats collects per-operator actuals for one (or several) executions,
// keyed by plan-node identity. Safe for concurrent use.
type RunStats struct {
	mu  sync.Mutex
	ops map[plan.Node]*OpStats
}

// NewRunStats returns an empty collector.
func NewRunStats() *RunStats { return &RunStats{ops: map[plan.Node]*OpStats{}} }

// Get returns the recorded actuals of one operator.
func (s *RunStats) Get(n plan.Node) (OpStats, bool) {
	if s == nil {
		return OpStats{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	op, ok := s.ops[n]
	if !ok {
		return OpStats{}, false
	}
	return *op, true
}

func (s *RunStats) record(n plan.Node, rowsIn, rowsOut int64, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	op := s.ops[n]
	if op == nil {
		op = &OpStats{}
		s.ops[n] = op
	}
	op.Calls++
	op.RowsIn += rowsIn
	op.RowsOut += rowsOut
	op.Elapsed += d
}

func (s *RunStats) rowsOut(n plan.Node) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if op := s.ops[n]; op != nil {
		return op.RowsOut
	}
	return 0
}

// Run executes the plan through the streaming cursor pipeline and returns
// its materialized result. Callers that want the rows incrementally (first
// row before the last is computed) use Open directly.
func (ex *Executor) Run(n plan.Node) (*Result, error) {
	cur, err := ex.Open(n)
	if err != nil {
		return nil, err
	}
	rows, err := Drain(cur)
	if err != nil {
		return nil, err
	}
	return &Result{Cols: n.Schema(), Rows: rows}, nil
}

// compileAll compiles every expression of a list against one schema.
func compileAll(es []expr.Expr, schema []expr.ColumnID) ([]*expr.Program, error) {
	out := make([]*expr.Program, len(es))
	for i, e := range es {
		p, err := expr.Compile(e, schema)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// classifyJoinPred splits what a join cursor tests into what it runs. An
// equality conjunct of the ON with one side over each input is a key pair
// (compiled over the left input and over the right); every other conjunct of
// the ON, and then each conjunct of folded — the predicate of a filter over
// the join — is placed on the side it names. A conjunct of folded is dropped
// when it repeats one of the ON or of the ON of a join reached from this one
// through join children only: every pair the join emits satisfies it, so
// testing it again could change no row and raise no error.
func classifyJoinPred(j *plan.Join, folded expr.Expr, sch *joinSchemas) (lKeys, rKeys []*expr.Program, on, where []sided, err error) {
	// The ON, the ONs below it, and the filter, each split once.
	preds := append(make([]expr.Expr, 0, 8), j.On)
	for below := []plan.Node{j.L, j.R}; len(below) > 0; below = below[1:] {
		if k, ok := below[0].(*plan.Join); ok {
			preds = append(preds, k.On)
			below = append(below, k.L, k.R)
		}
	}
	preds = append(preds, folded)
	ons := make([]expr.Expr, 0, 8) // every conjunct of the ONs, for the filter's to repeat
	for i, pred := range preds {
		for _, c := range expr.Conjuncts(pred) {
			switch {
			case i == len(preds)-1:
				// A repeat whose columns are all qualified resolves over the
				// pair as the ON's did over its inputs.
				if _, qualified := sch.side(c); qualified && implied(c, ons) {
					continue
				}
				s, err := sch.place(c)
				if err != nil {
					return nil, nil, nil, nil, err
				}
				where = append(where, s)
				continue
			case i > 0:
				ons = append(ons, c)
				continue
			}
			ons = append(ons, c)
			if b, ok := c.(*expr.Binary); ok && b.Op == "=" {
				// Either side of the equation may be the left input's.
				if l, r, ok := keyPair(b.L, b.R, sch); ok {
					lKeys, rKeys = append(lKeys, l), append(rKeys, r)
					continue
				}
				if l, r, ok := keyPair(b.R, b.L, sch); ok {
					lKeys, rKeys = append(lKeys, l), append(rKeys, r)
					continue
				}
			}
			s, err := sch.place(c)
			if err != nil {
				return nil, nil, nil, nil, err
			}
			on = append(on, s)
		}
	}
	return lKeys, rKeys, on, where, nil
}

// keyPair compiles l over the left input and r over the right, if both bind.
func keyPair(l, r expr.Expr, sch *joinSchemas) (*expr.Program, *expr.Program, bool) {
	lp, errL := expr.Compile(l, sch.of(onLeft))
	rp, errR := expr.Compile(r, sch.of(onRight))
	return lp, rp, errL == nil && errR == nil
}

// implied reports whether c is one of the conjuncts ons: the same node, or
// an equal one (expr.Equal) of the same operator. A conjunct of another
// shape is taken for a repeat only when it is the same node, so no pair that
// cannot repeat is printed to be compared.
func implied(c expr.Expr, ons []expr.Expr) bool {
	b, _ := c.(*expr.Binary)
	for _, o := range ons {
		if o == c {
			return true
		}
		if ob, ok := o.(*expr.Binary); ok && b != nil && ob.Op == b.Op && expr.Equal(ob, b) {
			return true
		}
	}
	return false
}

// sortRows stably orders the sort cursor's fully drained input by the sort
// keys (sort is a blocking operator). Key-evaluation and comparison failures
// propagate out: an incomparable pair silently treated as equal would make
// the comparator inconsistent and the output order undefined.
func sortRows(t *plan.Sort, in []value.Row) ([]value.Row, error) {
	schema := t.Input.Schema()
	keys := make([]*expr.Program, len(t.Keys))
	for i, k := range t.Keys {
		p, err := expr.Compile(k.Expr, schema)
		if err != nil {
			return nil, err
		}
		keys[i] = p
	}
	type sortable struct {
		row  value.Row
		keys value.Row
	}
	items := make([]sortable, len(in))
	for i, r := range in {
		kv := make(value.Row, len(keys))
		for j, k := range keys {
			v, err := k.Eval(r)
			if err != nil {
				return nil, err
			}
			kv[j] = v
		}
		items[i] = sortable{row: r, keys: kv}
	}
	var sortErr error
	sort.SliceStable(items, func(i, j int) bool {
		if sortErr != nil {
			return false
		}
		for k := range keys {
			a, b := items[i].keys[k], items[j].keys[k]
			c, err := compareForSort(a, b)
			if err != nil {
				sortErr = err
				return false
			}
			if t.Keys[k].Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	if sortErr != nil {
		return nil, sortErr
	}
	out := make([]value.Row, len(items))
	for i, it := range items {
		out[i] = it.row
	}
	return out, nil
}

// compareForSort orders values with NULLs first (ascending). Values
// value.Compare refuses to order (invalid or unknown kinds, e.g. from a
// corrupted remote answer) are an error, not a silent tie.
func compareForSort(a, b value.Value) (int, error) {
	switch {
	case a.IsNull() && b.IsNull():
		return 0, nil
	case a.IsNull():
		return -1, nil
	case b.IsNull():
		return 1, nil
	}
	c, ok := value.Compare(a, b)
	if !ok {
		return 0, fmt.Errorf("exec: sort key values %s and %s are not comparable", a, b)
	}
	return c, nil
}
