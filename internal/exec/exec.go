// Package exec executes plan trees against a node's local storage and, for
// Remote nodes, against the sellers a plan purchased answers from. Execution
// is pulled row-batch iteration: every operator is an Open/Next/Close cursor
// over bounded batches, so the first row surfaces as soon as the pipeline
// below it produces one, LIMIT stops upstream work instead of truncating a
// fully built slice, and peak memory is set by the blocking operators (sort,
// aggregate, join build side) rather than the result size. The pre-streaming
// recursive materializing evaluator survives as RunMaterialized, the
// reference that differential tests pin the streamed answers byte-identical
// against. No execution ever happens during optimization — the trading
// algorithm prices offers purely from optimizer estimates, and only a
// finished winning plan reaches this package.
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
// Elapsed is inclusive of the operator's children (execution is
// materialized, so a parent's wall time contains its inputs').
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

// RunMaterialized executes the plan with the pre-streaming recursive
// evaluator that materializes every operator's full result. It is kept as
// the differential-testing reference: the streaming-vs-materializing tests
// pin Run's answers byte-identical to it across the sqllogic corpus.
func (ex *Executor) RunMaterialized(n plan.Node) (*Result, error) {
	rows, err := ex.run(n)
	if err != nil {
		return nil, err
	}
	return &Result{Cols: n.Schema(), Rows: rows}, nil
}

// run dispatches to runNode, recording actuals when Stats is attached. The
// rows-in of an operator is the sum of its children's rows-out, which are
// already recorded by the time the operator itself returns.
func (ex *Executor) run(n plan.Node) ([]value.Row, error) {
	if ex.Stats == nil {
		return ex.runNode(n)
	}
	t0 := time.Now()
	rows, err := ex.runNode(n)
	if err != nil {
		return nil, err
	}
	var in int64
	for _, c := range n.Children() {
		in += ex.Stats.rowsOut(c)
	}
	ex.Stats.record(n, in, int64(len(rows)), time.Since(t0))
	return rows, nil
}

// bindClone clones an expression and binds it against a schema.
func bindClone(e expr.Expr, schema []expr.ColumnID) (expr.Expr, error) {
	if e == nil {
		return nil, nil
	}
	c := expr.Clone(e)
	if err := expr.Bind(c, schema); err != nil {
		return nil, err
	}
	return c, nil
}

func (ex *Executor) runNode(n plan.Node) ([]value.Row, error) {
	switch t := n.(type) {
	case *plan.Scan:
		return ex.runScan(t)
	case *plan.ViewScan:
		return ex.runViewScan(t)
	case *plan.Filter:
		return ex.runFilter(t)
	case *plan.Project:
		return ex.runProject(t)
	case *plan.Join:
		return ex.runJoin(t)
	case *plan.Aggregate:
		return ex.runAggregate(t)
	case *plan.Sort:
		return ex.runSort(t)
	case *plan.Limit:
		in, err := ex.run(t.Input)
		if err != nil {
			return nil, err
		}
		if int64(len(in)) > t.N {
			in = in[:t.N]
		}
		return in, nil
	case *plan.Distinct:
		in, err := ex.run(t.Input)
		if err != nil {
			return nil, err
		}
		return distinctRows(in), nil
	case *plan.Union:
		return ex.runUnion(t)
	case *plan.Remote:
		return ex.runRemote(t)
	case *plan.Empty:
		return nil, nil
	}
	return nil, fmt.Errorf("exec: unknown plan node %T", n)
}

func (ex *Executor) runScan(t *plan.Scan) ([]value.Row, error) {
	if ex.Store == nil {
		return nil, fmt.Errorf("exec: no local store for scan of %s", t.Def.Name)
	}
	pred, err := bindClone(t.Pred, t.Schema())
	if err != nil {
		return nil, err
	}
	var out []value.Row
	err = ex.Store.Scan(t.Def.Name, t.PartID, pred, func(r value.Row) bool {
		out = append(out, r)
		return true
	})
	return out, err
}

func (ex *Executor) runViewScan(t *plan.ViewScan) ([]value.Row, error) {
	if ex.Store == nil {
		return nil, fmt.Errorf("exec: no local store for view %s", t.Name)
	}
	v := ex.Store.View(t.Name)
	if v == nil {
		return nil, fmt.Errorf("exec: unknown view %s", t.Name)
	}
	pred, err := bindClone(t.Pred, t.Schema())
	if err != nil {
		return nil, err
	}
	var out []value.Row
	for _, r := range v.Rows {
		if pred != nil {
			ok, err := expr.EvalBool(pred, r)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		out = append(out, r)
	}
	return out, nil
}

func (ex *Executor) runFilter(t *plan.Filter) ([]value.Row, error) {
	in, err := ex.run(t.Input)
	if err != nil {
		return nil, err
	}
	pred, err := bindClone(t.Pred, t.Input.Schema())
	if err != nil {
		return nil, err
	}
	var out []value.Row
	for _, r := range in {
		ok, err := expr.EvalBool(pred, r)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, nil
}

func (ex *Executor) runProject(t *plan.Project) ([]value.Row, error) {
	in, err := ex.run(t.Input)
	if err != nil {
		return nil, err
	}
	bound := make([]expr.Expr, len(t.Exprs))
	for i, e := range t.Exprs {
		b, err := bindClone(e, t.Input.Schema())
		if err != nil {
			return nil, err
		}
		bound[i] = b
	}
	out := make([]value.Row, len(in))
	for ri, r := range in {
		row := make(value.Row, len(bound))
		for i, e := range bound {
			v, err := expr.Eval(e, r)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		out[ri] = row
	}
	return out, nil
}

// classifyJoinPred splits the ON conjuncts into equi-join key pairs (left
// expression over L schema, right expression over R schema) and residual
// predicates over the concatenated schema.
func classifyJoinPred(on expr.Expr, lSchema, rSchema []expr.ColumnID) (lKeys, rKeys []expr.Expr, residual expr.Expr, err error) {
	both := append(append([]expr.ColumnID{}, lSchema...), rSchema...)
	var rest []expr.Expr
	for _, c := range expr.Conjuncts(on) {
		b, isBin := c.(*expr.Binary)
		if isBin && b.Op == "=" {
			lOnly, errL := bindClone(b.L, lSchema)
			rOnly, errR := bindClone(b.R, rSchema)
			if errL == nil && errR == nil {
				lKeys = append(lKeys, lOnly)
				rKeys = append(rKeys, rOnly)
				continue
			}
			// Swapped sides: L expr over R schema, R expr over L schema.
			lSwap, errLS := bindClone(b.R, lSchema)
			rSwap, errRS := bindClone(b.L, rSchema)
			if errLS == nil && errRS == nil {
				lKeys = append(lKeys, lSwap)
				rKeys = append(rKeys, rSwap)
				continue
			}
		}
		rest = append(rest, c)
	}
	residual, err = bindClone(expr.And(rest), both)
	return lKeys, rKeys, residual, err
}

func (ex *Executor) runJoin(t *plan.Join) ([]value.Row, error) {
	l, err := ex.run(t.L)
	if err != nil {
		return nil, err
	}
	r, err := ex.run(t.R)
	if err != nil {
		return nil, err
	}
	lKeys, rKeys, residual, err := classifyJoinPred(t.On, t.L.Schema(), t.R.Schema())
	if err != nil {
		return nil, err
	}
	var out []value.Row
	emit := func(lr, rr value.Row) error {
		row := make(value.Row, 0, len(lr)+len(rr))
		row = append(append(row, lr...), rr...)
		if residual != nil {
			ok, err := expr.EvalBool(residual, row)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		out = append(out, row)
		return nil
	}
	if len(lKeys) == 0 {
		// Nested loops (cross product plus residual filter).
		for _, lr := range l {
			for _, rr := range r {
				if err := emit(lr, rr); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	}
	// Hash join: build on the right input.
	type bucket struct {
		keys value.Row
		row  value.Row
	}
	table := map[uint64][]bucket{}
	for _, rr := range r {
		keys, null, err := evalKeys(rKeys, rr)
		if err != nil {
			return nil, err
		}
		if null {
			continue // NULL keys never match
		}
		h := value.HashRow(keys)
		table[h] = append(table[h], bucket{keys: keys, row: rr})
	}
	for _, lr := range l {
		keys, null, err := evalKeys(lKeys, lr)
		if err != nil {
			return nil, err
		}
		if null {
			continue
		}
		h := value.HashRow(keys)
		for _, b := range table[h] {
			if !keysEqual(keys, b.keys) {
				continue
			}
			if err := emit(lr, b.row); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func evalKeys(keys []expr.Expr, row value.Row) (value.Row, bool, error) {
	out := make(value.Row, len(keys))
	for i, k := range keys {
		v, err := expr.Eval(k, row)
		if err != nil {
			return nil, false, err
		}
		if v.IsNull() {
			return nil, true, nil
		}
		out[i] = v
	}
	return out, false, nil
}

func keysEqual(a, b value.Row) bool {
	for i := range a {
		if !value.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func (ex *Executor) runSort(t *plan.Sort) ([]value.Row, error) {
	in, err := ex.run(t.Input)
	if err != nil {
		return nil, err
	}
	return sortRows(t, in)
}

// sortRows stably orders fully materialized rows by the sort keys, shared by
// the streaming cursor (sort is a blocking operator) and the materializing
// reference path. Key-evaluation and comparison failures propagate out: an
// incomparable pair silently treated as equal would make the comparator
// inconsistent and the output order undefined.
func sortRows(t *plan.Sort, in []value.Row) ([]value.Row, error) {
	keys := make([]expr.Expr, len(t.Keys))
	for i, k := range t.Keys {
		b, err := bindClone(k.Expr, t.Input.Schema())
		if err != nil {
			return nil, err
		}
		keys[i] = b
	}
	type sortable struct {
		row  value.Row
		keys value.Row
	}
	items := make([]sortable, len(in))
	for i, r := range in {
		kv := make(value.Row, len(keys))
		for j, k := range keys {
			v, err := expr.Eval(k, r)
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

func distinctRows(in []value.Row) []value.Row {
	seen := map[string]bool{}
	var out []value.Row
	for _, r := range in {
		k := value.Key(r, seq(len(r)))
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

func (ex *Executor) runUnion(t *plan.Union) ([]value.Row, error) {
	var out []value.Row
	// Each input is checked against the union's declared schema, not merely
	// against its non-empty siblings: drift from one mis-shaped branch fails
	// here instead of corrupting a downstream operator.
	want := len(t.Schema())
	for i, in := range t.Inputs {
		rows, err := ex.run(in)
		if err != nil {
			return nil, err
		}
		if want > 0 && len(rows) > 0 && len(rows[0]) != want {
			return nil, fmt.Errorf("exec: union input %d has width %d, schema declares %d", i, len(rows[0]), want)
		}
		out = append(out, rows...)
	}
	return out, nil
}

// runRemote materializes a Remote leaf through the one remote hook (there
// is no operator logic to keep independent in a leaf that only receives
// rows), with the same spec and width validation as the cursor pipeline.
func (ex *Executor) runRemote(t *plan.Remote) ([]value.Row, error) {
	c := &remoteCursor{ex: ex, t: t}
	if err := c.Open(); err != nil {
		return nil, err
	}
	return Drain(c)
}
