package exec

import (
	"fmt"
	"time"

	"qtrade/internal/expr"
	"qtrade/internal/plan"
	"qtrade/internal/value"
)

// DefaultBatchSize is the row-batch granularity cursors pull at when the
// executor does not set one. Large enough to amortize per-batch dispatch,
// small enough that a pipeline holds only a few KB per operator.
const DefaultBatchSize = 256

// Cursor is a pulled row-batch iterator over one plan subtree: the Volcano
// model at batch rather than row granularity. Open prepares the operator
// (binding expressions, building hash tables, opening remote fetches); Next
// returns the next batch, where a nil or empty batch means exhausted; Close
// releases resources. A batch is valid only until the following Next call —
// consumers that retain rows across calls must copy the slice (the row
// values themselves are never reused). Operators that build rows (project,
// join) carve them out of a slab shared by the rows around them, so a
// retained row pins its whole slab, about a batch of rows. Close is
// idempotent, safe to call before exhaustion (early close releases upstream
// work, e.g. seller-side cursors), and safe on a cursor whose Open failed or
// never ran.
type Cursor interface {
	Open() error
	Next() ([]value.Row, error)
	Close() error
}

// RowStream is one streamed remote answer. Cols is the seller's declared
// output spec, known at open even when no rows exist; Next returns row
// batches until a nil or empty batch signals exhaustion. Close releases the
// seller-side cursor and must be idempotent and safe to call early.
type RowStream interface {
	Cols() []expr.ColumnID
	Next() ([]value.Row, error)
	Close() error
}

// StreamFunc resolves a Remote plan node by asking the named seller to
// evaluate sql and opening its answer as a stream. offerID identifies the
// purchased offer (empty for plans, like the baselines', that fetch ad hoc);
// sellers use it to recognize composite subcontracted offers. A caller that
// already holds the whole answer returns it wrapped in Rows.
type StreamFunc func(nodeID, sql, offerID string) (RowStream, error)

// batch returns the effective batch size.
func (ex *Executor) batch() int {
	if ex.BatchSize > 0 {
		return ex.BatchSize
	}
	return DefaultBatchSize
}

// Open builds and opens a cursor over the plan. The caller owns the cursor:
// Close must be called (even after a Next error), and closing before
// exhaustion releases upstream resources — scans stop, remote fetches send
// their cursor-close — without draining the remaining rows.
func (ex *Executor) Open(n plan.Node) (Cursor, error) {
	c, err := ex.build(n)
	if err != nil {
		return nil, err
	}
	if err := c.Open(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// build constructs the (unopened) cursor tree for a plan, wrapping every
// operator in a stats recorder when Stats is attached.
func (ex *Executor) build(n plan.Node) (Cursor, error) {
	var c Cursor
	switch t := n.(type) {
	case *plan.Scan:
		c = &scanCursor{ex: ex, t: t}
	case *plan.ViewScan:
		c = &viewScanCursor{ex: ex, t: t}
	case *plan.Filter:
		in, err := ex.build(t.Input)
		if err != nil {
			return nil, err
		}
		c = &filterCursor{ex: ex, t: t, in: in}
	case *plan.Project:
		in, err := ex.build(t.Input)
		if err != nil {
			return nil, err
		}
		c = &projectCursor{ex: ex, t: t, in: in}
	case *plan.Join:
		l, err := ex.build(t.L)
		if err != nil {
			return nil, err
		}
		r, err := ex.build(t.R)
		if err != nil {
			return nil, err
		}
		c = &joinCursor{ex: ex, t: t, l: l, r: r}
	case *plan.Aggregate:
		in, err := ex.build(t.Input)
		if err != nil {
			return nil, err
		}
		c = &blockingCursor{ex: ex, in: in, compute: func(rows []value.Row) ([]value.Row, error) {
			return aggregateRows(t, rows)
		}}
	case *plan.Sort:
		in, err := ex.build(t.Input)
		if err != nil {
			return nil, err
		}
		c = &blockingCursor{ex: ex, in: in, compute: func(rows []value.Row) ([]value.Row, error) {
			return sortRows(t, rows)
		}}
	case *plan.Limit:
		in, err := ex.build(t.Input)
		if err != nil {
			return nil, err
		}
		c = &limitCursor{t: t, in: in}
	case *plan.Distinct:
		in, err := ex.build(t.Input)
		if err != nil {
			return nil, err
		}
		c = &distinctCursor{ex: ex, in: in}
	case *plan.Union:
		inputs := make([]Cursor, len(t.Inputs))
		for i, child := range t.Inputs {
			cc, err := ex.build(child)
			if err != nil {
				return nil, err
			}
			inputs[i] = cc
		}
		c = &unionCursor{t: t, inputs: inputs}
	case *plan.Remote:
		c = &remoteCursor{ex: ex, t: t}
	case *plan.Empty:
		c = emptyCursor{}
	default:
		return nil, fmt.Errorf("exec: unknown plan node %T", n)
	}
	if ex.Stats != nil {
		c = &statsCursor{inner: c, stats: ex.Stats, node: n}
	}
	return c, nil
}

// Drain pulls an opened cursor to exhaustion, materializing its rows, and
// closes it (also when a pull fails). Blocking operators (sort, aggregate,
// join build side) use it on their inputs, and so does everything that wants
// a whole answer from a pipeline.
func Drain(c Cursor) ([]value.Row, error) {
	var rows []value.Row
	for {
		b, err := c.Next()
		if err != nil {
			c.Close()
			return nil, err
		}
		if len(b) == 0 {
			break
		}
		rows = append(rows, b...)
	}
	return rows, c.Close()
}

// scanCursor pulls one bounded batch per Next from a stored fragment,
// resuming at a raw row offset: the scan callback finally returns false at
// batch boundaries, so a LIMIT (or an abandoned stream) stops the scan
// instead of filtering a fully built slice.
type scanCursor struct {
	ex     *Executor
	t      *plan.Scan
	pred   expr.Expr
	pos    int
	out    []value.Row
	done   bool
	closed bool
}

func (c *scanCursor) Open() error {
	if c.ex.Store == nil {
		return fmt.Errorf("exec: no local store for scan of %s", c.t.Def.Name)
	}
	pred, err := bindClone(c.t.Pred, c.t.Schema())
	if err != nil {
		return err
	}
	c.pred = pred
	return nil
}

func (c *scanCursor) Next() ([]value.Row, error) {
	if c.done || c.closed {
		return nil, nil
	}
	limit := c.ex.batch()
	c.out = c.out[:0]
	next, err := c.ex.Store.ScanFrom(c.t.Def.Name, c.t.PartID, c.pred, c.pos, func(r value.Row) bool {
		c.out = append(c.out, r)
		return len(c.out) < limit
	})
	if err != nil {
		return nil, err
	}
	c.pos = next
	if len(c.out) < limit {
		c.done = true
	}
	return c.out, nil
}

func (c *scanCursor) Close() error {
	c.closed = true
	return nil
}

// viewScanCursor iterates a materialized view snapshot batch by batch.
type viewScanCursor struct {
	ex     *Executor
	t      *plan.ViewScan
	rows   []value.Row
	pred   expr.Expr
	pos    int
	out    []value.Row
	closed bool
}

func (c *viewScanCursor) Open() error {
	if c.ex.Store == nil {
		return fmt.Errorf("exec: no local store for view %s", c.t.Name)
	}
	v := c.ex.Store.View(c.t.Name)
	if v == nil {
		return fmt.Errorf("exec: unknown view %s", c.t.Name)
	}
	pred, err := bindClone(c.t.Pred, c.t.Schema())
	if err != nil {
		return err
	}
	c.rows, c.pred = v.Rows, pred
	return nil
}

func (c *viewScanCursor) Next() ([]value.Row, error) {
	if c.closed {
		return nil, nil
	}
	limit := c.ex.batch()
	c.out = c.out[:0]
	for c.pos < len(c.rows) && len(c.out) < limit {
		r := c.rows[c.pos]
		c.pos++
		if c.pred != nil {
			ok, err := expr.EvalBool(c.pred, r)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		c.out = append(c.out, r)
	}
	return c.out, nil
}

func (c *viewScanCursor) Close() error {
	c.closed = true
	return nil
}

// filterCursor streams its input through the bound predicate.
type filterCursor struct {
	ex     *Executor
	t      *plan.Filter
	in     Cursor
	pred   expr.Expr
	buf    []value.Row
	idx    int
	out    []value.Row
	done   bool
	closed bool
}

func (c *filterCursor) Open() error {
	pred, err := bindClone(c.t.Pred, c.t.Input.Schema())
	if err != nil {
		return err
	}
	c.pred = pred
	return c.in.Open()
}

func (c *filterCursor) Next() ([]value.Row, error) {
	if c.done || c.closed {
		return nil, nil
	}
	limit := c.ex.batch()
	c.out = c.out[:0]
	for len(c.out) < limit {
		if c.idx >= len(c.buf) {
			b, err := c.in.Next()
			if err != nil {
				return nil, err
			}
			if len(b) == 0 {
				c.done = true
				break
			}
			c.buf, c.idx = b, 0
			continue
		}
		r := c.buf[c.idx]
		c.idx++
		ok, err := expr.EvalBool(c.pred, r)
		if err != nil {
			return nil, err
		}
		if ok {
			c.out = append(c.out, r)
		}
	}
	return c.out, nil
}

func (c *filterCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.in.Close()
}

// projectCursor evaluates the projection row by row as batches flow through,
// into one fresh slab per batch.
type projectCursor struct {
	ex     *Executor
	t      *plan.Project
	in     Cursor
	bound  []expr.Expr
	out    []value.Row
	closed bool
}

func (c *projectCursor) Open() error {
	c.bound = make([]expr.Expr, len(c.t.Exprs))
	for i, e := range c.t.Exprs {
		b, err := bindClone(e, c.t.Input.Schema())
		if err != nil {
			return err
		}
		c.bound[i] = b
	}
	return c.in.Open()
}

func (c *projectCursor) Next() ([]value.Row, error) {
	if c.closed {
		return nil, nil
	}
	b, err := c.in.Next()
	if err != nil || len(b) == 0 {
		return nil, err
	}
	c.out = c.out[:0]
	slab := make([]value.Value, 0, len(b)*len(c.bound))
	for _, r := range b {
		n := len(slab)
		for _, e := range c.bound {
			v, err := expr.Eval(e, r)
			if err != nil {
				return nil, err
			}
			slab = append(slab, v)
		}
		c.out = append(c.out, slab[n:len(slab):len(slab)])
	}
	return c.out, nil
}

func (c *projectCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.in.Close()
}

// joinCursor builds a hash table over the (fully drained) right input at
// Open, then streams the left input through it: probe output appears as soon
// as the first left batch arrives. Output order matches the materializing
// path exactly — left row order crossed with right insertion order per
// bucket. Without equi-join keys it degrades to nested loops over the
// materialized right side.
//
// The table is three flat pieces indexed by build-row number instead of a
// heap object per entry: heads maps a key hash to the first row of its
// chain, next links each row to the following one with the same hash, and
// keys holds every row's key values side by side. Rows are linked last to
// first, each pushed at the head of its chain, so a chain reads in build
// order.
type joinCursor struct {
	ex       *Executor
	t        *plan.Join
	l, r     Cursor
	lKeys    []expr.Expr
	rKeys    []expr.Expr
	residual expr.Expr
	rRows    []value.Row      // build side; all of it is the nested-loop fallback
	heads    map[uint64]int32 // key hash -> 1 + first build row of the chain
	next     []int32          // build row -> 1 + next row of its chain, 0 at the end
	keys     []value.Value    // build row i's key at [i*len(rKeys) : (i+1)*len(rKeys)]
	probe    value.Row        // probe-side key scratch, reused for every left row
	slab     []value.Value    // unused tail is where the next output row goes
	buf      []value.Row
	idx      int
	out      []value.Row
	done     bool
	closed   bool
}

func (c *joinCursor) Open() error {
	var err error
	c.lKeys, c.rKeys, c.residual, err = classifyJoinPred(c.t.On, c.t.L.Schema(), c.t.R.Schema())
	if err != nil {
		return err
	}
	if err := c.r.Open(); err != nil {
		return err
	}
	c.rRows, err = Drain(c.r) // build side blocks; drained and released here
	if err != nil {
		return err
	}
	if nk := len(c.rKeys); nk > 0 {
		c.heads = make(map[uint64]int32, len(c.rRows))
		c.next = make([]int32, len(c.rRows))
		c.keys = make([]value.Value, len(c.rRows)*nk)
		c.probe = make(value.Row, nk)
		for i := len(c.rRows) - 1; i >= 0; i-- {
			key := value.Row(c.keys[i*nk : (i+1)*nk])
			null, err := evalKeyInto(key, c.rKeys, c.rRows[i])
			if err != nil {
				return err
			}
			if null {
				continue // NULL keys never match: the row joins no chain
			}
			h := value.HashRow(key)
			c.next[i] = c.heads[h]
			c.heads[h] = int32(i + 1)
		}
	}
	return c.l.Open()
}

// evalKeyInto evaluates the key expressions over row into dst, stopping at
// the first NULL (null = true: the key matches nothing).
func evalKeyInto(dst value.Row, keys []expr.Expr, row value.Row) (null bool, err error) {
	for i, k := range keys {
		v, err := expr.Eval(k, row)
		if err != nil {
			return false, err
		}
		if v.IsNull() {
			return true, nil
		}
		dst[i] = v
	}
	return false, nil
}

// emit carves lr ++ rr out of the slab; a row the residual rejects gives its
// slot back. A full slab is replaced, never regrown (rows already handed out
// keep theirs), by one sized for the left rows still to probe in this input
// batch — or, inside a long match chain, for as many rows as the batch holds.
func (c *joinCursor) emit(lr, rr value.Row) error {
	n, w := len(c.slab), len(lr)+len(rr)
	if cap(c.slab)-n < w {
		n, c.slab = 0, make([]value.Value, 0, w*max(len(c.buf)-c.idx+1, len(c.out)))
	}
	c.slab = append(append(c.slab, lr...), rr...)
	row := value.Row(c.slab[n : n+w : n+w])
	if c.residual != nil {
		ok, err := expr.EvalBool(c.residual, row)
		if err != nil {
			return err
		}
		if !ok {
			c.slab = c.slab[:n]
			return nil
		}
	}
	c.out = append(c.out, row)
	return nil
}

func (c *joinCursor) Next() ([]value.Row, error) {
	if c.done || c.closed {
		return nil, nil
	}
	limit := c.ex.batch()
	c.out = c.out[:0]
	// A single left row can emit many matches, so a batch may overrun the
	// limit by one row's matches; it stays bounded by max bucket size.
	for len(c.out) < limit {
		if c.idx >= len(c.buf) {
			b, err := c.l.Next()
			if err != nil {
				return nil, err
			}
			if len(b) == 0 {
				c.done = true
				break
			}
			c.buf, c.idx = b, 0
			continue
		}
		lr := c.buf[c.idx]
		c.idx++
		if c.heads == nil {
			for _, rr := range c.rRows {
				if err := c.emit(lr, rr); err != nil {
					return nil, err
				}
			}
			continue
		}
		null, err := evalKeyInto(c.probe, c.lKeys, lr)
		if err != nil {
			return nil, err
		}
		if null {
			continue
		}
		nk := len(c.probe)
		for e := c.heads[value.HashRow(c.probe)]; e != 0; e = c.next[e-1] {
			i := int(e - 1)
			if !keysEqual(c.probe, c.keys[i*nk:(i+1)*nk]) {
				continue
			}
			if err := c.emit(lr, c.rRows[i]); err != nil {
				return nil, err
			}
		}
	}
	return c.out, nil
}

func (c *joinCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	err := c.l.Close()
	if err2 := c.r.Close(); err == nil {
		err = err2
	}
	return err
}

// blockingCursor implements sort and aggregate: both must see every input
// row before emitting the first output row, so the input is drained (and
// closed) on the first Next and the computed result re-emitted in bounded
// batches.
type blockingCursor struct {
	ex      *Executor
	in      Cursor
	compute func([]value.Row) ([]value.Row, error)
	res     *Rows
	closed  bool
}

func (c *blockingCursor) Open() error { return c.in.Open() }

func (c *blockingCursor) Next() ([]value.Row, error) {
	if c.closed {
		return nil, nil
	}
	if c.res == nil {
		rows, err := Drain(c.in)
		if err != nil {
			return nil, err
		}
		out, err := c.compute(rows)
		if err != nil {
			return nil, err
		}
		c.res = NewRows(nil, out, c.ex.batch())
	}
	return c.res.Next()
}

func (c *blockingCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.in.Close()
}

// Rows serves an already materialized answer in bounded batches. It is both
// a Cursor (Open is a no-op) and a RowStream (Cols is the declared schema,
// empty when unknown): blocking operators re-emit their output through it,
// sellers chunk the answers that have no cursor pipeline of their own, and a
// caller holding a whole reply hands it to a Remote leaf as a stream.
type Rows struct {
	cols  []expr.ColumnID
	rows  []value.Row
	batch int
	pos   int
}

// NewRows wraps rows; batch <= 0 means DefaultBatchSize.
func NewRows(cols []expr.ColumnID, rows []value.Row, batch int) *Rows {
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	return &Rows{cols: cols, rows: rows, batch: batch}
}

func (r *Rows) Open() error { return nil }

func (r *Rows) Cols() []expr.ColumnID { return r.cols }

func (r *Rows) Next() ([]value.Row, error) {
	if r.pos >= len(r.rows) {
		return nil, nil
	}
	end := r.pos + r.batch
	if end > len(r.rows) {
		end = len(r.rows)
	}
	b := r.rows[r.pos:end]
	r.pos = end
	return b, nil
}

// Close drops whatever was not pulled.
func (r *Rows) Close() error {
	r.pos = len(r.rows)
	return nil
}

// limitCursor truncates the stream after N rows and is where streaming pays
// off most: LIMIT 0 never opens its input, and hitting the limit closes the
// input immediately, so upstream scans stop and seller-side cursors are
// released without shipping the rest of the answer.
type limitCursor struct {
	t           *plan.Limit
	in          Cursor
	remaining   int64
	opened      bool
	childClosed bool
	done        bool
	closed      bool
}

func (c *limitCursor) Open() error {
	c.remaining = c.t.N
	if c.remaining <= 0 {
		return nil // LIMIT 0: the input is never opened, let alone run
	}
	if err := c.in.Open(); err != nil {
		return err
	}
	c.opened = true
	return nil
}

func (c *limitCursor) Next() ([]value.Row, error) {
	if c.done || c.closed || c.remaining <= 0 {
		return nil, nil
	}
	b, err := c.in.Next()
	if err != nil {
		return nil, err
	}
	if len(b) == 0 {
		c.done = true
		return nil, c.closeChild()
	}
	if int64(len(b)) >= c.remaining {
		b = b[:c.remaining]
		c.remaining = 0
		c.done = true
		if err := c.closeChild(); err != nil {
			return nil, err
		}
		return b, nil
	}
	c.remaining -= int64(len(b))
	return b, nil
}

func (c *limitCursor) closeChild() error {
	if !c.opened || c.childClosed {
		return nil
	}
	c.childClosed = true
	return c.in.Close()
}

func (c *limitCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.closeChild()
}

// distinctCursor streams rows through a first-seen filter, preserving the
// materializing path's first-occurrence order.
type distinctCursor struct {
	ex     *Executor
	in     Cursor
	seen   keyIndex
	buf    []value.Row
	idx    int
	out    []value.Row
	done   bool
	closed bool
}

func (c *distinctCursor) Open() error { return c.in.Open() }

func (c *distinctCursor) Next() ([]value.Row, error) {
	if c.done || c.closed {
		return nil, nil
	}
	limit := c.ex.batch()
	c.out = c.out[:0]
	for len(c.out) < limit {
		if c.idx >= len(c.buf) {
			b, err := c.in.Next()
			if err != nil {
				return nil, err
			}
			if len(b) == 0 {
				c.done = true
				break
			}
			c.buf, c.idx = b, 0
			continue
		}
		r := c.buf[c.idx]
		c.idx++
		if h := value.HashRow(r); c.seen.find(h, r) < 0 {
			c.seen.add(h, r)
			c.out = append(c.out, r)
		}
	}
	return c.out, nil
}

func (c *distinctCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.in.Close()
}

// unionCursor concatenates its inputs, running them one at a time (an input
// opens only when its predecessor is exhausted and closed). Every batch is
// width-checked against the union's declared schema, so drift from a
// mis-shaped branch — local or remote — fails at its first row instead of
// corrupting a downstream operator.
type unionCursor struct {
	t      *plan.Union
	inputs []Cursor
	cur    int
	opened bool
	closed bool
}

func (c *unionCursor) Open() error {
	if len(c.inputs) == 0 {
		return nil
	}
	if err := c.inputs[0].Open(); err != nil {
		return err
	}
	c.opened = true
	return nil
}

func (c *unionCursor) Next() ([]value.Row, error) {
	if c.closed {
		return nil, nil
	}
	want := len(c.t.Schema())
	for c.cur < len(c.inputs) {
		b, err := c.inputs[c.cur].Next()
		if err != nil {
			return nil, err
		}
		if len(b) == 0 {
			if err := c.inputs[c.cur].Close(); err != nil {
				return nil, err
			}
			c.cur++
			if c.cur < len(c.inputs) {
				if err := c.inputs[c.cur].Open(); err != nil {
					return nil, err
				}
			}
			continue
		}
		if want > 0 && len(b[0]) != want {
			return nil, fmt.Errorf("exec: union input %d has width %d, schema declares %d", c.cur, len(b[0]), want)
		}
		return b, nil
	}
	return nil, nil
}

func (c *unionCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	var err error
	// Close the in-flight input and any never-opened successors (their Close
	// must be tolerated per the Cursor contract); already-exhausted
	// predecessors were closed as the stream advanced.
	for i := c.cur; i < len(c.inputs); i++ {
		if i == 0 && !c.opened {
			continue
		}
		if e := c.inputs[i].Close(); err == nil {
			err = e
		}
	}
	return err
}

// emptyCursor is the Empty leaf: exhausted from the start.
type emptyCursor struct{}

func (emptyCursor) Open() error                { return nil }
func (emptyCursor) Next() ([]value.Row, error) { return nil, nil }
func (emptyCursor) Close() error               { return nil }

// remoteCursor resolves a Remote leaf by pulling the purchased answer batch
// by batch from the executor's FetchStream; an early Close releases the
// seller-side cursor. The seller's declared column spec is validated against
// the plan at open — so an empty but mis-shaped answer fails too — and every
// batch's row width as it arrives.
type remoteCursor struct {
	ex     *Executor
	t      *plan.Remote
	st     RowStream
	closed bool
}

func (c *remoteCursor) Open() error {
	t := c.t
	if c.ex.FetchStream == nil {
		return fmt.Errorf("exec: plan contains Remote[%s] but executor has no fetcher", t.NodeID)
	}
	st, err := c.ex.FetchStream(t.NodeID, t.SQL, t.OfferID)
	if err != nil {
		return fmt.Errorf("exec: fetching from %s: %w", t.NodeID, err)
	}
	if cols := st.Cols(); len(cols) > 0 && len(cols) != len(t.Cols) {
		st.Close()
		return fmt.Errorf("exec: remote %s returned %d columns, plan expects %d", t.NodeID, len(cols), len(t.Cols))
	}
	c.st = st
	return nil
}

func (c *remoteCursor) Next() ([]value.Row, error) {
	if c.closed {
		return nil, nil
	}
	b, err := c.st.Next()
	if err != nil {
		return nil, err
	}
	if len(b) > 0 && len(b[0]) != len(c.t.Cols) {
		return nil, fmt.Errorf("exec: remote %s returned width %d, plan expects %d", c.t.NodeID, len(b[0]), len(c.t.Cols))
	}
	return b, nil
}

func (c *remoteCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.st != nil {
		return c.st.Close()
	}
	return nil
}

// statsCursor records one operator's actuals — wall time across
// Open/Next/Close (inclusive of children, like the materializing path),
// rows produced, and rows consumed (the sum of its children's rows-out,
// final by the time the children's own recorders have closed).
type statsCursor struct {
	inner    Cursor
	stats    *RunStats
	node     plan.Node
	elapsed  time.Duration
	rowsOut  int64
	recorded bool
}

func (c *statsCursor) Open() error {
	t0 := time.Now()
	err := c.inner.Open()
	c.elapsed += time.Since(t0)
	return err
}

func (c *statsCursor) Next() ([]value.Row, error) {
	t0 := time.Now()
	b, err := c.inner.Next()
	c.elapsed += time.Since(t0)
	c.rowsOut += int64(len(b))
	return b, err
}

func (c *statsCursor) Close() error {
	if c.recorded {
		return c.inner.Close()
	}
	c.recorded = true
	t0 := time.Now()
	err := c.inner.Close() // closes children, recording their actuals first
	c.elapsed += time.Since(t0)
	var in int64
	for _, child := range c.node.Children() {
		in += c.stats.rowsOut(child)
	}
	c.stats.record(c.node, in, c.rowsOut, c.elapsed)
	return err
}
