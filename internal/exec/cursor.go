package exec

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
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
// (compiling expressions, building hash tables, opening remote fetches); Next
// returns the next batch, where a nil or empty batch means exhausted; Close
// releases resources. A batch is valid only until the following Next call —
// consumers that retain rows across calls must copy the slice (the row
// values themselves are never reused, with one exception: a join under an
// aggregate writes each batch over the last, so its rows live until the next
// pull — the aggregate folds each row into its group's states first). A
// projection over a join is no cursor of its own: the join writes the
// projection's rows. Operators that build rows (project, join) carve them
// out of a slab shared by the rows around them, so a retained row pins its
// whole slab, about a batch of rows. Close is idempotent, safe to call
// before exhaustion (early close releases upstream work, e.g. seller-side
// cursors), and safe on a cursor whose Open failed or never ran.
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
	c, err := ex.build(n, false)
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
// operator in a stats recorder when Stats is attached. reuse is true under an
// aggregate, which folds every row before it pulls again: a join there writes
// each batch over the last. A join produces what its parent keeps: a filter
// directly over it is tested as it joins, and a projection directly over it,
// or over such a filter, is the join's output list. Every plan node keeps its
// own actuals: the join's rows out are the rows it joined, before the filter.
func (ex *Executor) build(n plan.Node, reuse bool) (Cursor, error) {
	var c Cursor
	switch t := n.(type) {
	case *plan.Scan:
		c = &scanCursor{ex: ex, t: t}
	case *plan.ViewScan:
		c = &viewScanCursor{ex: ex, t: t}
	case *plan.Filter:
		if j, ok := t.Input.(*plan.Join); ok {
			jc, err := ex.buildJoin(j, t, nil, reuse)
			if err != nil {
				return nil, err
			}
			c = jc
			break
		}
		in, err := ex.build(t.Input, false)
		if err != nil {
			return nil, err
		}
		c = &filterCursor{ex: ex, t: t, in: in}
	case *plan.Project:
		below, f := t.Input, (*plan.Filter)(nil)
		if x, ok := below.(*plan.Filter); ok {
			below, f = x.Input, x
		}
		if j, ok := below.(*plan.Join); ok {
			jc, err := ex.buildJoin(j, f, t, false)
			if err != nil {
				return nil, err
			}
			c = jc
			break
		}
		in, err := ex.build(t.Input, false)
		if err != nil {
			return nil, err
		}
		c = &projectCursor{ex: ex, t: t, in: in}
	case *plan.Join:
		return ex.buildJoin(t, nil, nil, reuse)
	case *plan.Aggregate:
		in, err := ex.build(t.Input, true)
		if err != nil {
			return nil, err
		}
		c = &aggCursor{ex: ex, t: t, in: in}
	case *plan.Sort:
		in, err := ex.build(t.Input, false)
		if err != nil {
			return nil, err
		}
		c = &sortCursor{ex: ex, t: t, in: in}
	case *plan.Limit:
		in, err := ex.build(t.Input, false)
		if err != nil {
			return nil, err
		}
		c = &limitCursor{t: t, in: in}
	case *plan.Distinct:
		in, err := ex.build(t.Input, false)
		if err != nil {
			return nil, err
		}
		c = &distinctCursor{ex: ex, in: in}
	case *plan.Union:
		inputs := make([]Cursor, len(t.Inputs))
		for i, child := range t.Inputs {
			cc, err := ex.build(child, false)
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

// buildJoin builds a join's inputs and the join cursor over them, which
// tests f's predicate when f is a filter over the join and produces p's list
// when p is a projection over the join or over f. It records the join's
// actuals, and the filter's when p is its parent; the caller records the
// top node's.
func (ex *Executor) buildJoin(t *plan.Join, f *plan.Filter, p *plan.Project, reuse bool) (Cursor, error) {
	l, err := ex.build(t.L, false)
	if err != nil {
		return nil, err
	}
	r, err := ex.build(t.R, false)
	if err != nil {
		return nil, err
	}
	jc := &joinCursor{ex: ex, t: t, l: l, r: r, reuse: reuse}
	if f != nil {
		jc.folded = f.Pred
	}
	if p != nil {
		jc.exprs = p.Exprs
	}
	if ex.Stats == nil {
		return jc, nil
	}
	var c Cursor = &statsCursor{inner: jc, stats: ex.Stats, node: t, rowsOutAt: &jc.joined}
	if f != nil && p != nil {
		c = &statsCursor{inner: c, stats: ex.Stats, node: f}
	}
	return c, nil
}

// Drain pulls an opened cursor to exhaustion, materializing its rows, and
// closes it (also when a pull fails). The operators that keep every input row
// (sort, join build side) use it on their inputs, and so does everything
// that wants a whole answer from a pipeline. Each batch is copied once as it
// arrives (it is valid only until the next pull), and the copies are
// concatenated once, at the exact size; a single batch is its own copy.
func Drain(c Cursor) ([]value.Row, error) {
	chunks := make([][]value.Row, 0, 8) // on the stack until a ninth batch
	total := 0
	for {
		b, err := c.Next()
		if err != nil {
			c.Close()
			return nil, err
		}
		if len(b) == 0 {
			break
		}
		chunks = append(chunks, slices.Clone(b))
		total += len(b)
	}
	var rows []value.Row
	switch len(chunks) {
	case 0:
	case 1:
		rows = chunks[0]
	default:
		rows = make([]value.Row, 0, total)
		for _, b := range chunks {
			rows = append(rows, b...)
		}
	}
	return rows, c.Close()
}

// scanCursor pulls one bounded batch per Next from a stored fragment,
// resuming at a raw row offset: the scan callback finally returns false at
// batch boundaries, so a LIMIT (or an abandoned stream) stops the scan
// instead of filtering a fully built slice. The cursor tests its compiled
// predicate itself; the store only hands it rows.
type scanCursor struct {
	ex     *Executor
	t      *plan.Scan
	pred   *expr.Program
	pos    int
	out    []value.Row
	done   bool
	closed bool
}

func (c *scanCursor) Open() error {
	if c.ex.Store == nil {
		return fmt.Errorf("exec: no local store for scan of %s", c.t.Def.Name)
	}
	var err error
	c.pred, err = expr.Compile(c.t.Pred, c.t.Schema())
	return err
}

func (c *scanCursor) Next() ([]value.Row, error) {
	if c.done || c.closed {
		return nil, nil
	}
	limit := c.ex.batch()
	c.out = c.out[:0]
	var predErr error
	next, err := c.ex.Store.ScanFrom(c.t.Def.Name, c.t.PartID, nil, c.pos, func(r value.Row) bool {
		ok, err := c.pred.Holds(r)
		if err != nil {
			predErr = err
			return false
		}
		if ok {
			c.out = append(c.out, r)
		}
		return len(c.out) < limit
	})
	if err == nil {
		err = predErr
	}
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
	pred   *expr.Program
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
	pred, err := expr.Compile(c.t.Pred, c.t.Schema())
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
		ok, err := c.pred.Holds(r)
		if err != nil {
			return nil, err
		}
		if ok {
			c.out = append(c.out, r)
		}
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
	pred   *expr.Program
	buf    []value.Row
	idx    int
	out    []value.Row
	done   bool
	closed bool
}

func (c *filterCursor) Open() error {
	var err error
	if c.pred, err = expr.Compile(c.t.Pred, c.t.Input.Schema()); err != nil {
		return err
	}
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
		ok, err := c.pred.Holds(r)
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
	exprs  []*expr.Program
	out    []value.Row
	closed bool
}

func (c *projectCursor) Open() error {
	var err error
	if c.exprs, err = compileAll(c.t.Exprs, c.t.Input.Schema()); err != nil {
		return err
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
	slab := make([]value.Value, 0, len(b)*len(c.exprs))
	for _, r := range b {
		n := len(slab)
		for _, e := range c.exprs {
			v, err := e.Eval(r)
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
// as the first left batch arrives. Output order is left row order crossed
// with right insertion order per bucket — a nested loop's order. Without
// equi-join keys it degrades to nested loops over the drained right side.
//
// The table is three flat slices indexed by build-row number instead of a
// heap object per entry: heads maps a bucket (the low bits of a key hash) to
// the first row of its chain, next links each row to the following one in
// its bucket, and hashes holds each row's full key hash. Rows are linked last
// to first, each pushed at the head of its chain, so a chain reads in build
// order. No key is kept: a side whose every key is a column reads its keys in
// place, from the row; a side with a computed key evaluates it again at each
// hash match.
//
// The cursor produces what its parent keeps. Every conjunct it tests — the
// ON's other than the keys, then a folded filter's that no ON repeats — runs
// on the rows of the side it names, in order, and only one naming both sides
// has the pair written out, into one reused scratch row. Only a pair that
// passes them all takes a slot of a slab, so a rejected pair leaves no gap.
// Its row is lr ++ rr, or the output list of a projection over the join: a
// bare column picked from its side's row, a computed one evaluated on the
// rows it names. An output that fails is reported once the batch is
// complete, so a later pair's failing condition comes first, as it did when
// the projection ran over the filter's whole batch.
type joinCursor struct {
	ex           *Executor
	t            *plan.Join
	l, r         Cursor
	folded       expr.Expr   // the predicate of a Filter over the join
	exprs        []expr.Expr // the list of a Project over the join or the filter; nil is lr ++ rr
	lKeys, rKeys joinKeys
	on, where    []sided       // the ON's non-key conjuncts, folded's that no ON repeats
	outs         []sided       // exprs, placed
	joined       int64         // rows that passed the ON clause, before the filter
	reuse        bool          // the parent folds each row before it pulls again: one slab for every batch
	rRows        []value.Row   // build side; all of it is the nested-loop fallback
	heads        []int32       // bucket (hash & (len-1)) -> 1 + first build row of its chain
	next         []int32       // build row -> 1 + next row of its chain, 0 at the end
	hashes       []uint64      // build row -> its key's hash
	pair         value.Row     // lr ++ rr scratch, for what names both sides
	paired       bool          // pair holds the pair under test
	outErr       error         // the batch's first failing output, returned once it is complete
	slab         []value.Value // unused tail is where the next row goes
	buf          []value.Row
	idx          int
	out          []value.Row
	done         bool
	closed       bool
}

// Sides of a join an expression reads, and what joinSchemas holds by them.
const (
	onLeft  = iota // the left input's row
	onRight        // the right input's row
	onPair         // the pair, lr ++ rr
)

// joinSchemas are the schemas of a join's left rows, right rows and pairs;
// the pair's is built the first time an expression names both sides.
type joinSchemas struct {
	j *plan.Join
	s [3][]expr.ColumnID
}

func newJoinSchemas(j *plan.Join) *joinSchemas {
	return &joinSchemas{j: j, s: [3][]expr.ColumnID{onLeft: j.L.Schema(), onRight: j.R.Schema()}}
}

func (sch *joinSchemas) of(side int) []expr.ColumnID {
	if side == onPair && sch.s[onPair] == nil {
		sch.s[onPair] = sch.j.Schema()
	}
	return sch.s[side]
}

// sided is an expression compiled against the rows of the side it names.
type sided struct {
	p    *expr.Program
	side int
}

// side names the rows e reads: the left input's when each of its columns is
// a qualified column of the left input, the right's when each is one of the
// right, the pair's otherwise — so an unqualified column resolves, or fails
// to, as it does over the join. qualified reports that every column of e is
// a qualified column of one input.
func (sch *joinSchemas) side(e expr.Expr) (side int, qualified bool) {
	left, right, other := false, false, false
	expr.Walk(e, func(n expr.Expr) bool {
		col, ok := n.(*expr.Column)
		switch {
		case !ok:
		case col.Table != "" && expr.Index(col, sch.s[onLeft]) >= 0:
			left = true
		case col.Table != "" && expr.Index(col, sch.s[onRight]) >= 0:
			right = true
		default:
			other = true
		}
		return !other
	})
	switch {
	case other || left && right:
		return onPair, !other
	case right:
		return onRight, true
	}
	return onLeft, true
}

// place compiles e against the rows of the side it names.
func (sch *joinSchemas) place(e expr.Expr) (sided, error) {
	side, _ := sch.side(e)
	p, err := expr.Compile(e, sch.of(side))
	return sided{p: p, side: side}, err
}

// joinKeys are one side's equi-join keys. When every key is a column, cols
// holds their row positions and a key is read in place; otherwise the keys
// are evaluated into key, a scratch row.
type joinKeys struct {
	progs []*expr.Program
	cols  []int
	key   value.Row
}

// newJoinKeys reads each side's keys in place when every key of the side is
// a column; one allocation holds both sides' columns.
func newJoinKeys(l, r []*expr.Program) (lk, rk joinKeys) {
	cols := make([]int, len(l)+len(r))
	keysOf := func(progs []*expr.Program, cols []int) joinKeys {
		for i, p := range progs {
			col, ok := p.Column()
			if !ok {
				return joinKeys{progs: progs, key: make(value.Row, len(progs))}
			}
			cols[i] = col
		}
		return joinKeys{progs: progs, cols: cols}
	}
	return keysOf(l, cols[:len(l)]), keysOf(r, cols[len(l):])
}

// hash reads row's key and hashes it as value.HashRow hashes the key's row.
// null reports a NULL part: the key matches nothing. A row too short for a
// key column fails as its program does, with the unbound-column error.
func (k *joinKeys) hash(row value.Row) (h uint64, null bool, err error) {
	if k.cols == nil {
		if null, err := evalKeyInto(k.key, k.progs, row); null || err != nil {
			return 0, null, err
		}
		return value.HashRow(k.key), false, nil
	}
	for i, col := range k.cols {
		if col >= len(row) {
			_, err := k.progs[i].Eval(row)
			return 0, false, err
		}
		if row[col].IsNull() {
			return 0, true, nil
		}
	}
	return value.HashRowAt(row, k.cols), false, nil
}

// at is part i of the key last read from row.
func (k *joinKeys) at(row value.Row, i int) value.Value {
	if k.cols != nil {
		return row[k.cols[i]]
	}
	return k.key[i]
}

func (c *joinCursor) Open() error {
	sch := newJoinSchemas(c.t)
	lKeys, rKeys, on, where, err := classifyJoinPred(c.t, c.folded, sch)
	if err != nil {
		return err
	}
	c.lKeys, c.rKeys = newJoinKeys(lKeys, rKeys)
	c.on, c.where = on, where
	if c.exprs != nil {
		c.outs = make([]sided, len(c.exprs))
		for i, e := range c.exprs {
			if c.outs[i], err = sch.place(e); err != nil {
				return err
			}
		}
	}
	if err := c.r.Open(); err != nil {
		return err
	}
	c.rRows, err = Drain(c.r) // build side blocks; drained and released here
	if err != nil {
		return err
	}
	if len(rKeys) > 0 {
		buckets, err := tableSize(len(c.rRows))
		if err != nil {
			return err
		}
		c.heads = make([]int32, buckets)
		c.next = make([]int32, len(c.rRows))
		c.hashes = make([]uint64, len(c.rRows))
		mask := uint64(buckets - 1)
		for i := len(c.rRows) - 1; i >= 0; i-- {
			h, null, err := c.rKeys.hash(c.rRows[i])
			if err != nil {
				return err
			}
			if null {
				continue // NULL keys never match: the row joins no chain
			}
			c.hashes[i] = h
			c.next[i] = c.heads[h&mask]
			c.heads[h&mask] = int32(i + 1)
		}
	}
	return c.l.Open()
}

// tableSize is the bucket count for a build side of n rows: the least power
// of two not below n. Rows are numbered in int32, so a longer build side is
// an error rather than a wrap.
func tableSize(n int) (int, error) {
	if n > math.MaxInt32 {
		return 0, fmt.Errorf("exec: join build side of %d rows exceeds %d", n, math.MaxInt32)
	}
	if n <= 1 {
		return 1, nil
	}
	return 1 << bits.Len(uint(n-1)), nil
}

// evalKeyInto evaluates the key expressions over row into dst, stopping at
// the first NULL (null = true: the key matches nothing).
func evalKeyInto(dst value.Row, keys []*expr.Program, row value.Row) (null bool, err error) {
	for i, k := range keys {
		v, err := k.Eval(row)
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

// sameKey reports whether build row rr's key equals the probe key last read
// from lr; their hashes are equal.
func (c *joinCursor) sameKey(lr, rr value.Row) (bool, error) {
	if c.rKeys.cols == nil {
		if _, err := evalKeyInto(c.rKeys.key, c.rKeys.progs, rr); err != nil {
			return false, err
		}
	}
	for i := range c.rKeys.progs {
		if !value.Equal(c.lKeys.at(lr, i), c.rKeys.at(rr, i)) {
			return false, nil
		}
	}
	return true, nil
}

// row is what an expression on side reads of the pair (lr, rr): the pair is
// written out the first time something names both sides.
func (c *joinCursor) row(side int, lr, rr value.Row) value.Row {
	switch side {
	case onLeft:
		return lr
	case onRight:
		return rr
	}
	if !c.paired {
		c.pair = append(append(c.pair[:0], lr...), rr...)
		c.paired = true
	}
	return c.pair
}

// holds tests conds on the pair in order under AND's three-valued rule, as
// their compiled conjunction would: the first FALSE rejects the pair, a NULL
// rejects it once the rest have run, and an error surfaces where the
// conjunction raises it.
func (c *joinCursor) holds(conds []sided, lr, rr value.Row) (bool, error) {
	unknown := false
	for _, s := range conds {
		v, err := s.p.Eval(c.row(s.side, lr, rr))
		switch {
		case err != nil:
			return false, err
		case v.IsNull():
			unknown = true
		case !v.Truth():
			return false, nil
		}
	}
	return !unknown, nil
}

// accept keeps the pair when it passes the ON's non-key conjuncts and then
// the folded filter's.
func (c *joinCursor) accept(lr, rr value.Row) error {
	c.paired = false
	if ok, err := c.holds(c.on, lr, rr); !ok || err != nil {
		return err
	}
	c.joined++
	if ok, err := c.holds(c.where, lr, rr); !ok || err != nil {
		return err
	}
	c.emit(lr, rr)
	return nil
}

// emit carves the pair's row out of the slab: lr ++ rr, or the output list.
// A full slab is replaced, never regrown (rows already handed out keep
// theirs), by one sized for the rows the batch still lacks, but for no more
// rows than the join holds — the left rows still to probe in this input
// batch and the build rows — since the batch setting may far exceed the
// answer; inside a long match chain, for as many rows as the batch holds;
// under reuse, for at least twice the old one, which it then stands in for
// at every later batch.
func (c *joinCursor) emit(lr, rr value.Row) {
	n, w := len(c.slab), len(lr)+len(rr)
	if c.outs != nil {
		w = len(c.outs)
	}
	if cap(c.slab)-n < w {
		held := len(c.buf) - c.idx + 1 + len(c.rRows)
		rows := max(min(c.ex.batch()-len(c.out), held), len(c.out))
		if c.reuse {
			rows = max(rows, 2*cap(c.slab)/w)
		}
		n, c.slab = 0, make([]value.Value, 0, w*rows)
	}
	if c.outs == nil {
		c.slab = append(append(c.slab, lr...), rr...)
	}
	for _, s := range c.outs {
		row := c.row(s.side, lr, rr)
		if col, ok := s.p.Column(); ok && col < len(row) {
			c.slab = append(c.slab, row[col])
			continue
		}
		v, err := s.p.Eval(row)
		if err != nil && c.outErr == nil {
			c.outErr = err
		}
		c.slab = append(c.slab, v)
	}
	c.out = append(c.out, c.slab[n:n+w:n+w])
}

func (c *joinCursor) Next() ([]value.Row, error) {
	if c.done || c.closed {
		return nil, nil
	}
	limit := c.ex.batch()
	c.out = c.out[:0]
	if c.reuse {
		c.slab = c.slab[:0] // the parent is done with the last batch
	}
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
				if err := c.accept(lr, rr); err != nil {
					return nil, err
				}
			}
			continue
		}
		h, null, err := c.lKeys.hash(lr)
		if err != nil {
			return nil, err
		}
		if null {
			continue
		}
		for e := c.heads[h&uint64(len(c.heads)-1)]; e != 0; e = c.next[e-1] {
			if c.hashes[e-1] != h {
				continue
			}
			rr := c.rRows[e-1]
			if same, err := c.sameKey(lr, rr); !same || err != nil {
				if err != nil {
					return nil, err
				}
				continue
			}
			if err := c.accept(lr, rr); err != nil {
				return nil, err
			}
		}
	}
	if c.outErr != nil {
		return nil, c.outErr
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

// sortCursor must see every input row before emitting the first, and keeps
// them all: the input is drained (and closed) on the first Next and the
// sorted rows re-emitted in bounded batches.
type sortCursor struct {
	ex     *Executor
	t      *plan.Sort
	in     Cursor
	res    *Rows
	closed bool
}

func (c *sortCursor) Open() error { return c.in.Open() }

func (c *sortCursor) Next() ([]value.Row, error) {
	if c.closed {
		return nil, nil
	}
	if c.res == nil {
		rows, err := Drain(c.in)
		if err != nil {
			return nil, err
		}
		out, err := sortRows(c.t, rows)
		if err != nil {
			return nil, err
		}
		c.res = NewRows(nil, out, c.ex.batch())
	}
	return c.res.Next()
}

func (c *sortCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.in.Close()
}

// Rows serves an already materialized answer in bounded batches. It is both
// a Cursor (Open is a no-op) and a RowStream (Cols is the declared schema,
// empty when unknown): sort and aggregate re-emit their output through it,
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

// distinctCursor streams rows through a first-seen filter, keeping each
// row's first occurrence in input order.
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
// Open/Next/Close (inclusive of children, whose work a parent's pull runs),
// rows produced, and rows consumed (the sum of its children's rows-out,
// final by the time the children's own recorders have closed).
type statsCursor struct {
	inner     Cursor
	stats     *RunStats
	node      plan.Node
	rowsOutAt *int64 // when set, the rows out are read here at Close, not counted off the batches
	elapsed   time.Duration
	rowsOut   int64
	recorded  bool
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
	out := c.rowsOut
	if c.rowsOutAt != nil {
		out = *c.rowsOutAt
	}
	c.stats.record(c.node, in, out, c.elapsed)
	return err
}
