package core

import (
	"sync"
	"sync/atomic"
	"time"

	"qtrade/internal/exec"
	"qtrade/internal/expr"
	"qtrade/internal/ledger"
	"qtrade/internal/obs"
	"qtrade/internal/plan"
	"qtrade/internal/trading"
	"qtrade/internal/value"
)

// This file is the buyer side of the chunked fetch protocol: remoteStream
// pulls one purchased answer batch by batch over the Comm the rest of the
// negotiation uses, so every batch request rides the same fault guards
// (per-call timeout, retry, breaker — retries are safe because continuation
// is idempotent per Seq), the same failure attribution that drives
// standing-offer substitution recovery, and the same trace plumbing as the
// negotiation. It is the only way rows reach the buyer: a caller that wants
// the whole answer drains the same stream (ExecuteResult), and an answer that
// fits the opening batch costs exactly one exchange.

// remoteStream is one open streamed fetch. It implements exec.RowStream; the
// executor's Remote cursor pulls it and closes it (closing early sends the
// seller a cursor release instead of draining the answer).
type remoteStream struct {
	comm    Comm
	nodeID  string
	sql     string
	offerID string

	root   *obs.Span
	traced bool
	tctx   obs.TraceContext
	rec    *ledger.Rec
	quoted float64

	cols      []expr.ColumnID
	first     []value.Row
	delivered bool
	cursor    string
	seq       int64

	execMS   float64 // seller-reported cumulative execution ms (last batch wins)
	wall     float64 // buyer-side wall ms across every exchange
	rows     int64
	bytes    int64
	done     bool
	closed   bool
	recorded bool
}

// openRemoteStream issues the opening fetch (Stream set, first batch plus a
// continuation token when more remains) and wraps the reply as a RowStream.
func openRemoteStream(comm Comm, nodeID, sql, offerID string, batch int,
	root *obs.Span, traced bool, tctx obs.TraceContext, rec *ledger.Rec, quoted float64) (exec.RowStream, error) {

	s := &remoteStream{
		comm: comm, nodeID: nodeID, sql: sql, offerID: offerID,
		root: root, traced: traced, tctx: tctx, rec: rec, quoted: quoted,
	}
	fs := root.Child("fetch " + nodeID)
	req := trading.ExecReq{SQL: sql, OfferID: offerID, Stream: true, BatchRows: batch}
	if traced {
		req.Trace = tctx
		req.Trace.Parent = fs.ID()
	}
	sentAt := time.Now()
	resp, err := comm.Fetch(nodeID, req)
	s.wall = float64(time.Since(sentAt).Microseconds()) / 1000
	if err != nil {
		fs.Set("error", err)
		fs.End()
		s.finish(err)
		return nil, err
	}
	fs.Graft(resp.Trace, sentAt, time.Now())
	fs.End()
	s.cols = make([]expr.ColumnID, len(resp.Cols))
	for i, c := range resp.Cols {
		s.cols[i] = expr.ColumnID{Table: c.Table, Name: c.Name}
	}
	s.first = resp.Rows
	s.execMS = resp.ExecMS
	s.rows = int64(len(resp.Rows))
	s.bytes = int64(resp.WireSize())
	if resp.More {
		s.cursor = resp.Cursor
	}
	return s, nil
}

func (s *remoteStream) Cols() []expr.ColumnID { return s.cols }

func (s *remoteStream) Next() ([]value.Row, error) {
	if s.done || s.closed {
		return nil, nil
	}
	if !s.delivered {
		s.delivered = true
		if len(s.first) > 0 {
			b := s.first
			s.first = nil
			if s.cursor == "" {
				s.done = true
				s.finish(nil)
			}
			return b, nil
		}
	}
	if s.cursor == "" {
		s.done = true
		s.finish(nil)
		return nil, nil
	}
	fs := s.root.Child("fetch-batch " + s.nodeID)
	req := trading.ExecReq{OfferID: s.offerID, Cursor: s.cursor, Seq: s.seq + 1}
	if s.traced {
		req.Trace = s.tctx
		req.Trace.Parent = fs.ID()
	}
	sentAt := time.Now()
	resp, err := s.comm.Fetch(s.nodeID, req)
	s.wall += float64(time.Since(sentAt).Microseconds()) / 1000
	if err != nil {
		fs.Set("error", err)
		fs.End()
		s.done = true
		s.finish(err)
		return nil, err
	}
	fs.Set("rows", len(resp.Rows))
	fs.Graft(resp.Trace, sentAt, time.Now())
	fs.End()
	s.seq++
	s.execMS = resp.ExecMS // cumulative on the seller side: last batch is the total
	s.rows += int64(len(resp.Rows))
	s.bytes += int64(resp.WireSize())
	if resp.More {
		s.cursor = resp.Cursor
	} else {
		s.cursor = ""
	}
	if len(resp.Rows) == 0 {
		s.done = true
		s.finish(nil)
		return nil, nil
	}
	return resp.Rows, nil
}

// Close releases the stream. Abandoning an unfinished stream (LIMIT
// satisfied, a sibling leaf failed) sends the seller a best-effort cursor
// release so its parked execution is reclaimed immediately instead of
// waiting for eviction.
func (s *remoteStream) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if !s.done && s.cursor != "" {
		req := trading.ExecReq{OfferID: s.offerID, Cursor: s.cursor, CloseCursor: true}
		_, _ = s.comm.Fetch(s.nodeID, req)
		s.cursor = ""
	}
	s.finish(nil)
	return nil
}

// finish records the stream's single ledger fetch event — one per leaf, with
// actuals accumulated across every batch.
func (s *remoteStream) finish(err error) {
	if s.recorded {
		return
	}
	s.recorded = true
	if s.rec == nil {
		return
	}
	if err != nil {
		s.rec.Fetch(s.nodeID, s.offerID, s.sql, s.quoted, s.wall, 0, 0, 0, err.Error())
		return
	}
	s.rec.Fetch(s.nodeID, s.offerID, s.sql, s.quoted, s.wall, s.execMS, s.rows, s.bytes, "")
}

// prefetchStreams opens every remote leaf's stream concurrently — at most
// `workers` opens in flight (0 = one per leaf) — so the sellers all start
// executing and their first batches ship in parallel; the executor's
// sequential walk then consumes the streams on demand. Streams are keyed by
// (seller, SQL, offer) and queued FIFO, so a plan that buys the same offer
// twice still performs (and accounts) one fetch per leaf, and every walk step
// surfaces exactly the error of its own leaf's open — message accounting and
// error attribution are those of the serial walk. The returned StreamFunc is
// only called from the executor's single goroutine, so the queue map needs no
// lock. The returned release func closes streams the walk never took (a
// failure elsewhere in the plan): their sellers' parked cursors are freed
// instead of leaking until eviction.
func prefetchStreams(remotes []*plan.Remote, workers int,
	openOne func(nodeID, sql, offerID string) (exec.RowStream, error)) (exec.StreamFunc, func()) {

	type opened struct {
		st    exec.RowStream
		err   error
		taken bool
	}
	results := make([]opened, len(remotes))
	if workers <= 0 || workers > len(remotes) {
		workers = len(remotes)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(remotes) {
					return
				}
				r := remotes[i]
				st, err := openOne(r.NodeID, r.SQL, r.OfferID)
				results[i] = opened{st: st, err: err}
			}
		}()
	}
	wg.Wait()

	queues := make(map[string][]*opened, len(remotes))
	for i, r := range remotes {
		k := r.NodeID + "\x00" + r.SQL + "\x00" + r.OfferID
		queues[k] = append(queues[k], &results[i])
	}
	fn := func(nodeID, sql, offerID string) (exec.RowStream, error) {
		k := nodeID + "\x00" + sql + "\x00" + offerID
		q := queues[k]
		if len(q) == 0 {
			// A leaf the pre-walk did not see (defensive): open it directly.
			return openOne(nodeID, sql, offerID)
		}
		queues[k] = q[1:]
		q[0].taken = true
		return q[0].st, q[0].err
	}
	release := func() {
		for i := range results {
			if o := &results[i]; !o.taken && o.st != nil {
				o.st.Close()
			}
		}
	}
	return fn, release
}

// ExecuteResultStream opens the winning plan as a pulled cursor instead of
// materializing the answer: the first batch is available as soon as the
// pipeline produces it, regardless of how many rows follow. The returned
// schema is the plan's output columns. The caller owns the cursor and must
// Close it; closing before exhaustion releases every seller-side cursor the
// plan opened (and records the partial actuals in the trading ledger), so an
// abandoned result does not leak parked executions. A nil tracer is
// untraced, like ExecuteResult.
func ExecuteResultStream(comm Comm, localExec *exec.Executor, res *Result, tr *obs.Tracer) (exec.Cursor, []expr.ColumnID, error) {
	var root *obs.Span
	if tr != nil {
		root = tr.Start(res.BuyerID, "execute")
		root.Set("sql", res.SQL)
	}
	h, err := openResult(comm, localExec, res, root)
	if err != nil {
		root.End()
		return nil, nil, err
	}
	h.endRoot = true
	return h, res.Candidate.Root.Schema(), nil
}

// openResult opens the winning plan with every remote fetch recorded as a
// child of root (nil root = untraced, no context stamped on the wire). Every
// execution of a plan — streamed to the caller, drained by ExecuteResult, a
// recovery re-run — goes through here and is finalized by the handle's Close,
// including an open that fails.
func openResult(comm Comm, localExec *exec.Executor, res *Result, root *obs.Span) (*streamHandle, error) {
	ex, cleanup := buildPlanExecutor(comm, localExec, res, root)
	h := &streamHandle{cleanup: cleanup, root: root, res: res, st: ex.Stats}
	res.LedgerRec.ExecStarted()
	h.t0 = time.Now()
	cur, err := ex.Open(res.Candidate.Root)
	if err != nil {
		h.err = err
		h.Close()
		return nil, err
	}
	h.cur = cur
	return h, nil
}

// streamHandle finalizes an execution at Close: leftover prefetched streams
// are released, the ledger's execute record is completed with the rows
// actually pulled, and the flight dossier (if a recorder is on) is assembled
// from whatever the cursor's consumer pulled. The execute span is the
// caller's to end unless endRoot is set.
type streamHandle struct {
	cur     exec.Cursor // nil when the open failed
	cleanup func()
	root    *obs.Span
	endRoot bool
	t0      time.Time
	res     *Result
	st      *exec.RunStats
	rows    int64
	err     error
	closed  bool
}

func (h *streamHandle) Open() error { return nil } // opened by openResult

func (h *streamHandle) Next() ([]value.Row, error) {
	if h.closed {
		return nil, nil
	}
	b, err := h.cur.Next()
	if err != nil {
		h.err = err
		return nil, err
	}
	h.rows += int64(len(b))
	return b, nil
}

func (h *streamHandle) Close() error {
	if h.closed {
		return nil
	}
	h.closed = true
	var err error
	if h.cur != nil {
		err = h.cur.Close()
	}
	h.cleanup()
	wall := float64(time.Since(h.t0).Microseconds()) / 1000
	if rec := h.res.LedgerRec; rec != nil {
		msg := ""
		if h.err != nil {
			msg = h.err.Error()
		}
		rec.ExecFinished(wall, h.rows, msg)
	}
	if h.endRoot {
		h.root.End()
	}
	finalizeFlight(h.res, h.root, h.st, wall, h.rows, h.err)
	return err
}
