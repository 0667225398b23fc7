package core

import (
	"sync"
	"time"

	"qtrade/internal/exec"
	"qtrade/internal/expr"
	"qtrade/internal/obs"
	"qtrade/internal/plan"
	"qtrade/internal/trading"
	"qtrade/internal/value"
)

// This file is the buyer's side of delivery. The chunked-fetch protocol is
// trading.Fetch; remoteStream adds what is the buyer's: every exchange goes
// through the execution's sellers handle (the negotiation's fault policy, the
// failure attribution that drives standing-offer substitution), is recorded as
// a fetch span with the seller's subtree grafted under it, the answer is read
// ahead of the executor on the leaf's own goroutine, and the delivery lands in
// the ledger once. It is the only way rows reach the buyer: a caller that
// wants the whole answer drains the same stream (ExecuteResult).

// remoteStream is one purchased answer being fetched. It is the exec.RowStream
// the executor's Remote cursor pulls and closes. Its read-ahead goroutine
// (readAhead) owns the Fetch until it exits; the executor takes batches from
// the FIFO between them, so each leaf's batches and its error reach the
// executor in the seller's order.
type remoteStream struct {
	trading.Fetch
	run     *streamHandle // the execution this fetch belongs to
	nodeID  string
	sql     string
	offerID string
	window  int64 // batches read ahead or in flight beyond what the executor took
	logged  bool  // the ledger's fetch event is written

	mu      sync.Mutex
	moved   sync.Cond // the read-ahead or the executor moved
	opened  bool      // the opening reply (or its failure) is in
	openErr error     // the opening fetch's failure
	ahead   []fetched // read and not yet taken: ahead[head:]
	head    int
	inline  [2]fetched // ahead's first array: a one-batch answer and its end
	err     error      // the read-ahead's failure, opening or continuation
	stop    bool       // Close asked the read-ahead to stop
	exited  bool       // readAhead returned: the Fetch is the caller's again
}

// fetched is one batch read ahead, or the end of the answer: an empty batch
// or an error.
type fetched struct {
	rows []value.Row
	err  error
}

// readAhead is the leaf's goroutine. It issues the opening fetch (Stream set,
// so the reply is the first batch plus a continuation token when more
// remains) and then keeps pulling continuations while the executor has fewer
// than window batches of this leaf read or in flight, so the seller computes
// its next batch while the buyer works on the last. It stops at the end of
// the answer, at a failure, or when Close asks it to.
func (s *remoteStream) readAhead(batch int) {
	req := trading.ExecReq{SQL: s.sql, OfferID: s.offerID, Stream: true, BatchRows: batch}
	err := s.Open(s.exchange, req, 0)
	s.mu.Lock()
	s.opened, s.openErr, s.err = true, err, err
	for err == nil {
		for !s.stop && int64(len(s.ahead)-s.head) >= s.window {
			s.moved.Wait()
		}
		if s.stop {
			break
		}
		s.mu.Unlock()
		var b []value.Row
		b, err = s.Fetch.Next()
		s.mu.Lock()
		s.ahead = append(s.ahead, fetched{rows: b, err: err})
		s.moved.Broadcast()
		if err != nil {
			s.err = err
		}
		if len(b) == 0 {
			break
		}
	}
	s.exited = true
	s.moved.Broadcast()
	s.mu.Unlock()
}

// opening waits for the leaf's opening reply and returns its failure.
func (s *remoteStream) opening() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.opened {
		s.moved.Wait()
	}
	return s.openErr
}

// exchange is the call the fetch makes for each round trip. An opening fetch
// or a continuation is recorded as a span: a traced run stamps its context on
// the request and grafts the seller's subtree under it. A cursor release is
// best effort and leaves no trace.
func (s *remoteStream) exchange(req trading.ExecReq) (trading.ExecResp, error) {
	if req.CloseCursor {
		return s.run.to.fetch(s.nodeID, req)
	}
	name := "fetch "
	if req.Cursor != "" {
		name = "fetch-batch "
	}
	fs := s.run.root.Child(name + s.nodeID)
	if s.run.traced() {
		req.Trace = s.run.res.TraceCtx.Under(fs.ID())
	}
	sentAt := time.Now()
	resp, err := s.run.to.fetch(s.nodeID, req)
	if err != nil {
		fs.Set("error", err)
	} else {
		fs.Graft(resp.Trace, sentAt, time.Now())
		if req.Cursor != "" && fs != nil { // an attribute boxes its value
			fs.Set("rows", len(resp.Rows))
		}
	}
	fs.End()
	return resp, err
}

// Next takes the leaf's next batch in the seller's order, waiting for the
// read-ahead when it has none in hand; nil once the answer is exhausted,
// failed or closed.
func (s *remoteStream) Next() ([]value.Row, error) {
	s.mu.Lock()
	for s.head == len(s.ahead) && !s.exited {
		s.moved.Wait()
	}
	if s.head == len(s.ahead) {
		s.mu.Unlock()
		return nil, nil
	}
	f := s.ahead[s.head]
	s.ahead[s.head] = fetched{}
	if s.head++; s.head == len(s.ahead) {
		s.ahead, s.head = s.ahead[:0], 0 // drained: the FIFO's array is reused
	}
	s.moved.Broadcast()
	s.mu.Unlock()
	if f.err != nil || len(f.rows) == 0 {
		s.finish(f.err)
	}
	return f.rows, f.err
}

// Close stops the read-ahead, waits for its in-flight exchange, and then
// releases the seller's cursor if the answer is unfinished. It is idempotent.
func (s *remoteStream) Close() error {
	s.mu.Lock()
	s.stop = true
	s.moved.Broadcast()
	for !s.exited {
		s.moved.Wait()
	}
	s.ahead, s.head = nil, 0
	s.mu.Unlock()
	s.Fetch.Close()
	s.finish(s.err)
	return nil
}

// finish records the fetch's single ledger event — one per leaf, with the
// actuals accumulated across every batch, next to the cost the offer quoted —
// and its wall time in fetch_ms.
func (s *remoteStream) finish(err error) {
	if s.logged {
		return
	}
	s.logged = true
	s.run.res.fetchMS.Observe(s.WallMS)
	rec, quoted := s.run.res.LedgerRec, s.run.res.quotedMS(s.offerID)
	if err != nil {
		rec.Fetch(s.nodeID, s.offerID, s.sql, quoted, s.WallMS, 0, 0, 0, err.Error())
		return
	}
	rec.Fetch(s.nodeID, s.offerID, s.sql, quoted, s.WallMS, s.ExecMS, s.Rows, s.Bytes, "")
}

// quotedMS is the total time the purchased offer quoted: the fetch actuals
// are tied back to the quote they answered. The pool covers a recovery
// substitute spliced in after the award.
func (r *Result) quotedMS(offerID string) float64 {
	for _, offers := range [][]trading.Offer{r.Candidate.Offers, r.Pool} {
		for i := range offers {
			if offers[i].OfferID == offerID {
				return offers[i].Props.TotalTime
			}
		}
	}
	return 0
}

// prefetchStreams starts every remote leaf at once, one goroutine per leaf
// that opens it and reads its answer ahead (remoteStream.readAhead), so the
// sellers all start executing, and keep executing, while the executor's
// sequential walk consumes the streams on demand. A leaf reads at most
// ⌈EstRows / batch⌉ batches (at least one) ahead of the executor: the window
// covers the answer that was bought, and nothing is allocated from the quote
// up front. Streams are keyed by (seller, SQL, offer) and queued FIFO, so a
// plan that buys the same offer twice still performs (and accounts) one fetch
// per leaf, and every walk step waits for, and surfaces exactly the error of,
// its own leaf's open. The returned StreamFunc is only called from the
// executor's single goroutine, so the queue map needs no lock. The returned
// release func closes every leaf — an idempotent Close for those the walk
// took and closed — so no read-ahead outlives the execution and no seller is
// left holding a cursor for a leaf the walk never reached (a failure
// elsewhere in the plan).
func prefetchStreams(h *streamHandle, remotes []*plan.Remote, batch int) (exec.StreamFunc, func()) {
	streams := make([]*remoteStream, 0, len(remotes))
	start := func(nodeID, sql, offerID string, estRows int64) *remoteStream {
		s := &remoteStream{run: h, nodeID: nodeID, sql: sql, offerID: offerID,
			window: max(1, estRows/int64(batch))}
		if estRows > s.window*int64(batch) {
			s.window++
		}
		s.moved.L, s.ahead = &s.mu, s.inline[:0]
		streams = append(streams, s)
		go s.readAhead(batch)
		return s
	}
	queues := make(map[string][]*remoteStream, len(remotes))
	for _, r := range remotes {
		k := r.NodeID + "\x00" + r.SQL + "\x00" + r.OfferID
		queues[k] = append(queues[k], start(r.NodeID, r.SQL, r.OfferID, r.EstRows))
	}
	fn := func(nodeID, sql, offerID string) (exec.RowStream, error) {
		k := nodeID + "\x00" + sql + "\x00" + offerID
		q := queues[k]
		if len(q) == 0 {
			// A leaf the pre-walk did not see (defensive): start it now.
			q = []*remoteStream{start(nodeID, sql, offerID, 0)}
		}
		queues[k] = q[1:]
		if err := q[0].opening(); err != nil {
			q[0].finish(err)
			return nil, err
		}
		return q[0], nil
	}
	release := func() {
		for _, s := range streams {
			s.Close()
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
	h, err := openResult(reach(comm, res), localExec, res, root)
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
func openResult(to *sellers, localExec *exec.Executor, res *Result, root *obs.Span) (*streamHandle, error) {
	h := &streamHandle{to: to, res: res, root: root}
	ex, cleanup := buildPlanExecutor(h, localExec)
	h.cleanup, h.st = cleanup, ex.Stats
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

// streamHandle is one execution of a Result's plan: what its remote fetches
// share — the sellers handle, the negotiation's Result (trace context, ledger
// record, quotes) and the run's root span — and the finalizer every execution
// ends in. At Close leftover prefetched streams are released, the ledger's
// execute record is completed with the rows actually pulled, execute_ms
// keeps the execution's wall time, and the flight
// dossier (if a recorder is on) is assembled from whatever the cursor's
// consumer pulled. The execute span is the caller's to end unless endRoot is
// set.
type streamHandle struct {
	to      *sellers
	res     *Result
	root    *obs.Span   // nil untraced
	cur     exec.Cursor // nil when the open failed
	cleanup func()
	endRoot bool
	t0      time.Time
	st      *exec.RunStats
	rows    int64
	err     error
	closed  bool
}

// traced reports whether the run's fetches carry the negotiation's trace
// context: the negotiation was sampled and this execution is being recorded.
func (h *streamHandle) traced() bool { return h.root != nil && h.res.TraceCtx.Sampled }

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
	wall := ms(time.Since(h.t0))
	msg := ""
	if h.err != nil {
		msg = h.err.Error()
	}
	h.res.LedgerRec.ExecFinished(wall, h.rows, msg)
	h.res.executeMS.Observe(wall)
	if h.endRoot {
		h.root.End()
	}
	finalizeFlight(h.res, h.root, h.st, wall, h.rows, h.err)
	return err
}
