package core

import (
	"sync"
	"sync/atomic"
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
// a fetch span with the seller's subtree grafted under it, and the delivery
// lands in the ledger once. It is the only way rows reach the buyer: a caller
// that wants the whole answer drains the same stream (ExecuteResult).

// remoteStream is one purchased answer being fetched. It is the exec.RowStream
// the executor's Remote cursor pulls and closes.
type remoteStream struct {
	trading.Fetch
	run     *streamHandle // the execution this fetch belongs to
	nodeID  string
	sql     string
	offerID string
	logged  bool // the ledger's fetch event is written
}

// openRemoteStream issues the opening fetch: Stream set, so the reply is the
// first batch plus a continuation token when more remains.
func openRemoteStream(run *streamHandle, nodeID, sql, offerID string, batch int) (exec.RowStream, error) {
	s := &remoteStream{run: run, nodeID: nodeID, sql: sql, offerID: offerID}
	req := trading.ExecReq{SQL: sql, OfferID: offerID, Stream: true, BatchRows: batch}
	if err := s.Open(s.exchange, req, 0); err != nil {
		s.finish(err)
		return nil, err
	}
	return s, nil
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
		req.Trace = s.run.res.TraceCtx
		req.Trace.Parent = fs.ID()
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

func (s *remoteStream) Next() ([]value.Row, error) {
	b, err := s.Fetch.Next()
	if err != nil || len(b) == 0 {
		s.finish(err)
	}
	return b, err
}

func (s *remoteStream) Close() error {
	s.Fetch.Close()
	s.finish(nil)
	return nil
}

// finish records the fetch's single ledger event — one per leaf, with the
// actuals accumulated across every batch, next to the cost the offer quoted.
func (s *remoteStream) finish(err error) {
	if s.logged {
		return
	}
	s.logged = true
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
// execute record is completed with the rows actually pulled, and the flight
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
	if h.endRoot {
		h.root.End()
	}
	finalizeFlight(h.res, h.root, h.st, wall, h.rows, h.err)
	return err
}
