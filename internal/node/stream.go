package node

import (
	"fmt"
	"sync"
	"time"

	"qtrade/internal/exec"
	"qtrade/internal/localopt"
	"qtrade/internal/obs"
	"qtrade/internal/plan"
	"qtrade/internal/sqlparse"
	"qtrade/internal/trading"
	"qtrade/internal/value"
)

// This file is the seller side of the chunked fetch protocol. An ExecReq
// with Stream set opens the purchased query as a cursor pipeline and ships
// the first batch; when more remains, the cursor is parked in a bounded
// registry under a continuation token and the buyer pulls the rest batch by
// batch (ExecReq.Cursor/Seq), closes early (CloseCursor), or abandons it —
// in which case eviction reclaims the seller-side state. Continuations are
// idempotent per Seq so the buyer's fault policy can retry a lost batch
// without skipping rows, and the ledger's Served event fires once per
// streamed answer, on completion, with totals accumulated across batches.

// maxOpenCursors bounds the per-node registry of parked streamed
// executions. Hitting the bound evicts the least recently pulled cursor: an
// abandoned buyer must not pin seller memory, a buyer that keeps pulling is
// not the one to pay for it, and an evicted buyer's next continuation fails
// loudly, pushing it into the usual recovery path.
const maxOpenCursors = 64

// serverCursor is one streamed execution parked between batch pulls.
type serverCursor struct {
	id      string
	offerID string
	sql     string

	mu       sync.Mutex
	cur      exec.Cursor
	pending  []value.Row      // lookahead batch (owned copy), decides More
	seq      int64            // seq of the batch most recently delivered
	last     trading.ExecResp // that batch, re-delivered on a retried seq
	rows     int64            // cumulative rows shipped
	bytes    int64            // cumulative wire bytes shipped
	wall     float64          // cumulative execution+delivery wall ms
	finished bool             // completed, closed, or evicted
}

// executePurchased evaluates a purchased query through the one cursor
// pipeline openExecCursor builds. A plain request gets the whole answer: the
// cursor is drained. A Stream request gets the first batch; when batches
// remain, the returned serverCursor is non-nil and the caller (Execute)
// registers it after finalizing the response; a result that fits in one
// batch costs zero extra round trips and parks nothing.
func (n *Node) executePurchased(req trading.ExecReq, sp *obs.Span) (trading.ExecResp, *serverCursor, error) {
	cur, cols, err := n.openExecCursor(req, sp)
	if err != nil {
		return trading.ExecResp{}, nil, err
	}
	if !req.Stream {
		rows, err := exec.Drain(cur)
		if err != nil {
			return trading.ExecResp{}, nil, fmt.Errorf("node %s: %w", n.cfg.ID, err)
		}
		return trading.ExecResp{Cols: cols, Rows: rows}, nil, nil
	}
	first, err := cur.Next()
	if err != nil {
		cur.Close()
		return trading.ExecResp{}, nil, fmt.Errorf("node %s: %w", n.cfg.ID, err)
	}
	resp := trading.ExecResp{Cols: cols, Rows: append([]value.Row(nil), first...)}
	// One batch of lookahead decides More without an extra round trip; it is
	// copied out because cursor batches are only valid until the next pull.
	pending, err := cur.Next()
	if err != nil {
		cur.Close()
		return trading.ExecResp{}, nil, fmt.Errorf("node %s: %w", n.cfg.ID, err)
	}
	if len(pending) == 0 {
		return resp, nil, cur.Close()
	}
	sc := &serverCursor{
		id:      fmt.Sprintf("%s.c%d", n.cfg.ID, n.curSeq.Add(1)),
		offerID: req.OfferID,
		sql:     req.SQL,
		cur:     cur,
		pending: append([]value.Row(nil), pending...),
	}
	resp.Cursor, resp.More = sc.id, true
	return resp, sc, nil
}

// openExecCursor is the one place a purchased ExecReq is parsed and planned:
// it builds and opens the cursor pipeline at the request's batch size (the
// default when unset). Unions and subcontract assemblies have no streaming
// pipeline — they materialize, and only the transfer is chunked.
func (n *Node) openExecCursor(req trading.ExecReq, sp *obs.Span) (exec.Cursor, []trading.ColSpec, error) {
	if req.OfferID != "" {
		n.mu.Lock()
		sub := n.subcontracts[req.OfferID]
		n.mu.Unlock()
		if sub != nil {
			resp, err := n.executeSubcontract(sub, sp, req.Trace)
			if err != nil {
				return nil, nil, err
			}
			return exec.NewRows(nil, resp.Rows, req.BatchRows), resp.Cols, nil
		}
	}
	stmt, err := sqlparse.Parse(req.SQL)
	if err != nil {
		return nil, nil, fmt.Errorf("node %s: %w", n.cfg.ID, err)
	}
	if u, ok := stmt.(*sqlparse.Union); ok {
		resp, err := n.executeUnion(u)
		if err != nil {
			return nil, nil, err
		}
		return exec.NewRows(nil, resp.Rows, req.BatchRows), resp.Cols, nil
	}
	sel := stmt.(*sqlparse.Select)
	plan.Qualify(sel, n.cfg.Schema)
	var root plan.Node
	if len(sel.From) == 1 && n.store.View(sel.From[0].Name) != nil {
		root, err = n.viewPlan(sel)
	} else {
		var res *localopt.Result
		res, err = localopt.Optimize(sel, n.cfg.Schema, n.store, n.cfg.Cost)
		if err == nil {
			root = res.Best.Plan
		}
	}
	if err != nil {
		return nil, nil, fmt.Errorf("node %s: %w", n.cfg.ID, err)
	}
	specs, err := OutputSpecs(sel, n.cfg.Schema, n.store)
	if err != nil {
		// Fall back to the planned schema with unknown kinds.
		sch := root.Schema()
		specs = make([]trading.ColSpec, len(sch))
		for i, c := range sch {
			specs[i] = trading.ColSpec{Table: c.Table, Name: c.Name}
		}
	}
	ex := &exec.Executor{Store: n.store, BatchSize: req.BatchRows}
	cur, err := ex.Open(root)
	if err != nil {
		return nil, nil, fmt.Errorf("node %s: %w", n.cfg.ID, err)
	}
	return cur, specs, nil
}

// continueStream serves one continuation (or close) of a parked streamed
// execution. Lifecycle gating already happened in Execute: a Left node never
// reaches here, a draining node keeps delivering.
func (n *Node) continueStream(req trading.ExecReq) (trading.ExecResp, error) {
	n.active.Add(1)
	defer n.active.Add(-1)
	n.curMu.Lock()
	sc := n.cursors[req.Cursor]
	n.curMu.Unlock()
	if sc == nil {
		return trading.ExecResp{}, fmt.Errorf("node %s: unknown cursor %s", n.cfg.ID, req.Cursor)
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.finished {
		return trading.ExecResp{}, fmt.Errorf("node %s: cursor %s already closed", n.cfg.ID, req.Cursor)
	}
	if req.CloseCursor {
		// Early close: the buyer has what it needs (LIMIT satisfied, or the
		// plan failed elsewhere). The partial delivery is still recorded.
		n.finishCursor(sc, true)
		return trading.ExecResp{}, nil
	}
	switch {
	case req.Seq == sc.seq:
		// The buyer never saw the batch already pulled for this seq (a
		// retried delivery under the fault policy): re-deliver, don't
		// advance.
		return sc.last, nil
	case req.Seq != sc.seq+1:
		n.finishCursor(sc, false)
		return trading.ExecResp{}, fmt.Errorf("node %s: cursor %s out of sync (at %d, asked %d)",
			n.cfg.ID, req.Cursor, sc.seq, req.Seq)
	}
	var sp *obs.Span // continuations are recorded for sampled requests only
	if req.Trace.Sampled {
		sp = obs.NewTracer().Start(n.cfg.ID, "fetch-batch")
		sp.Set("cursor", sc.id)
		sp.Set("seq", req.Seq)
	}
	t0 := time.Now()
	rows := sc.pending
	next, err := sc.cur.Next()
	if err != nil {
		n.finishCursor(sc, false)
		sp.End()
		return trading.ExecResp{}, fmt.Errorf("node %s: %w", n.cfg.ID, err)
	}
	resp := trading.ExecResp{Rows: rows}
	if len(next) > 0 {
		sc.pending = append([]value.Row(nil), next...)
		resp.Cursor, resp.More = sc.id, true
	} else {
		sc.pending = nil
	}
	sc.wall += msSince(t0)
	// Cumulative wall time: the final batch carries the total cost of the
	// streamed answer, which is what the buyer's ledger records as the
	// actual behind the seller's quote.
	resp.ExecMS = sc.wall
	sc.rows += int64(len(rows))
	sc.bytes += int64(resp.WireSize())
	sp.Set("rows", len(rows))
	sp.End()
	resp.Trace = sp.Payload()
	sc.seq = req.Seq
	sc.last = resp
	if resp.More {
		n.touchCursor(sc)
	} else {
		n.finishCursor(sc, true)
	}
	return resp, nil
}

// touchCursor marks a parked execution as just pulled: it moves to the back
// of the eviction order. A cursor evicted while this pull was running stays
// evicted.
func (n *Node) touchCursor(sc *serverCursor) {
	n.curMu.Lock()
	defer n.curMu.Unlock()
	if n.cursors[sc.id] == sc {
		n.dropFromOrder(sc.id)
		n.curOrder = append(n.curOrder, sc.id)
	}
}

// dropFromOrder removes id from the eviction order. Callers hold curMu.
func (n *Node) dropFromOrder(id string) {
	for i, o := range n.curOrder {
		if o == id {
			n.curOrder = append(n.curOrder[:i], n.curOrder[i+1:]...)
			return
		}
	}
}

// finishCursor closes a parked execution and unregisters it. Callers hold
// sc.mu. When served is true the completed (possibly partial) delivery lands
// in the seller's ledger next to its pricing events.
func (n *Node) finishCursor(sc *serverCursor, served bool) {
	if sc.finished {
		return
	}
	sc.finished = true
	sc.cur.Close()
	n.curMu.Lock()
	delete(n.cursors, sc.id)
	n.dropFromOrder(sc.id)
	n.curMu.Unlock()
	if served && sc.offerID != "" {
		n.obsv.Load().ledger.Served(rfbOfOffer(sc.offerID), n.cfg.ID, sc.offerID, sc.sql,
			sc.wall, sc.rows, sc.bytes)
	}
}

// registerCursor parks a streamed execution, evicting the least recently
// pulled one (the front of curOrder) when the registry is full.
func (n *Node) registerCursor(sc *serverCursor) {
	var evict *serverCursor
	n.curMu.Lock()
	if n.cursors == nil {
		n.cursors = map[string]*serverCursor{}
	}
	if len(n.cursors) >= maxOpenCursors {
		id := n.curOrder[0]
		n.curOrder = n.curOrder[1:]
		evict = n.cursors[id]
		delete(n.cursors, id)
	}
	n.cursors[sc.id] = sc
	n.curOrder = append(n.curOrder, sc.id)
	n.curMu.Unlock()
	if evict != nil {
		evict.mu.Lock()
		if !evict.finished {
			evict.finished = true
			evict.cur.Close()
		}
		evict.mu.Unlock()
	}
}

// OpenCursors reports how many streamed executions are currently parked,
// for tests and operational introspection (a healthy buyer drains or closes
// every stream it opens).
func (n *Node) OpenCursors() int {
	n.curMu.Lock()
	defer n.curMu.Unlock()
	return len(n.cursors)
}
