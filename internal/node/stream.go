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

// serverCursor is one streamed execution, parked between batch pulls while
// batches remain.
type serverCursor struct {
	id      string
	offerID string
	sql     string

	mu       sync.Mutex
	cur      exec.Cursor
	fetch    *subFetch        // the pipeline's remote hook, re-pointed at the exchange that pulls
	pending  []value.Row      // lookahead batch (owned copy), decides More
	seq      int64            // seq of the batch most recently delivered
	last     trading.ExecResp // that batch, re-delivered on a retried seq
	rows     int64            // cumulative rows shipped
	bytes    int64            // cumulative wire bytes shipped
	wall     float64          // cumulative execution+delivery wall ms
	finished bool             // completed, closed, or evicted
}

// advance hands out the batch pulled last time and pulls the lookahead that
// decides More, so the last batch of an answer says so itself and costs no
// extra round trip. The lookahead is copied out because cursor batches are
// only valid until the next pull. The opening batch and every continuation
// come from here; a fresh cursor is primed by one advance that hands out
// nothing.
func (sc *serverCursor) advance() (rows []value.Row, more bool, err error) {
	rows = sc.pending
	next, err := sc.cur.Next()
	if err != nil {
		return nil, false, err
	}
	sc.pending = append([]value.Row(nil), next...)
	return rows, len(next) > 0, nil
}

// executePurchased evaluates a purchased query through the one cursor
// pipeline openExecCursor builds. A plain request gets the whole answer: the
// cursor is drained. A Stream request gets the first batch; when batches
// remain, the returned serverCursor is non-nil and the caller (Execute)
// registers it after finalizing the response; a result that fits in one
// batch costs zero extra round trips and parks nothing.
func (n *Node) executePurchased(req trading.ExecReq, sp *obs.Span) (trading.ExecResp, *serverCursor, error) {
	fetch := &subFetch{n: n, batch: req.BatchRows, sp: sp, ctx: req.Trace}
	cur, cols, err := n.openExecCursor(req, fetch)
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
	sc := &serverCursor{offerID: req.OfferID, sql: req.SQL, cur: cur, fetch: fetch}
	resp := trading.ExecResp{Cols: cols}
	if _, _, err = sc.advance(); err == nil { // prime the lookahead
		resp.Rows, resp.More, err = sc.advance()
	}
	if err != nil {
		cur.Close()
		return trading.ExecResp{}, nil, fmt.Errorf("node %s: %w", n.cfg.ID, err)
	}
	if !resp.More {
		return resp, nil, cur.Close()
	}
	sc.id = fmt.Sprintf("%s.c%d", n.cfg.ID, n.curSeq.Add(1))
	resp.Cursor = sc.id
	return resp, sc, nil
}

// openExecCursor opens the cursor pipeline of a purchased ExecReq at the
// request's batch size (the default when unset). Whatever was purchased —
// plain, view, UNION chain, composite — is a plan tree on the one executor;
// fetch is its remote hook, which resolves a composite's Remote leaves.
func (n *Node) openExecCursor(req trading.ExecReq, fetch *subFetch) (exec.Cursor, []trading.ColSpec, error) {
	root, specs, err := n.purchasedPlan(req)
	if err != nil {
		return nil, nil, fmt.Errorf("node %s: %w", n.cfg.ID, err)
	}
	ex := &exec.Executor{Store: n.store, BatchSize: req.BatchRows, FetchStream: fetch.open}
	cur, err := ex.Open(root)
	if err != nil {
		return nil, nil, fmt.Errorf("node %s: %w", n.cfg.ID, err)
	}
	return cur, specs, nil
}

// purchasedPlan is the one place a purchased ExecReq is parsed and planned.
// A composite offer's answer is its assembly: the node's own subquery
// followed by one Remote leaf per purchased fragment. A UNION chain is the
// union of its branches' plans (under a Distinct unless UNION ALL), refused
// before a row ships when the branches differ in width.
func (n *Node) purchasedPlan(req trading.ExecReq) (plan.Node, []trading.ColSpec, error) {
	_, sub := n.purchased(req.OfferID)
	sql := req.SQL
	if sub != nil {
		sql = sub.localSQL
	}
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	if u, ok := stmt.(*sqlparse.Union); ok {
		var specs []trading.ColSpec
		inputs := make([]plan.Node, len(u.Inputs))
		for i, sel := range u.Inputs {
			branch, bs, err := n.selectPlan(sel)
			if err != nil {
				return nil, nil, err
			}
			if i == 0 {
				specs = bs
			} else if len(bs) != len(specs) {
				return nil, nil, fmt.Errorf("union branches have different widths (%d vs %d)", len(bs), len(specs))
			}
			inputs[i] = branch
		}
		var root plan.Node = &plan.Union{Inputs: inputs}
		if !u.All {
			root = &plan.Distinct{Input: root}
		}
		return root, specs, nil
	}
	root, specs, err := n.selectPlan(stmt.(*sqlparse.Select))
	if err != nil || sub == nil {
		return root, specs, err
	}
	inputs := []plan.Node{root}
	for _, r := range sub.remotes {
		inputs = append(inputs, &plan.Remote{NodeID: r.peerID, SQL: r.sql, Cols: root.Schema()})
	}
	return &plan.Union{Inputs: inputs}, specs, nil
}

// selectPlan plans one SELECT block — a compensation query over a local
// materialized view, or a query over local fragments through the local
// optimizer — and derives the column specs its answer ships under.
func (n *Node) selectPlan(sel *sqlparse.Select) (plan.Node, []trading.ColSpec, error) {
	plan.Qualify(sel, n.cfg.Schema)
	var root plan.Node
	if len(sel.From) == 1 && n.store.View(sel.From[0].Name) != nil {
		var err error
		if root, err = n.viewPlan(sel); err != nil {
			return nil, nil, err
		}
	} else {
		res, err := localopt.Optimize(sel, n.cfg.Schema, n.store, n.cfg.Cost)
		if err != nil {
			return nil, nil, err
		}
		root = res.Best.Plan
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
	return root, specs, nil
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
	sc.fetch.sp, sc.fetch.ctx = sp, req.Trace
	t0 := time.Now()
	rows, more, err := sc.advance()
	if err != nil {
		n.finishCursor(sc, false)
		sp.End()
		return trading.ExecResp{}, fmt.Errorf("node %s: %w", n.cfg.ID, err)
	}
	resp := trading.ExecResp{Rows: rows, More: more}
	if more {
		resp.Cursor = sc.id
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

// finishCursor is the one teardown of a parked execution — completion, early
// close, protocol violation and eviction all end here: close the pipeline and
// unregister it. Callers hold sc.mu. When served is true the completed
// (possibly partial) delivery lands in the seller's ledger next to its
// pricing events.
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
		n.obsv.Load().ledger.Served(n.rfbOf(sc.offerID), n.cfg.ID, sc.offerID, sc.sql,
			sc.wall, sc.rows, sc.bytes)
	}
}

// registerCursor parks a streamed execution, evicting the least recently
// pulled one (the front of curOrder) when the registry is full; what the
// evicted stream shipped so far is recorded as served.
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
		n.finishCursor(evict, true)
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
