package node

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"qtrade/internal/exec"
	"qtrade/internal/localopt"
	"qtrade/internal/plan"
	"qtrade/internal/sqlparse"
	"qtrade/internal/trading"
	"qtrade/internal/value"
)

// This file is the seller side of delivery: a purchased answer is opened as a
// cursor pipeline (openPurchased) and every row of it leaves through deliver.
// When a Stream request leaves batches behind, the cursor is parked in a
// bounded registry under a continuation token until the buyer pulls the rest,
// closes early or abandons it — in which case eviction reclaims it.

// maxOpenCursors bounds the per-node registry of parked streamed
// executions. Hitting the bound evicts the least recently pulled cursor: an
// abandoned buyer must not pin seller memory, a buyer that keeps pulling is
// not the one to pay for it, and an evicted buyer's next continuation fails
// loudly, pushing it into the usual recovery path.
const maxOpenCursors = 64

// serverCursor is one purchased answer being delivered: for the one exchange
// of a plain request, or parked between batch pulls while batches remain.
type serverCursor struct {
	id      string // continuation token, minted when the cursor is first parked
	rfbID   string // the record the offer was priced under; empty for an id this node did not mint
	offerID string
	sql     string
	stream  bool // one batch per exchange; false ships the whole answer in one

	mu       sync.Mutex
	cur      exec.Cursor
	cols     []trading.ColSpec // shipped with the opening batch only
	fetch    *subFetch         // the pipeline's remote hook, re-pointed at the exchange that pulls
	pending  []value.Row       // lookahead batch (owned copy), decides More
	primed   bool              // pending holds a pulled batch
	seq      int64             // seq of the batch most recently delivered
	last     trading.ExecResp  // that batch, re-delivered on a retried seq
	rows     int64             // cumulative rows shipped
	bytes    int64             // cumulative wire bytes shipped
	wall     float64           // cumulative execution+delivery wall ms
	finished bool              // completed, closed, or evicted
}

// advance hands out the batch pulled last time and pulls the lookahead that
// decides More, so the last batch of an answer says so itself and costs no
// extra round trip. The lookahead is copied out because cursor batches are
// only valid until the next pull. A fresh cursor pulls twice: the first pull
// has nothing to hand out yet.
func (sc *serverCursor) advance() ([]value.Row, bool, error) {
	for {
		rows, primed := sc.pending, sc.primed
		next, err := sc.cur.Next()
		if err != nil {
			return nil, false, err
		}
		sc.pending, sc.primed = append([]value.Row(nil), next...), true
		if primed {
			return rows, len(next) > 0, nil
		}
	}
}

// openPurchased opens the cursor pipeline of what was purchased at the
// request's batch size (the default when unset). Whatever it is — plain, view,
// composite — is a plan tree on the one executor, whose remote hook resolves a
// composite's Remote leaves.
func (n *Node) openPurchased(req trading.ExecReq, so *standingOffer, x step) (*serverCursor, error) {
	fetch := &subFetch{n: n, batch: req.BatchRows, x: x}
	ex := &exec.Executor{Store: n.store, BatchSize: req.BatchRows, FetchStream: fetch.open}
	var cur exec.Cursor
	root, specs, priced, err := n.purchasedPlan(req, so)
	if err == nil {
		x.ran(priced)
		cur, err = ex.Open(root)
	}
	if err != nil {
		return nil, fmt.Errorf("node %s: %w", n.cfg.ID, err)
	}
	return &serverCursor{rfbID: n.rfbOf(req.OfferID), offerID: req.OfferID, sql: req.SQL, stream: req.Stream,
		cur: cur, cols: specs, fetch: fetch}, nil
}

// purchasedPlan turns a purchased ExecReq into the plan tree that answers it
// and the columns it ships under, and reports which of two ways it took. A
// request naming an offer still in the book, priced under the generation the
// node is still in, gets the plan the offer was costed from and the columns it
// declared: nothing is parsed or planned, and what was quoted is what runs.
// Anything else — no standing offer (an ad hoc query, the baseline runner, a
// record since evicted) or one priced before the store last moved — is planned
// from its text. Either way a composite's answer is its assembly around the
// node's own part. (Execute has checked that the request carries the text the
// offer was quoted for: see purchase.)
func (n *Node) purchasedPlan(req trading.ExecReq, so *standingOffer) (root plan.Node, cols []trading.ColSpec, priced bool, err error) {
	text := req.SQL
	switch {
	case so == nil:
	case so.gen == n.generation():
		root, cols, priced = so.plan, so.offer.Cols, true
	case so.sub != nil:
		text = so.sub.localSQL
	}
	if !priced {
		if root, cols, err = n.textPlan(text); err != nil {
			return nil, nil, false, err
		}
	}
	if so != nil && so.sub != nil {
		root = so.sub.assembly(root)
	}
	return root, cols, priced, nil
}

// textPlan is the one place the text of an ExecReq is parsed and planned: a
// compensation query over a local materialized view, or a query over local
// fragments through the local optimizer. It also derives the column specs the
// answer ships under. The text is one SELECT; a UNION is refused at parse.
func (n *Node) textPlan(sql string) (plan.Node, []trading.ColSpec, error) {
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		return nil, nil, err
	}
	if err := plan.Qualify(sel, n.cfg.Schema); err != nil {
		return nil, nil, err
	}
	var root plan.Node
	if len(sel.From) == 1 && n.store.View(sel.From[0].Name) != nil {
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

// parkedCursor looks a continuation token up in the registry.
func (n *Node) parkedCursor(id string) (*serverCursor, error) {
	n.curMu.Lock()
	defer n.curMu.Unlock()
	if i := slices.IndexFunc(n.parked, func(sc *serverCursor) bool { return sc.id == id }); i >= 0 {
		return n.parked[i], nil
	}
	return nil, fmt.Errorf("node %s: unknown cursor %s", n.cfg.ID, id)
}

// deliver is the one exchange that moves rows of a purchased answer: the
// opening batch, every continuation (ExecReq.Cursor/Seq), a release
// (CloseCursor) — and the whole answer of a plain request, which is the same
// pull repeated to exhaustion. Continuations are idempotent per Seq, so the
// buyer's fault policy can retry a lost batch without skipping rows. x is the
// opening's exchange; a continuation opens its own once it pulls. Every
// response carries the wall time summed since the opening's t0: the final
// batch the actual behind the seller's quote. Callers hold sc.mu, or
// own a cursor not yet parked — parked last, once the response is final: the
// buyer cannot continue before it has seen it, so nothing races the parking.
func (n *Node) deliver(sc *serverCursor, req trading.ExecReq, x step, t0 time.Time) (trading.ExecResp, error) {
	opening := req.Cursor == ""
	if !opening {
		switch {
		case sc.finished:
			return trading.ExecResp{}, fmt.Errorf("node %s: cursor %s already closed", n.cfg.ID, req.Cursor)
		case req.CloseCursor:
			// Early close: the buyer has what it needs (LIMIT satisfied, or the
			// plan failed elsewhere). The partial delivery is still recorded.
			n.finishCursor(sc, true)
			return trading.ExecResp{}, nil
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
		x = n.observer().batchRequested(sc.id, req)
	}
	sc.fetch.x = x
	resp := trading.ExecResp{Cols: sc.cols}
	sc.cols = nil
	for {
		rows, more, err := sc.advance()
		if err != nil {
			sc.wall += msSince(t0)
			n.finishCursor(sc, false)
			err = fmt.Errorf("node %s: %w", n.cfg.ID, err)
			x.fail(err)
			return trading.ExecResp{}, err
		}
		if resp.Rows == nil {
			resp.Rows = rows // the lookahead copy is ours to hand out
		} else {
			resp.Rows = append(resp.Rows, rows...)
		}
		if resp.More = more; sc.stream || !more {
			break
		}
	}
	if resp.More {
		if sc.id == "" {
			sc.id = fmt.Sprintf("%s.c%d", n.cfg.ID, n.curSeq.Add(1))
		}
		resp.Cursor = sc.id
	}
	sc.wall += msSince(t0)
	resp.ExecMS = sc.wall
	sc.rows += int64(len(resp.Rows))
	sc.bytes += int64(resp.WireSize())
	resp.Trace = x.ship("rows", len(resp.Rows), sc.wall)
	sc.seq, sc.last = req.Seq, resp
	if resp.More {
		n.park(sc, opening)
	} else {
		n.finishCursor(sc, true)
	}
	return resp, nil
}

// park puts sc at the back of the registry, which is kept least recently
// pulled first: a fresh cursor is registered — evicting the front when the
// registry is full, what that stream shipped so far being recorded as served —
// and a parked one is marked as just pulled. A cursor evicted while its pull
// was running stays evicted.
func (n *Node) park(sc *serverCursor, fresh bool) {
	var evict *serverCursor
	n.curMu.Lock()
	if fresh && len(n.parked) >= maxOpenCursors {
		evict = n.parked[0]
		n.unpark(evict)
	}
	if fresh || n.unpark(sc) {
		n.parked = append(n.parked, sc)
	}
	n.curMu.Unlock()
	if evict != nil {
		evict.mu.Lock()
		n.finishCursor(evict, true)
		evict.mu.Unlock()
	}
}

// unpark removes sc from the registry and reports whether it was there.
// Callers hold curMu.
func (n *Node) unpark(sc *serverCursor) bool {
	i := slices.Index(n.parked, sc)
	if i >= 0 {
		n.parked = slices.Delete(n.parked, i, i+1)
	}
	return i >= 0
}

// finishCursor is the one end of a delivery — completion, early close,
// protocol violation, a failed pull and eviction all end here: close the
// pipeline, unregister it if parked, and report the delivery, as served
// (possibly partially) when served is true. Callers hold sc.mu.
func (n *Node) finishCursor(sc *serverCursor, served bool) {
	if sc.finished {
		return
	}
	sc.finished = true
	sc.cur.Close()
	if sc.id != "" {
		n.curMu.Lock()
		n.unpark(sc)
		n.curMu.Unlock()
	}
	n.observer().delivered(sc, served)
}

// OpenCursors reports how many streamed executions are currently parked,
// for tests and operational introspection (a healthy buyer drains or closes
// every stream it opens).
func (n *Node) OpenCursors() int {
	n.curMu.Lock()
	defer n.curMu.Unlock()
	return len(n.parked)
}
