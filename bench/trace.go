package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"qtrade/internal/core"
	"qtrade/internal/netsim"
	"qtrade/internal/trading"
)

// Span names. Buyer-side calls are "peer.*", "self.*" and "comm.*"; the
// seller-side service time of the same call is its "node.*" child.
const (
	spanQuery     = "query"
	spanOptimize  = "core.Optimize"
	spanExecute   = "core.ExecuteResult"
	spanPeerRFB   = "peer.RequestBids"
	spanPeerImp   = "peer.ImproveBids"
	spanSelfRFB   = "self.RequestBids"
	spanAward     = "comm.Award"
	spanFetch     = "comm.Fetch"     // opens a purchased answer: first batch
	spanFetchMore = "comm.FetchNext" // continuation or close of a stream
	spanNodeRFB   = "node.RequestBids"
	spanNodeImp   = "node.ImproveBids"
	spanNodeAward = "node.Award"
	spanNodeExec  = "node.Execute"
)

// span is one timed call at a layer boundary. Spans of one query share
// Query; Parent is the span that caused this one (-1 for a query's root).
// Start and End are nanoseconds since the tracer was created.
type span struct {
	Query  int    `json:"query"`
	ID     int    `json:"span"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Node   string `json:"node,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// capture limits: the replayed direct-call timings need a sample of inputs,
// not all of them.
const (
	maxCapturedBatches = 64
	maxCapturedPairs   = 256
)

// sellerSQL is one query text seen by one seller.
type sellerSQL struct{ seller, sql string }

// tracer records spans in memory while on. One buyer client runs at a time,
// so the current query and phase are tracer state; the fan-out goroutines
// inside a phase only read them.
type tracer struct {
	on atomic.Bool
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	query   int // current query number
	root    int // current query's root span
	phase   int // current core.Optimize / core.ExecuteResult span
	pending map[string][]int

	// inputs captured for the direct-call replays
	rfbSeen   map[sellerSQL]bool
	rfbPairs  []sellerSQL // distinct (seller, requested SQL)
	execSeen  map[sellerSQL]bool
	execPairs []sellerSQL // distinct (seller, purchased SQL)
	batches   []trading.ExecResp
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), pending: map[string][]int{},
		rfbSeen: map[sellerSQL]bool{}, execSeen: map[sellerSQL]bool{}}
}

func (t *tracer) active() bool { return t != nil && t.on.Load() }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name, node string, parent int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Query: t.query, ID: id, Parent: parent, Name: name, Node: node, Start: now})
	return id
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// beginQuery opens the root span of the next query.
func (t *tracer) beginQuery() {
	if !t.active() {
		return
	}
	t.mu.Lock()
	t.query++
	t.mu.Unlock()
	id := t.begin(spanQuery, "", -1)
	t.mu.Lock()
	t.root, t.phase = id, id
	t.mu.Unlock()
}

func (t *tracer) endQuery() {
	if t.active() {
		t.end(t.root)
	}
}

// beginPhase opens a buyer phase span under the query root; calls recorded
// until endPhase become its children.
func (t *tracer) beginPhase(name string) {
	if !t.active() {
		return
	}
	id := t.begin(name, "", t.root)
	t.mu.Lock()
	t.phase = id
	t.mu.Unlock()
}

func (t *tracer) endPhase() {
	if !t.active() {
		return
	}
	t.end(t.phase)
	t.mu.Lock()
	t.phase = t.root
	t.mu.Unlock()
}

// call opens a buyer-side call span under the current phase and announces
// it under key, where the seller-side wrapper of the same call finds its
// parent. Two identical calls in flight at once pair up in either order;
// both are children of the same phase, so sums and unions are unaffected.
func (t *tracer) call(name, node, key string) int {
	t.mu.Lock()
	parent := t.phase
	t.mu.Unlock()
	id := t.begin(name, node, parent)
	if key != "" {
		t.mu.Lock()
		t.pending[key] = append(t.pending[key], id)
		t.mu.Unlock()
	}
	return id
}

// serve opens the seller-side span of the call announced under key.
func (t *tracer) serve(name, node, key string) int {
	t.mu.Lock()
	parent := t.phase
	if q := t.pending[key]; len(q) > 0 {
		parent = q[0]
		if len(q) == 1 {
			delete(t.pending, key)
		} else {
			t.pending[key] = q[1:]
		}
	}
	t.mu.Unlock()
	return t.begin(name, node, parent)
}

func execKey(node string, req trading.ExecReq) string {
	return "exec|" + node + "|" + req.OfferID + "|" + req.Cursor + "|" + strconv.FormatInt(req.Seq, 10)
}

// tracedComm wraps the buyer's Comm. wrapPeers says that the inner Peers
// builds a new map on every call (core.NetComm), whose entries are wrapped
// here. core.PeerComm hands out its own map, which core.Optimize then
// modifies; its peers are wrapped once where the map is built (serveTCP), so
// that tracing leaves that sharing as it is.
type tracedComm struct {
	core.Comm
	tr        *tracer
	wrapPeers bool
}

func (c tracedComm) Peers() map[string]trading.Peer {
	peers := c.Comm.Peers()
	if c.wrapPeers {
		for id, p := range peers {
			peers[id] = tracedPeer{Peer: p, tr: c.tr, id: id}
		}
	}
	return peers
}

func (c tracedComm) Award(to string, aw trading.Award) error {
	if !c.tr.active() {
		return c.Comm.Award(to, aw)
	}
	id := c.tr.call(spanAward, to, "award|"+to+"|"+aw.OfferID)
	defer c.tr.end(id)
	return c.Comm.Award(to, aw)
}

func (c tracedComm) Fetch(to string, req trading.ExecReq) (trading.ExecResp, error) {
	if !c.tr.active() {
		return c.Comm.Fetch(to, req)
	}
	name := spanFetch
	if req.Cursor != "" {
		name = spanFetchMore
	}
	id := c.tr.call(name, to, execKey(to, req))
	resp, err := c.Comm.Fetch(to, req)
	c.tr.end(id)
	if err == nil {
		c.tr.captureFetch(to, req, resp)
	}
	return resp, err
}

func (t *tracer) captureFetch(seller string, req trading.ExecReq, resp trading.ExecResp) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if k := (sellerSQL{seller, req.SQL}); req.SQL != "" && !t.execSeen[k] && len(t.execPairs) < maxCapturedPairs {
		t.execSeen[k] = true
		t.execPairs = append(t.execPairs, k)
	}
	if len(resp.Rows) > 0 && len(t.batches) < maxCapturedBatches {
		t.batches = append(t.batches, resp)
	}
}

// tracedPeer wraps the buyer's handle to one seller.
type tracedPeer struct {
	trading.Peer
	tr *tracer
	id string
}

func (p tracedPeer) RequestBids(rfb trading.RFB) (trading.BidReply, error) {
	if !p.tr.active() {
		return p.Peer.RequestBids(rfb)
	}
	id := p.tr.call(spanPeerRFB, p.id, "rfb|"+p.id+"|"+rfb.RFBID)
	defer p.tr.end(id)
	return p.Peer.RequestBids(rfb)
}

func (p tracedPeer) ImproveBids(req trading.ImproveReq) (trading.BidReply, error) {
	if !p.tr.active() {
		return p.Peer.ImproveBids(req)
	}
	id := p.tr.call(spanPeerImp, p.id, "imp|"+p.id+"|"+req.RFBID)
	defer p.tr.end(id)
	return p.Peer.ImproveBids(req)
}

// tracedSelf wraps the buyer's own node answering the buyer's RFBs.
type tracedSelf struct {
	core.LocalSeller
	tr *tracer
}

func (s tracedSelf) RequestBids(rfb trading.RFB) (trading.BidReply, error) {
	if !s.tr.active() {
		return s.LocalSeller.RequestBids(rfb)
	}
	id := s.tr.call(spanSelfRFB, rfb.BuyerID, "")
	defer s.tr.end(id)
	s.tr.captureRFB(rfb.BuyerID, rfb)
	return s.LocalSeller.RequestBids(rfb)
}

// tracedService wraps the seller side of one node: its spans are service
// time, without transport.
type tracedService struct {
	netsim.Service
	tr *tracer
	id string
}

func (s tracedService) RequestBids(rfb trading.RFB) (trading.BidReply, error) {
	if !s.tr.active() {
		return s.Service.RequestBids(rfb)
	}
	id := s.tr.serve(spanNodeRFB, s.id, "rfb|"+s.id+"|"+rfb.RFBID)
	defer s.tr.end(id)
	s.tr.captureRFB(s.id, rfb)
	return s.Service.RequestBids(rfb)
}

func (s tracedService) ImproveBids(req trading.ImproveReq) (trading.BidReply, error) {
	if !s.tr.active() {
		return s.Service.ImproveBids(req)
	}
	id := s.tr.serve(spanNodeImp, s.id, "imp|"+s.id+"|"+req.RFBID)
	defer s.tr.end(id)
	return s.Service.ImproveBids(req)
}

func (s tracedService) Award(aw trading.Award) error {
	if !s.tr.active() {
		return s.Service.Award(aw)
	}
	id := s.tr.serve(spanNodeAward, s.id, "award|"+s.id+"|"+aw.OfferID)
	defer s.tr.end(id)
	return s.Service.Award(aw)
}

func (s tracedService) Execute(req trading.ExecReq) (trading.ExecResp, error) {
	if !s.tr.active() {
		return s.Service.Execute(req)
	}
	id := s.tr.serve(spanNodeExec, s.id, execKey(s.id, req))
	defer s.tr.end(id)
	return s.Service.Execute(req)
}

func (t *tracer) captureRFB(seller string, rfb trading.RFB) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, q := range rfb.Queries {
		k := sellerSQL{seller, q.SQL}
		if t.rfbSeen[k] || len(t.rfbPairs) >= maxCapturedPairs {
			continue
		}
		t.rfbSeen[k] = true
		t.rfbPairs = append(t.rfbPairs, k)
	}
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanTotals aggregates a finished trace by span name: the summed duration,
// the summed self time (duration minus the union of the span's children) and
// the span count.
type spanTotals struct {
	spans     []span
	sum, self map[string]int64
	count     map[string]int
}

// summarize checks that every span ended, lies inside its parent and has a
// non-negative self time, and totals the spans by name.
func summarize(spans []span) (spanTotals, error) {
	st := spanTotals{spans: spans, sum: map[string]int64{}, self: map[string]int64{}, count: map[string]int{}}
	children := make([][]interval, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			return st, fmt.Errorf("span %d (%s) never ended", s.ID, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if p.Query != s.Query || s.Start < p.Start || s.End > p.End {
			return st, fmt.Errorf("span %d (%s) lies outside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
		children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
	}
	for _, s := range spans {
		d := s.End - s.Start
		self := d - unionLen(children[s.ID])
		if self < 0 {
			return st, fmt.Errorf("span %d (%s) has negative self time", s.ID, s.Name)
		}
		st.sum[s.Name] += d
		st.self[s.Name] += self
		st.count[s.Name]++
	}
	return st, nil
}

// unionOf returns, summed over the queries, the time during which at least
// one span with one of the names was open: what a query waited for calls
// that ran in parallel.
func (st spanTotals) unionOf(names ...string) int64 {
	var total int64
	var ivs []interval
	query := -1
	for _, s := range st.spans {
		if s.Query != query {
			total += unionLen(ivs)
			ivs, query = ivs[:0], s.Query
		}
		for _, n := range names {
			if s.Name == n {
				ivs = append(ivs, interval{s.Start, s.End})
			}
		}
	}
	return total + unionLen(ivs)
}
