// Package node implements a federation node: an autonomous DBMS wrapping the
// local storage engine, statistics and System-R optimizer, plus the
// seller-side trading modules of Figure 3 — the partial query constructor
// and cost estimator (rewrite + modified DP), the seller predicates analyser
// (materialized-view offers), and the seller strategy module (pricing).
//
// A node never executes anything while negotiating: RequestBids and
// ImproveBids price offers purely from optimizer estimates; only Execute —
// sent by a buyer for a purchased answer after optimization has finished —
// touches data.
package node

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qtrade/internal/catalog"
	"qtrade/internal/cost"
	"qtrade/internal/expr"
	"qtrade/internal/ledger"
	"qtrade/internal/localopt"
	"qtrade/internal/obs"
	"qtrade/internal/plan"
	"qtrade/internal/pricecache"
	"qtrade/internal/rewrite"
	"qtrade/internal/sqlparse"
	"qtrade/internal/storage"
	"qtrade/internal/trading"
	"qtrade/internal/value"
	"qtrade/internal/views"
)

// Config configures a node.
type Config struct {
	ID      string
	Schema  *catalog.Schema
	Cost    *cost.Model  // nil = cost.Default()
	Weights cost.Weights // zero = cost.DefaultWeights()
	// Strategy prices offers; nil = trading.Cooperative{}.
	Strategy trading.SellerStrategy
	// MaxOffersPerQuery caps how many partial-result offers a seller sends
	// per requested query (0 = 24).
	MaxOffersPerQuery int
	// DisableViews turns the seller predicates analyser off (ablation F7).
	DisableViews bool
	// DisableAggPush turns partial-aggregate offers off (ablation F11).
	DisableAggPush bool
	// SubcontractPeers, when set, enables the §3.5 subcontracting
	// procedure: the node purchases missing fragments of partially held
	// relations from these peers and offers complete extents. Only Depth-0
	// RFBs are subcontracted.
	SubcontractPeers func() map[string]trading.Peer
	// Faults, when set, guards the nested subcontract negotiation with the
	// policy's timeouts, retries and per-peer breakers. Share one policy
	// (and so the directory its breakers live in) with the buyer so failures
	// seen on either side open the same breaker.
	Faults *trading.FaultPolicy
	// PriceCacheSize caps the node's price cache: memoized parse + rewrite +
	// DP pricing results and the offers drafted from them, keyed by the query
	// text as received, valid for one generation of the store's
	// data/stats/cost-model versions, so repeated negotiation iterations
	// re-price only through the strategy module. 0 = 256 entries, negative
	// disables the cache.
	PriceCacheSize int
	// LoadAwarePricing folds the node's live load — executions in flight
	// plus admitted and queued Depth-0 RFBs, normalized by the pricing pool's
	// size — into every asked price (and a large surcharge while draining), so
	// overloaded or departing sellers price themselves out of new work
	// instead of winning bids they will serve slowly. This is the
	// QT-native answer to load balancing: back-pressure through the market
	// rather than a scheduler.
	LoadAwarePricing bool
	// Metrics attaches a registry at construction time; nil (the default)
	// costs nothing, and Node.SetObs swaps it later.
	Metrics *obs.Metrics
}

// standingOffer is the book entry of one minted offer, written once by mint
// and read from there to delivery; only ask ever changes, under n.mu.
type standingOffer struct {
	offer trading.Offer // as first quoted: what a repeated RFBID is answered with
	truth float64       // the floor S3 improves down to: the truthful score plus what the node pays for inputs
	ask   float64       // the standing price; starts at offer.Price, ImproveBids only lowers it
	sub   *subcontract  // composite only: the assembly that delivers it
	// plan is the tree offer.Props was costed from, shared with the price-cache
	// entry it was drafted in and every other offer of that draft, so it is only
	// ever read. A purchase opens it as long as the node is still in gen, the
	// generation it was priced under; after that the text is planned again.
	plan plan.Node
	gen  pricecache.Generation
}

// sellerNeg is everything the seller holds for one RFB, in one record that
// is opened on the RFB's first sight and dies whole: evicted as the oldest
// beyond maxStandingRFBs, or revoked with the rest of the book.
type sellerNeg struct {
	offers  map[string]*standingOffer // offerID -> its entry in a flight's book
	flights map[flightKey]*flight     // requested query -> its single-flight pricing
}

// Node is one autonomous federation member. It implements netsim.Service.
type Node struct {
	cfg      Config
	store    *storage.Store
	pool     chan struct{}     // pricing-slot semaphore, cap = GOMAXPROCS at New
	admit    chan struct{}     // Depth-0 RFB admission gate, cap = 2 × cap(pool)
	queued   atomic.Int64      // Depth-0 RFBs waiting on the admission gate
	inflight atomic.Int64      // Depth-0 RFBs holding an admission slot
	prices   *pricecache.Cache // nil when caching is disabled
	costHash uint64            // fingerprint of cfg.Cost for the cache's generation

	mu       sync.Mutex
	negs     map[string]*sellerNeg   // rfbID -> its record
	negOrder []string                // record eviction order (oldest first)
	active   atomic.Int64            // executions in flight, for load-aware pricing
	state    atomic.Int32            // lifecycle position (trading.NodeState), see lifecycle.go
	obsv     atomic.Pointer[nodeObs] // never nil, see obs.go

	curMu  sync.Mutex      // guards parked
	parked []*serverCursor // open streamed executions, least recently pulled first, see stream.go
	curSeq atomic.Int64    // cursor id allocator
}

// flightKey names one requested query of an RFB. A struct of the two strings
// the request already holds: a concatenated key would be a copy of the text
// per pricing, kept for as long as the RFB's record.
type flightKey struct{ qid, sql string }

// flight is one single-flight pricing of a (RFB, query) pair: the first
// caller prices the query, every concurrent or later caller for the same pair
// waits on done and shares the book: the entries of the offers it minted.
type flight struct {
	done chan struct{}
	book []standingOffer
}

// maxStandingRFBs bounds the per-node negotiation state: a long-lived seller
// forgets its oldest RFBs' records (buyers that stall that long have
// abandoned the negotiation anyway).
const maxStandingRFBs = 128

// negLocked returns the record of an RFB, opening it — and evicting the
// oldest beyond maxStandingRFBs — on first sight. Callers hold n.mu.
func (n *Node) negLocked(rfbID string) *sellerNeg {
	neg := n.negs[rfbID]
	if neg == nil {
		neg = &sellerNeg{offers: map[string]*standingOffer{}, flights: map[flightKey]*flight{}}
		n.negs[rfbID] = neg
		n.negOrder = append(n.negOrder, rfbID)
		for len(n.negOrder) > maxStandingRFBs {
			delete(n.negs, n.negOrder[0])
			n.negOrder = n.negOrder[1:]
		}
	}
	return neg
}

// New creates a node with an empty store.
func New(cfg Config) *Node {
	if cfg.Cost == nil {
		cfg.Cost = cost.Default()
	}
	if (cfg.Weights == cost.Weights{}) {
		cfg.Weights = cost.DefaultWeights()
	}
	if cfg.Strategy == nil {
		cfg.Strategy = trading.Cooperative{}
	}
	if cfg.MaxOffersPerQuery <= 0 {
		cfg.MaxOffersPerQuery = 24
	}
	if cfg.PriceCacheSize == 0 {
		cfg.PriceCacheSize = 256
	}
	// The node sizes its own concurrency from the machine (S1–S2: an
	// autonomous seller decides how much pricing work it takes on): one
	// pricing slot per usable CPU, and twice that many buyer RFBs admitted,
	// so overload degrades into waiting rather than an unbounded pile-up of
	// pricing work.
	procs := runtime.GOMAXPROCS(0)
	n := &Node{
		cfg:      cfg,
		store:    storage.NewStore(),
		pool:     make(chan struct{}, procs),
		admit:    make(chan struct{}, 2*procs),
		costHash: pricecache.HashModel(cfg.Cost),
		negs:     map[string]*sellerNeg{},
	}
	if cfg.PriceCacheSize > 0 {
		n.prices = pricecache.New(cfg.PriceCacheSize)
	}
	if cfg.LoadAwarePricing {
		n.cfg.Strategy = &trading.LoadAware{Inner: n.cfg.Strategy, Load: n.loadFactor}
	}
	n.obsv.Store(&nodeObs{})
	n.SetObs(nil, cfg.Metrics)
	return n
}

// acquire claims a pricing-pool slot, blocking until one frees up. Slot
// holders never block on the pool again (nested joiners use tryAcquire), so
// acquisition cannot deadlock.
func (n *Node) acquire() { n.pool <- struct{}{} }

// tryAcquire claims a slot only if one is free: nested work (subcontract
// probing under a held slot) either wins extra parallelism or runs inline on
// its parent's slot.
func (n *Node) tryAcquire() bool {
	select {
	case n.pool <- struct{}{}:
		return true
	default:
		return false
	}
}

func (n *Node) release() { <-n.pool }

// acquireFor claims a pricing slot for a query of an RFB and reports whether
// it got one. A buyer's RFB waits for it; a subcontract probe (depth > 0) is
// priced without when none is free — its sender waits holding a slot of its
// own pool, so two full nodes probing each other would wait forever.
func (n *Node) acquireFor(depth int) bool {
	if depth > 0 {
		return n.tryAcquire()
	}
	n.acquire()
	return true
}

// admitRFB claims an admission slot for a buyer-originated (Depth-0) RFB,
// blocking — with the wait visible in the queue-depth gauge — when the node
// already serves cap(n.admit) of them. The returned func releases the slot.
// Only Depth-0 RFBs pass through here: subcontract probes bypass the gate,
// since gating them could deadlock two mutually subcontracting nodes that
// each hold their last admission slot while waiting on the other.
func (n *Node) admitRFB(ob *nodeObs) func() {
	select {
	case n.admit <- struct{}{}:
	default:
		ob.rfbsQueued.Inc()
		ob.rfbQueueDepth.Set(float64(n.queued.Add(1)))
		n.admit <- struct{}{}
		ob.rfbQueueDepth.Set(float64(n.queued.Add(-1)))
	}
	ob.rfbsInflight.Set(float64(n.inflight.Add(1)))
	return func() {
		ob.rfbsInflight.Set(float64(n.inflight.Add(-1)))
		<-n.admit
	}
}

// ID returns the node id.
func (n *Node) ID() string { return n.cfg.ID }

// Store exposes local storage for loading data.
func (n *Node) Store() *storage.Store { return n.store }

// Schema returns the public logical schema.
func (n *Node) Schema() *catalog.Schema { return n.cfg.Schema }

// CostModel returns the node's cost constants.
func (n *Node) CostModel() *cost.Model { return n.cfg.Cost }

// Weights returns the federation valuation weights this node prices under.
func (n *Node) Weights() cost.Weights { return n.cfg.Weights }

// Load reports the node's current load factor (executions in flight).
func (n *Node) Load() float64 { return float64(n.active.Load()) }

// RequestBids implements the seller side of an RFB (steps S1–S2): rewrite
// each requested query against local fragments, run the modified DP to price
// every optimal partial result, add view-based offers, and price everything
// through the strategy module.
//
// The per-query pricing fans out across the node's pricing pool; offer order
// and offer ids are deterministic regardless of scheduling, so any pool size
// produces byte-identical output. The call is also idempotent: each (RFBID,
// query) is priced at most once while the RFB's state is alive, so a
// fault-layer retry racing an abandoned slow first attempt coalesces with it
// and a repeated RFBID returns the same offers.
// When the RFB carries a sampled trace context, the node records its work
// into a detached span tree and ships the finished subtree back in the
// reply (nodeObs.span/ship): the buyer grafts it under its own RequestBids
// span.
func (n *Node) RequestBids(rfb trading.RFB) (trading.BidReply, error) {
	// Lifecycle gate, checked before the admission gate so a draining node
	// rejects immediately instead of queueing work it will not do: Draining
	// refuses new buyer-originated (Depth-0) negotiations, Left refuses
	// everything. Both surface the typed ErrDraining that buyers skip
	// without retry burn.
	if err := n.gateRFB(rfb.Depth); err != nil {
		return trading.BidReply{}, err
	}
	ob := n.obsv.Load()
	if rfb.Depth == 0 {
		release := n.admitRFB(ob)
		defer release()
	}
	sp := ob.span(n.cfg.ID, "request-bids", rfb.Trace)
	ob.rfbs.Inc()
	sp.Set("rfb", rfb.RFBID)
	sp.Set("queries", len(rfb.Queries))
	results := make([][]standingOffer, len(rfb.Queries))
	if len(rfb.Queries) == 1 {
		// One query has nothing to overlap: it is priced on this goroutine.
		held := n.acquireFor(rfb.Depth)
		results[0] = n.offersForShared(rfb, rfb.Queries[0], sp, ob)
		if held {
			n.release()
		}
	} else {
		var wg sync.WaitGroup
		for i, qr := range rfb.Queries {
			wg.Add(1)
			go func(i int, qr trading.QueryRequest) {
				defer wg.Done()
				if n.acquireFor(rfb.Depth) {
					defer n.release()
				}
				results[i] = n.offersForShared(rfb, qr, sp, ob)
			}(i, qr)
		}
		wg.Wait()
	}
	var out []trading.Offer
	for _, book := range results {
		if len(book) == 0 {
			ob.rewritesEmpty.Inc()
		}
		for i := range book {
			out = append(out, book[i].offer)
		}
	}
	sp.Set("offers", len(out))
	sp.End()
	return trading.BidReply{Offers: out, Trace: ob.ship(sp, rfb.Trace)}, nil
}

// offersForShared single-flights the pricing of one (RFBID, query): the first
// caller prices it, reports the pricing to the trading ledger and files the
// book in the RFB's record — the one time an offer is filed. Concurrent
// duplicates wait on the flight and share it, and completed flights are kept
// until the record dies, so a retried RFBID is answered byte-identically
// without re-pricing, whatever ImproveBids has done to the asks since.
func (n *Node) offersForShared(rfb trading.RFB, qr trading.QueryRequest, sp *obs.Span, ob *nodeObs) []standingOffer {
	qkey := flightKey{qr.QID, qr.SQL}
	n.mu.Lock()
	neg := n.negLocked(rfb.RFBID)
	if f := neg.flights[qkey]; f != nil {
		n.mu.Unlock()
		<-f.done
		ob.pricingsCoalesced.Inc()
		return f.book
	}
	f := &flight{done: make(chan struct{})}
	neg.flights[qkey] = f
	n.mu.Unlock()
	t0 := time.Now()
	book, cached := n.priceQuery(rfb, qr, sp, ob)
	ob.ledger.Priced(rfb.RFBID, rfb.BuyerID, n.cfg.ID, qr.QID, len(book), cached, msSince(t0))
	n.mu.Lock()
	neg = n.negLocked(rfb.RFBID) // reopened if the record died while the query was priced
	for i := range book {
		neg.offers[book[i].offer.OfferID] = &book[i]
	}
	n.mu.Unlock()
	f.book = book
	close(f.done)
	return book
}

// generation is the state of the world a price is a function of, besides the
// query text.
func (n *Node) generation() pricecache.Generation {
	return pricecache.Generation{Epoch: n.store.Epoch(), StatsVersion: n.store.StatsVersion(), CostHash: n.costHash}
}

// priceQuery is the seller's three steps for one requested query; the second
// return reports whether S1 and S2 came from the price cache.
func (n *Node) priceQuery(rfb trading.RFB, qr trading.QueryRequest, sp *obs.Span, ob *nodeObs) ([]standingOffer, bool) {
	// S1: read the query, rewrite it against the local fragments and plan it.
	// S2: draft what the node can sell of it — the partial results the modified
	// DP retained, matching views, a partial aggregate. All of that is the
	// price-cache entry of the text, so a hit arrives here with nothing read.
	gen := n.generation()
	e, cached := n.rewriteAndPlan(gen, qr.SQL, sp, ob)
	if e.Err != nil {
		return nil, cached
	}
	// S3: mint prices each draft, and between the entry's own drafts those of the
	// one source that depends on the RFB: complete extents assembled by
	// subcontracting, from what the peers reply now.
	m := &minter{n: n, rfbID: rfb.RFBID, qid: qr.QID, gen: gen, prefix: n.cfg.ID + "/" + rfb.RFBID + "/" + qr.QID + "/",
		book: make([]standingOffer, 0, len(e.Drafts)+1)}
	for i := range e.Drafts {
		if d := &e.Drafts[i]; d.FromView {
			m.mint(d, 0, nil, ob.offersView)
		} else {
			m.mint(d, 0, nil, ob.offersPriced)
		}
	}
	if n.cfg.SubcontractPeers != nil && rfb.Depth == 0 {
		scSp := sp.Child("subcontract")
		for _, c := range n.subcontractDrafts(rfb, e, scSp, m) {
			m.mint(&c.Draft, c.paid, c.sub, ob.offersSubcontract)
		}
		scSp.End()
	}
	if e.PartialAgg != nil {
		m.mint(e.PartialAgg, 0, nil, ob.offersPartialAgg)
	}
	// Cap by truthful value, cheapest first, keeping the widest coverage
	// offers regardless (they are what the buyer most needs); what the cap
	// discards is forgotten, assembly and all.
	book := m.book
	sort.SliceStable(book, func(i, j int) bool {
		a, b := &book[i].offer, &book[j].offer
		if len(a.Bindings) != len(b.Bindings) {
			return len(a.Bindings) > len(b.Bindings)
		}
		return a.Props.TotalTime < b.Props.TotalTime
	})
	if len(book) > n.cfg.MaxOffersPerQuery {
		clear(book[n.cfg.MaxOffersPerQuery:])
		book = book[:n.cfg.MaxOffersPerQuery]
	}
	return book, cached
}

// rewriteAndPlan is step S1, the modified DP behind S2 and S2's drafts: parse
// and qualify the query as received, rewrite it against the local fragments,
// plan it keeping every optimal partial, and draft every offer that follows
// from that alone. That walk is the expensive part of pricing, so it is
// memoized in the price cache under the received text: a hit reads nothing, not
// even the text. The cache holds one generation — the store's data epoch and
// stats version and the cost-model hash — and empties when they move, so a hit
// is never stale. The entry is shared with every other pricing of the same
// text, the offers minted from it and their executions, and is only read.
// Strategy pricing (S3) always runs fresh: margins adapt between rounds.
func (n *Node) rewriteAndPlan(gen pricecache.Generation, sql string, sp *obs.Span, ob *nodeObs) (e pricecache.Entry, cached bool) {
	if n.prices != nil {
		if e, ok := n.prices.Get(gen, sql); ok {
			ob.cacheHits.Inc()
			dpSp := sp.Child("dp-pricing")
			dpSp.Set("cache", "hit")
			endDP(dpSp, e.Drafts, e.Err)
			return e, true
		}
		ob.cacheMisses.Inc()
	}
	if e.Sel, e.Err = sqlparse.ParseSelect(sql); e.Err == nil {
		plan.Qualify(e.Sel, n.cfg.Schema)
		t0 := time.Now()
		rwSp := sp.Child("rewrite")
		e.Rewritten, e.Err = rewrite.ForSeller(e.Sel, n.cfg.Schema, n.store)
		if e.Err != nil {
			rwSp.Set("error", e.Err)
		}
		rwSp.End()
		rewriteMS := msSince(t0)
		ob.rewriteMS.Observe(rewriteMS)
		ob.ledger.ObservePhase(ledger.PhaseRewrite, rewriteMS)
	}
	if e.Err == nil {
		t0 := time.Now()
		dpSp := sp.Child("dp-pricing")
		if n.prices != nil {
			dpSp.Set("cache", "miss")
		}
		var res *localopt.Result
		if res, e.Err = localopt.Optimize(e.Rewritten.Sel, n.cfg.Schema, n.store, n.cfg.Cost); e.Err == nil {
			n.draftOffers(&e, res)
		}
		endDP(dpSp, e.Drafts, e.Err)
		ob.dpMS.Observe(msSince(t0))
	}
	// A failure is as much a function of the text and the generation as a
	// result is (an unparsable text, nothing local, a contradicted predicate,
	// an unplannable rewrite), so it is remembered too: a repeat RFB must not
	// redo the work to learn it.
	if n.prices != nil {
		ob.cacheEvictions.Add(int64(n.prices.Put(gen, sql, e)))
	}
	return e, false
}

// draftOffers runs S2's deterministic sources over a planned query and leaves
// their drafts in its entry, in the order they are minted in.
func (n *Node) draftOffers(e *pricecache.Entry, res *localopt.Result) {
	sel, rw := e.Sel, e.Rewritten
	hasAgg := sel.HasAggregates() || len(sel.GroupBy) > 0
	e.Drafts = make([]pricecache.Draft, 0, len(res.Partials))
	for _, p := range res.Partials {
		if d, ok := n.partialDraft(sel, rw, p, hasAgg); ok {
			e.Drafts = append(e.Drafts, d)
		}
	}
	if !n.cfg.DisableViews {
		for _, match := range views.BestMatches(sel, n.store) {
			if d, ok := n.viewDraft(sel, match); ok {
				e.Drafts = append(e.Drafts, d)
			}
		}
	}
	if hasAgg && rw.Stripped && len(rw.Dropped) == 0 && !n.cfg.DisableAggPush {
		if d, ok := n.partialAggDraft(sel, rw, res); ok {
			e.PartialAgg = &d
		}
	}
}

// endDP closes a dp-pricing span with the partials the DP retained — each is a
// draft now — or why it failed.
func endDP(dpSp *obs.Span, drafts []pricecache.Draft, err error) {
	if err != nil {
		dpSp.Set("error", err)
	} else if dpSp != nil {
		partials := 0
		for i := range drafts {
			if drafts[i].Kind == "o" {
				partials++
			}
		}
		dpSp.Set("partials", partials)
	}
	dpSp.End()
}

// compositeDraft is the draft of the one S2 source that is not a function of the
// text and the generation: a complete extent assembled by subcontracting. It
// fills OfferID itself — ids are reserved in probe order — and brings what mint
// adds to the floor and to the book entry.
type compositeDraft struct {
	pricecache.Draft
	paid float64      // what the node itself pays for purchased inputs, on top of the truthful score
	sub  *subcontract // the assembly that delivers it
}

// minter puts together the book of one requested query. Ids are
// deterministic and scoped to (node, RFB, query):
// "<node>/<rfbID>/<qid>/<kind><seq>". They depend only on the query's own
// pricing walk — never on cross-query scheduling — so parallel pricing emits
// offers byte-identical to the serial path, and a coalesced retry sees
// exactly the ids the first attempt minted.
type minter struct {
	n          *Node
	rfbID, qid string
	gen        pricecache.Generation // the drafts' own
	prefix     string                // of every id, up to the kind
	seq        int
	book       []standingOffer
}

func (m *minter) nextID(kind string) string {
	m.seq++
	return m.prefix + kind + strconv.Itoa(m.seq)
}

// mint turns a draft into a priced offer and writes its book entry: identity,
// and step S3 — the strategy names the price of the truthful valuation (plus
// paid, what a composite's inputs cost). The draft is shared and stays as it
// is; counted is the per-source instrument a minted offer ticks.
func (m *minter) mint(d *pricecache.Draft, paid float64, sub *subcontract, counted *obs.Counter) {
	n := m.n
	o := d.Offer
	if o.OfferID == "" {
		o.OfferID = m.nextID(d.Kind)
	}
	o.RFBID, o.QID, o.SellerID = m.rfbID, m.qid, n.cfg.ID
	truth := trading.TruthScore(n.cfg.Weights, o.Props) + paid
	o.Price = n.cfg.Strategy.Price(m.qid, truth)
	m.book = append(m.book, standingOffer{offer: o, truth: truth, ask: o.Price, sub: sub, plan: d.Plan, gen: m.gen})
	counted.Inc()
}

// partialDraft offers one partial result the modified DP retained. One whose
// output schema cannot be derived is not offered.
func (n *Node) partialDraft(sel *sqlparse.Select, rw *rewrite.Rewritten, p *localopt.Partial, origHasAgg bool) (pricecache.Draft, bool) {
	cols, err := OutputSpecs(p.SQL, n.cfg.Schema, n.store)
	if err != nil {
		return pricecache.Draft{}, false
	}
	parts := map[string][]string{}
	for _, b := range p.Bindings {
		lb := strings.ToLower(b)
		parts[lb] = rw.Parts[lb]
	}
	return pricecache.Draft{Kind: "o", Plan: p.Plan, Offer: trading.Offer{
		SQL:      p.SQL.SQL(),
		Cols:     cols,
		Bindings: p.Bindings,
		Parts:    parts,
		Complete: rw.Complete && len(p.Bindings) == len(sel.From),
		Stripped: origHasAgg && !(p.SQL.HasAggregates() || len(p.SQL.GroupBy) > 0),
		Props:    n.valuation(p.Cost, p.Rows, p.Bytes, n.coverage(p.SQL, p.Bindings, parts)),
	}}, true
}

// partialAggDraft offers per-fragment partial aggregates for a stripped
// aggregation query whose aggregates decompose (aggregate pushdown): the
// buyer merges group totals from disjoint fragments instead of
// re-aggregating raw rows, cutting the shipped volume to one row per group.
// It runs on the join tree the DP chose for the stripped query, under its own
// aggregating tail.
func (n *Node) partialAggDraft(sel *sqlparse.Select, rw *rewrite.Rewritten, res *localopt.Result) (pricecache.Draft, bool) {
	d, ok := plan.DecomposeAggregates(sel)
	if !ok || res.Best == nil {
		return pricecache.Draft{}, false
	}
	psel := &sqlparse.Select{Limit: -1, From: sel.From, Items: d.PartialItems()}
	if rw.Sel.Where != nil {
		psel.Where = expr.Clone(rw.Sel.Where)
	}
	for _, g := range sel.GroupBy {
		psel.GroupBy = append(psel.GroupBy, expr.Clone(g))
	}
	cols, err := OutputSpecs(psel, n.cfg.Schema, n.store)
	if err != nil {
		return pricecache.Draft{}, false
	}
	root, err := plan.FinalizeSelect(psel, res.Joined)
	if err != nil {
		return pricecache.Draft{}, false
	}
	full := res.Best
	groups := full.Rows/2 + 1
	if len(sel.GroupBy) == 0 {
		groups = 1
	}
	execCost := full.Cost + n.cfg.Cost.Aggregate(full.Rows, groups)
	bytes := float64(groups) * float64(8*len(psel.Items)) // one value per partial item
	bindings := fromBindings(sel)
	return pricecache.Draft{Kind: "a", Plan: root, Offer: trading.Offer{
		SQL:        psel.SQL(),
		Cols:       cols,
		Bindings:   bindings,
		Parts:      rw.Parts,
		Complete:   rw.Complete,
		PartialAgg: true,
		Props:      n.valuation(execCost, groups, bytes, n.coverage(sel, bindings, rw.Parts)),
	}}, true
}

// viewDraft is the seller predicates analyser (§3.5): offer a matching
// materialized view at the (small) cost of scanning and shipping it.
func (n *Node) viewDraft(sel *sqlparse.Select, m *views.Match) (pricecache.Draft, bool) {
	v := n.store.View(m.View.Name)
	if v == nil || v.Stats == nil {
		return pricecache.Draft{}, false
	}
	cols, err := OutputSpecs(m.Comp, n.cfg.Schema, n.store)
	if err != nil {
		return pricecache.Draft{}, false
	}
	root, err := n.viewPlan(m.Comp)
	if err != nil {
		return pricecache.Draft{}, false
	}
	rows := v.Stats.Rows
	bytes := float64(rows) * math.Max(v.Stats.RowBytes, 8)
	execCost := n.cfg.Cost.Scan(rows)
	if m.ReAggregated {
		execCost += n.cfg.Cost.Aggregate(rows, rows/2+1)
	}
	parts := map[string][]string{}
	for _, tr := range sel.From {
		parts[strings.ToLower(tr.Binding())] = n.cfg.Schema.PartitionIDs(tr.Name)
	}
	return pricecache.Draft{Kind: "v", Plan: root, Offer: trading.Offer{
		SQL:      m.Comp.SQL(),
		Cols:     cols,
		Bindings: fromBindings(sel),
		Parts:    parts,
		Complete: true,
		FromView: true,
		Props:    n.valuation(execCost, rows, bytes, 1),
	}}, true
}

// fromBindings lists the query's FROM bindings in order.
func fromBindings(sel *sqlparse.Select) []string {
	bindings := make([]string, len(sel.From))
	for i, tr := range sel.From {
		bindings[i] = tr.Binding()
	}
	return bindings
}

// coverage is the completeness of an offer: the mean, over its bindings in
// FROM order, of the fraction of each relation's partitions it covers.
func (n *Node) coverage(sel *sqlparse.Select, bindings []string, parts map[string][]string) float64 {
	if len(bindings) == 0 {
		return 0
	}
	sum := 0.0
	for _, b := range bindings {
		if tr := sel.FindFrom(b); tr != nil {
			if total := len(n.cfg.Schema.PartitionIDs(tr.Name)); total > 0 {
				sum += float64(len(parts[strings.ToLower(b)])) / float64(total)
			}
		}
	}
	return sum / float64(len(bindings))
}

// valuation assembles the multidimensional offer properties the paper lists
// in §3.1.
func (n *Node) valuation(execCost float64, rows int64, bytes float64, coverage float64) cost.Valuation {
	transfer := n.cfg.Cost.Transfer(bytes)
	total := execCost + transfer
	v := cost.Valuation{
		TotalTime:    total,
		FirstRow:     n.cfg.Cost.StartupCost + n.cfg.Cost.NetLatency,
		Rows:         rows,
		Bytes:        bytes,
		Freshness:    1,
		Completeness: coverage,
	}
	if total > 0 {
		v.RowsPerSec = float64(rows) / (total / 1000)
	}
	return v
}

// ImproveBids implements the seller side of iterative bidding and bargaining
// (step S3): the strategy may undercut the best competing price or meet a
// bargaining target. A sampled request ships a small improve-bids span back
// so every protocol round is visible in the buyer's trace.
func (n *Node) ImproveBids(req trading.ImproveReq) (trading.BidReply, error) {
	switch n.State() {
	case trading.StateLeft:
		return trading.BidReply{}, n.drainErr("improve-bids")
	case trading.StateDraining:
		// A draining seller stops competing: its standing offers stay
		// honored at their current prices, but it submits no improvements
		// (winning more work would delay the drain).
		return trading.BidReply{}, nil
	}
	var sp *obs.Span
	if req.Trace.Sampled {
		sp = obs.NewTracer().Start(n.cfg.ID, "improve-bids")
		sp.Set("rfb", req.RFBID)
	}
	out := n.improveOffers(req)
	sp.Set("offers", len(out))
	sp.End()
	return trading.BidReply{Offers: out, Trace: sp.Payload()}, nil
}

func (n *Node) improveOffers(req trading.ImproveReq) []trading.Offer {
	n.mu.Lock()
	defer n.mu.Unlock()
	neg := n.negs[req.RFBID]
	if neg == nil {
		return nil
	}
	m := neg.offers
	var out []trading.Offer
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		so := m[id]
		competing, ok := req.BestPrice[so.offer.QID]
		if !ok {
			continue
		}
		if t, hasTarget := req.Target[so.offer.QID]; hasTarget && t < competing {
			competing = t
		}
		newPrice, changed := n.cfg.Strategy.Improve(so.offer.QID, so.ask, so.truth, competing)
		if !changed || newPrice >= so.ask {
			continue
		}
		so.ask = newPrice
		improved := so.offer
		improved.Price = newPrice
		out = append(out, improved)
	}
	return out
}

// Award records a win (and implies losses for the node's competing offers on
// the same query), feeding strategy adaptation.
func (n *Node) Award(aw trading.Award) error {
	if n.State() == trading.StateLeft {
		return n.drainErr("award")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	neg := n.negs[aw.RFBID]
	if neg == nil {
		return nil
	}
	m := neg.offers
	winner, ok := m[aw.OfferID]
	if !ok {
		return fmt.Errorf("node %s: unknown offer %q", n.cfg.ID, aw.OfferID)
	}
	n.obsv.Load().offersWon.Inc()
	n.cfg.Strategy.Observe(winner.offer.QID, true)
	for id, so := range m {
		if id != aw.OfferID && so.offer.QID == winner.offer.QID {
			n.cfg.Strategy.Observe(so.offer.QID, false)
		}
	}
	return nil
}

// Execute delivers a purchased answer, or its next batch. The SQL is a
// (rewritten) query over local fragments, a compensation query over a local
// materialized view, a UNION chain of those, or — when OfferID names a
// composite — the extent a subcontract assembly delivers. It reads gate →
// find what was purchased → open → deliver: an opening request (plain or
// Stream) opens the plan tree purchasedPlan builds, a continuation or release
// (req.Cursor) finds the cursor an earlier opening parked, and either way
// deliver (stream.go) ships the rows and, for a sampled request, the node's
// span subtree of the exchange.
func (n *Node) Execute(req trading.ExecReq) (trading.ExecResp, error) {
	// Draining nodes still deliver: every purchased answer is in-flight work
	// the drain must finish. Only a node that has Left refuses, and the
	// rejection is transient so recovery substitutes an equivalent offer.
	if n.State() == trading.StateLeft {
		return trading.ExecResp{}, n.drainErr("execute")
	}
	n.active.Add(1)
	defer n.active.Add(-1)
	ob := n.obsv.Load()
	if req.Cursor != "" {
		sc, err := n.parkedCursor(req.Cursor)
		if err != nil {
			return trading.ExecResp{}, err
		}
		sc.mu.Lock()
		defer sc.mu.Unlock()
		return n.deliver(ob, sc, req, nil, time.Now())
	}
	sp := ob.span(n.cfg.ID, "execute", req.Trace)
	sp.Set("sql", req.SQL)
	ob.execs.Inc()
	// The wall time since t0 is the seller's actual cost behind the quote it
	// bid with; the quote goes on the span next to it, so a grafted subtree
	// carries est-vs-actual into the buyer's flight dossier. (The standing
	// offer may be gone — evicted or another RFB's: then only actuals ship.)
	t0 := time.Now()
	so, err := n.purchase(req)
	if so != nil && sp != nil {
		sp.Set("est_rows", so.offer.Props.Rows)
		sp.Set("quoted_ms", so.offer.Props.TotalTime)
	}
	var resp trading.ExecResp
	var sc *serverCursor
	if err == nil {
		sc, err = n.openPurchased(ob, req, so, sp)
	}
	if err == nil {
		resp, err = n.deliver(ob, sc, req, sp, t0)
	}
	if err != nil {
		sp.Set("error", err)
		sp.End()
	}
	ob.execMS.Observe(msSince(t0))
	return resp, err
}

// rfbOf extracts the RFBID embedded in an offer id this node minted
// ("<node>/<rfbID>/<qid>/<kind><seq>"), so an execution finds the record the
// offer was priced under and the seller's served event joins the same ledger
// record as its pricing. Empty for any other id shape.
func (n *Node) rfbOf(offerID string) string {
	id := n.cfg.ID
	if len(offerID) <= len(id) || offerID[len(id)] != '/' || !strings.HasPrefix(offerID, id) {
		return ""
	}
	rest := offerID[len(id)+1:]
	for range 2 { // drop "/<kind><seq>", then "/<qid>"
		cut := strings.LastIndexByte(rest, '/')
		if cut < 0 {
			return ""
		}
		rest = rest[:cut]
	}
	return rest
}

// purchased looks an offer id up in the record of the RFB it was minted
// under and returns its book entry: nil once the record is gone, and for ids
// this node did not mint.
func (n *Node) purchased(offerID string) *standingOffer {
	rfbID := n.rfbOf(offerID)
	n.mu.Lock()
	defer n.mu.Unlock()
	if neg := n.negs[rfbID]; neg != nil {
		return neg.offers[offerID]
	}
	return nil
}

// purchase finds what a request buys: nothing for an offer id the book does
// not hold (the request's text is then all there is), the id's entry when the
// request carries the text that entry was quoted for, and otherwise an error —
// an offer is good for the query it quoted and no other. A buyer process that
// restarts numbers its RFBs from one again, so a record can have minted one id
// twice, for two texts: the id answers to the entry filed last, and the other
// still stands in the book of the flight that priced it, where id and text
// together find it.
func (n *Node) purchase(req trading.ExecReq) (*standingOffer, error) {
	so := n.purchased(req.OfferID)
	if so == nil || so.offer.SQL == req.SQL {
		return so, nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if neg := n.negs[n.rfbOf(req.OfferID)]; neg != nil {
		for _, f := range neg.flights {
			select {
			case <-f.done: // priced: its book is there to read
			default:
				continue
			}
			for i := range f.book {
				if o := &f.book[i].offer; o.OfferID == req.OfferID && o.SQL == req.SQL {
					return &f.book[i], nil
				}
			}
		}
	}
	return nil, fmt.Errorf("node %s: offer %s was quoted for another query than the one requested under it", n.cfg.ID, req.OfferID)
}

// viewPlan builds the execution plan of a compensation query over a local
// materialized view.
func (n *Node) viewPlan(sel *sqlparse.Select) (plan.Node, error) {
	v := n.store.View(sel.From[0].Name)
	binding := sel.From[0].Binding()
	cols := make([]expr.ColumnID, len(v.Columns))
	for i, c := range v.Columns {
		cols[i] = expr.ColumnID{Table: binding, Name: c.Name}
	}
	var root plan.Node = &plan.ViewScan{Name: v.Name, Cols: cols}
	if sel.Where != nil {
		root = &plan.Filter{Input: root, Pred: expr.Clone(sel.Where)}
	}
	return plan.FinalizeSelect(sel, root)
}

// OutputSpecs computes the output schema (names and kinds) of a SELECT over
// base tables or local views. Buyers use the specs shipped in offers to
// build Remote plan nodes; sellers use them to label shipped answers.
func OutputSpecs(sel *sqlparse.Select, sch *catalog.Schema, store *storage.Store) ([]trading.ColSpec, error) {
	kindOf := buildKindResolver(sel, sch, store)
	var out []trading.ColSpec
	for i, it := range sel.Items {
		if it.Star {
			for _, tr := range sel.From {
				if def, ok := sch.Table(tr.Name); ok {
					for _, cd := range def.Columns {
						out = append(out, trading.ColSpec{Table: tr.Binding(), Name: cd.Name, Kind: cd.Kind})
					}
					continue
				}
				if store != nil {
					if v := store.View(tr.Name); v != nil {
						for _, cd := range v.Columns {
							out = append(out, trading.ColSpec{Table: tr.Binding(), Name: cd.Name, Kind: cd.Kind})
						}
					}
				}
			}
			continue
		}
		spec := trading.ColSpec{Kind: kindOf(it.Expr)}
		if it.Alias != "" {
			spec.Name = it.Alias
		} else if c, ok := it.Expr.(*expr.Column); ok {
			spec.Table = c.Table
			spec.Name = c.Name
		} else {
			spec.Name = fmt.Sprintf("_col%d", i)
		}
		out = append(out, spec)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("node: query %q has no output columns", sel.SQL())
	}
	return out, nil
}

// buildKindResolver returns a function inferring the value kind of an
// expression under the query's FROM bindings.
func buildKindResolver(sel *sqlparse.Select, sch *catalog.Schema, store *storage.Store) func(expr.Expr) value.Kind {
	colKind := func(c *expr.Column) value.Kind {
		for _, tr := range sel.From {
			if c.Table != "" && !strings.EqualFold(c.Table, tr.Binding()) {
				continue
			}
			if def, ok := sch.Table(tr.Name); ok {
				if idx := def.ColumnIndex(c.Name); idx >= 0 {
					return def.Columns[idx].Kind
				}
			}
			if store != nil {
				if v := store.View(tr.Name); v != nil {
					for _, cd := range v.Columns {
						if strings.EqualFold(cd.Name, c.Name) {
							return cd.Kind
						}
					}
				}
			}
		}
		return value.Null
	}
	var kindOf func(e expr.Expr) value.Kind
	kindOf = func(e expr.Expr) value.Kind {
		switch t := e.(type) {
		case *expr.Column:
			return colKind(t)
		case *expr.Lit:
			return t.V.K
		case *expr.Agg:
			switch t.Fn {
			case "COUNT":
				return value.Int
			case "AVG":
				return value.Float
			default:
				if t.Arg != nil {
					return kindOf(t.Arg)
				}
				return value.Float
			}
		case *expr.Binary:
			switch t.Op {
			case "AND", "OR", "=", "<>", "<", "<=", ">", ">=":
				return value.Bool
			}
			lk, rk := kindOf(t.L), kindOf(t.R)
			if lk == value.Float || rk == value.Float || t.Op == "/" {
				return value.Float
			}
			return lk
		case *expr.Unary:
			if t.Op == "NOT" {
				return value.Bool
			}
			return kindOf(t.X)
		case *expr.In, *expr.Between, *expr.IsNull:
			return value.Bool
		}
		return value.Null
	}
	return kindOf
}
