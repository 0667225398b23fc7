package node

import (
	"time"

	"qtrade/internal/ledger"
	"qtrade/internal/obs"
	"qtrade/internal/pricecache"
	"qtrade/internal/trading"
)

// nodeObs is the seller's one observation seam, as core's negObs is the
// buyer's: told what happened in the paper's terms, it alone feeds the tracer,
// ledger, trace log and node.<id>.* instruments (TestSellerObservesThroughOneSeam).
// One pointer, never nil, swapped as a unit; every sink is nil-safe, so a call
// loads it once and calls straight through whatever is attached.
type nodeObs struct {
	id       string         // the node's: every span's source, every event's seller
	tracer   *obs.Tracer    // records requests that carry no sampled trace context
	ledger   *ledger.Ledger // seller-side pricing, serving and membership events
	traceLog *obs.TraceLog  // the most recent subtrees shipped, for /trace/last

	rfbs, rewritesEmpty, offersWon         *obs.Counter              // RFBs received, queries bid nothing on, awards
	offersBy                               map[string]*obs.Counter   // offers minted, by the kind of their draft
	execs, execsPriced, execsText          *obs.Counter              // purchases opened: all, on the priced plan, from the text
	cacheHits, cacheMisses, cacheEvictions *obs.Counter              // the price cache's
	pricingsCoalesced, rfbsQueued          *obs.Counter              // single-flighted pricings, Depth-0 RFBs that waited
	rfbQueueDepth, rfbsInflight            *obs.Gauge                // Depth-0 RFBs waiting for, and holding, admission
	phaseMS                                map[string]*obs.Histogram // by phase, from sellerPhases
	priceMS, execMS                        *obs.Histogram            // one query's whole pricing; a delivery, opening to end
}

// sellerPhases are the phases a pricing opens under its exchange, each with
// the node.<id>.* histogram that keeps its durations (a cache hit's
// dp-pricing ran no DP and keeps none).
var sellerPhases = map[string]string{"rewrite": "rewrite_ms", "dp-pricing": "dp_ms", "subcontract": "subcontract_ms"}

// observer is what a call reports to, from start to end.
func (n *Node) observer() *nodeObs { return n.obsv.Load() }

// step is a span of a served request: its exchange (RequestBids, ImproveBids,
// an opening Execute, a continuation) or a phase under it (rewrite, dp-pricing,
// subcontract, fetch <peer>). Every exchange keeps one rule: a sampled request
// records into a detached tree, which ship sends back; any other records on the
// attached tracer and ships nothing, so a shared tracer sees each subtree once.
type step struct {
	*nodeObs
	name string
	sp   *obs.Span
	tc   obs.TraceContext // the request's
	t0   time.Time        // zero for a step that keeps no duration
}

func (o *nodeObs) open(name string, tc obs.TraceContext) step {
	tr := o.tracer
	if tc.Sampled {
		tr = obs.NewTracer()
	}
	return step{nodeObs: o, name: name, sp: tr.Start(o.id, name), tc: tc}
}

func (o *nodeObs) rfbReceived(rfb trading.RFB) step {
	o.rfbs.Inc()
	x := o.open("request-bids", rfb.Trace)
	x.sp.Set("rfb", rfb.RFBID)
	x.sp.Set("queries", len(rfb.Queries))
	return x
}

func (o *nodeObs) improveReceived(req trading.ImproveReq) step {
	x := o.open("improve-bids", req.Trace)
	if x.sp != nil { // attributes box their values: not on the unrecorded path
		x.sp.Set("rfb", req.RFBID)
	}
	return x
}

// purchaseReceived opens an opening Execute. The quote of so, the offer it
// buys (nil once gone from the book), goes next to the actuals delivery adds:
// est-vs-actual for the buyer's flight dossier.
func (o *nodeObs) purchaseReceived(req trading.ExecReq, so *standingOffer) step {
	o.execs.Inc()
	x := o.open("execute", req.Trace)
	x.sp.Set("sql", req.SQL)
	if so != nil && x.sp != nil {
		x.sp.Set("est_rows", so.offer.Props.Rows)
		x.sp.Set("quoted_ms", so.offer.Props.TotalTime)
	}
	return x
}

func (o *nodeObs) batchRequested(cursor string, req trading.ExecReq) step {
	x := o.open("fetch-batch", req.Trace)
	if x.sp != nil {
		x.sp.Set("cursor", cursor)
		x.sp.Set("seq", req.Seq)
	}
	return x
}

// ran records which plan an execution opens, the one its offer was priced with
// or one planned from its text: whether quoted_ms is about the plan that ran.
func (x step) ran(priced bool) {
	if priced { // constant attribute values: boxing them allocates nothing
		x.execsPriced.Inc()
		x.sp.Set("plan", "priced")
	} else {
		x.execsText.Inc()
		x.sp.Set("plan", "text")
	}
}

// ship closes an exchange with what its reply carries, n offers or rows (an
// opening Execute also its wall time so far), and returns the subtree the
// reply ships, kept in the trace log for RequestBids and an opening Execute.
func (x step) ship(what string, n int, wallMS float64) *obs.SpanPayload {
	opens := x.name == "request-bids" || x.name == "execute"
	if x.sp != nil {
		x.sp.Set(what, n)
		if x.name == "execute" {
			x.sp.Set("exec_ms", wallMS)
		}
	}
	x.sp.End()
	if !x.tc.Sampled {
		return nil
	}
	p := x.sp.Payload()
	if opens {
		x.traceLog.Record(p)
	}
	return p
}

// fail closes a step that failed: an exchange then ships no subtree.
func (x step) fail(err error) {
	x.sp.Set("error", err)
	x.sp.End()
}

func (x step) phase(name string) step {
	return step{nodeObs: x.nodeObs, name: name, sp: x.sp.Child(name), tc: x.tc, t0: time.Now()}
}

// cacheHit reports a text the price cache held: S1 and S2 are its entry's.
func (x step) cacheHit(e *pricecache.Entry) {
	x.cacheHits.Inc()
	ph := step{nodeObs: x.nodeObs, name: "dp-pricing", sp: x.sp.Child("dp-pricing")} // no DP ran
	ph.sp.Set("cache", "hit")
	ph.end(e)
}

// dpPricing opens the modified DP of a text the price cache, when the node
// keeps one (cached), did not hold.
func (x step) dpPricing(cached bool) step {
	ph := x.phase("dp-pricing")
	if cached {
		ph.sp.Set("cache", "miss")
	}
	return ph
}

// end closes a pricing step with S1 and S2's entry as it stands: a failed
// step says why, the DP how many partials it retained — each is a draft now.
func (p step) end(e *pricecache.Entry) {
	switch {
	case e == nil:
	case e.Err != nil:
		p.sp.Set("error", e.Err)
	case p.name == "dp-pricing" && p.sp != nil:
		partials := 0
		for i := range e.Drafts {
			if e.Drafts[i].Kind == "o" {
				partials++
			}
		}
		p.sp.Set("partials", partials)
	}
	p.sp.End()
	if !p.t0.IsZero() {
		p.phaseMS[p.name].Observe(msSince(p.t0))
	}
}

// negotiate runs a subcontract step's nested negotiation under it.
func (p step) negotiate(proto trading.Protocol, rfb trading.RFB, to trading.Sellers) ([]trading.Offer, int, error) {
	return proto.Collect(rfb, to, p.sp)
}

// fetch runs one exchange with a subcontractor, guarded by pol, as a step of
// x, stamping the request so the subcontractor's subtree grafts under it.
func (x step) fetch(peerID string, peer deliverer, pol *trading.FaultPolicy, req trading.ExecReq) (trading.ExecResp, error) {
	ph := x.phase("fetch " + peerID)
	req.Trace = x.tc.Under(ph.sp.ID())
	resp, err := trading.GuardCall(pol, peerID, func() (trading.ExecResp, error) { return peer.Execute(req) })
	if err != nil {
		ph.sp.Set("error", err)
	} else {
		ph.sp.Graft(resp.Trace, ph.t0, time.Now())
	}
	ph.sp.End()
	return resp, err
}

// priced reports a query priced since t0: its offers, and whether S1 and S2
// came from the price cache.
func (o *nodeObs) priced(rfb trading.RFB, qid string, offers int, cached bool, t0 time.Time) {
	d := msSince(t0)
	o.priceMS.Observe(d)
	o.ledger.Priced(rfb.RFBID, rfb.BuyerID, o.id, qid, offers, cached, d)
}

func (o *nodeObs) cacheMiss()          { o.cacheMisses.Inc() }
func (o *nodeObs) cacheEvicted(k int)  { o.cacheEvictions.Add(int64(k)) }
func (o *nodeObs) coalesced()          { o.pricingsCoalesced.Inc() }
func (o *nodeObs) unsold()             { o.rewritesEmpty.Inc() }
func (o *nodeObs) minted(kind string)  { o.offersBy[kind].Inc() }
func (o *nodeObs) won()                { o.offersWon.Inc() }
func (o *nodeObs) rfbQueued()          { o.rfbsQueued.Inc() }              // a Depth-0 RFB waits for admission:
func (o *nodeObs) rfbsWaiting(n int64) { o.rfbQueueDepth.Set(float64(n)) } // n such RFBs wait,
func (o *nodeObs) rfbsHolding(n int64) { o.rfbsInflight.Set(float64(n)) }  // n hold a slot

// delivered reports a delivery that ended (completed, closed, failed, evicted)
// with its whole wall time and, when it served an offer, the Served event.
func (o *nodeObs) delivered(sc *serverCursor, served bool) {
	o.execMS.Observe(sc.wall)
	if served && sc.offerID != "" {
		o.ledger.Served(sc.rfbID, o.id, sc.offerID, sc.sql, sc.wall, sc.rows, sc.bytes)
	}
}

// transition records a lifecycle move in the ledger's membership stream.
func (o *nodeObs) transition(to trading.NodeState, reason string) {
	kind := map[trading.NodeState]string{trading.StateDraining: ledger.KindDrain,
		trading.StateActive: ledger.KindUndrain, trading.StateLeft: ledger.KindLeave}[to]
	o.ledger.Lifecycle(kind, o.id, reason)
}

// swapObs installs a copy of the current observer with edit applied. The
// setters may race each other and in-flight calls: a call keeps the observer
// it loaded, and no setter undoes another's field.
func (n *Node) swapObs(edit func(*nodeObs)) {
	for {
		old := n.obsv.Load()
		next := nodeObs{id: n.cfg.ID}
		if old != nil {
			next = *old
		}
		edit(&next)
		if n.obsv.CompareAndSwap(old, &next) {
			return
		}
	}
}

// SetObs attaches a tracer and a metrics registry, whose names it prefixes
// "node.<id>." (nil detaches either). Safe to call concurrently with serving.
func (n *Node) SetObs(tr *obs.Tracer, m *obs.Metrics) {
	p := "node." + n.cfg.ID + "."
	c := func(name string) *obs.Counter { return m.Counter(p + name) }
	inst := nodeObs{id: n.cfg.ID, tracer: tr,
		rfbs: c("rfbs"), rewritesEmpty: c("rewrites_empty"), offersWon: c("offers_won"),
		offersBy: map[string]*obs.Counter{"o": c("offers_priced"), "v": c("offers_view"),
			"a": c("offers_partialagg"), "s": c("offers_subcontract")},
		execs: c("execs"), execsPriced: c("execs_priced"), execsText: c("execs_text"),
		cacheHits: c("pricecache_hits"), cacheMisses: c("pricecache_misses"), cacheEvictions: c("pricecache_evictions"),
		pricingsCoalesced: c("pricings_coalesced"), rfbsQueued: c("rfbs_queued"),
		rfbQueueDepth: m.Gauge(p + "rfb_queue_depth"), rfbsInflight: m.Gauge(p + "rfbs_inflight"),
		phaseMS: map[string]*obs.Histogram{}, priceMS: m.Histogram(p + "price_ms"), execMS: m.Histogram(p + "exec_ms"),
	}
	for name, hist := range sellerPhases {
		inst.phaseMS[name] = m.Histogram(p + hist)
	}
	n.swapObs(func(o *nodeObs) {
		inst.ledger, inst.traceLog = o.ledger, o.traceLog
		*o = inst
	})
}

// SetLedger attaches a trading ledger for the node's seller-side events:
// pricing (with price-cache provenance), served answers, lifecycle. Nil detaches.
func (n *Node) SetLedger(l *ledger.Ledger) { n.swapObs(func(o *nodeObs) { o.ledger = l }) }

// SetTraceLog attaches a trace log that retains the most recent sampled
// subtrees this node shipped, for /trace/last. Nil detaches.
func (n *Node) SetTraceLog(l *obs.TraceLog) { n.swapObs(func(o *nodeObs) { o.traceLog = l }) }

// SetFaultPolicy attaches (nil detaches) the fault policy guarding the node's
// subcontract exchanges. Unlike SetObs it is not synchronized against
// in-flight calls: call it during federation setup.
func (n *Node) SetFaultPolicy(p *trading.FaultPolicy) { n.cfg.Faults = p }

// msSince converts an elapsed interval to histogram milliseconds.
func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Microseconds()) / 1000 }
