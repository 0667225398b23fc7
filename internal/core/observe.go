package core

import (
	"sync/atomic"
	"time"

	"qtrade/internal/ledger"
	"qtrade/internal/obs"
	"qtrade/internal/trading"
)

// This file is the buyer's one observation seam. Optimize tells a negObs what
// happened in the paper's terms — an iteration began, an RFB went out, a
// phase ran, a round's offers were collected, a plan was chosen, an offer was
// awarded — and the observer alone turns that into spans, the buyer.<id>.*
// instruments, ledger events, the Stats handed back on the Result and the
// flight capture that execution finalizes. Every sink is nil-safe, so nothing
// here branches on which of them is switched on, and one clock read per
// boundary feeds every sink that wants that duration. A per-phase budget
// (ROADMAP item 6) lands in phase.end, not in Optimize.

// negObs observes one negotiation. It is used from Optimize's goroutine only,
// except for empty, which the round's call observer (sellers.round) bumps
// from the protocol's fan-out workers.
type negObs struct {
	cfg   *Config
	start time.Time
	stats Stats
	empty atomic.Int64 // RFB replies that carried no offers

	root *obs.Span        // "optimize"; nil without a tracer
	cur  *obs.Span        // what phases hang off: the open iteration, else root
	head bool             // head-sampling decision; true without a tracer
	tctx obs.TraceContext // stamped on every RFB; zero unless collecting
	rec  *ledger.Rec      // nil without a ledger

	negID   string    // first RFB id: the negotiation's name in ledger and dossier
	iter    int       // current iteration, 1-based
	roundT0 time.Time // when the current RFB went out: the ledger's round wall starts here

	rfbsSent, offersRecv  *obs.Counter
	poolSize              *obs.Gauge
	optimizeMS, plangenMS *obs.Histogram
}

// newNegObs starts the negotiation's clock. Nothing is recorded until begin:
// a query that does not parse leaves no trace in any sink.
func newNegObs(cfg *Config) *negObs {
	return &negObs{cfg: cfg, start: time.Now(), head: true}
}

// begin opens every sink for a query that parsed: sql is the text as given
// (the root span shows it), canonical its parsed rendering (the ledger's key).
// The caller defers close.
func (o *negObs) begin(sql, canonical string) {
	cfg := o.cfg
	if cfg.Metrics != nil { // nil instruments are no-ops; this only skips building their names
		m, p := cfg.Metrics, "buyer."+cfg.ID+"."
		m.Counter(p + "optimizations").Inc()
		o.rfbsSent = m.Counter(p + "rfbs_sent")
		o.offersRecv = m.Counter(p + "offers_received")
		o.poolSize = m.Gauge(p + "pool_size")
		o.optimizeMS = m.Histogram(p + "optimize_ms")
		o.plangenMS = m.Histogram(p + "plangen_ms")
	}
	o.rec = cfg.Ledger.Begin(cfg.ID, canonical)
	o.root = cfg.Tracer.Start(cfg.ID, "optimize")
	o.root.Set("sql", sql)
	o.cur = o.root
	// Head sampling decides up front whether this negotiation ships trace data
	// across the federation; tail sampling (Sampling.TailSlower) keeps
	// collection on regardless and done drops the finished trace if the
	// negotiation turned out fast. Without a tracer there is nothing to graft
	// onto, so no context is minted and the wire stays trace-free.
	if cfg.Tracer != nil {
		o.head = cfg.Sampling.SampleHead()
		if cfg.Sampling.Collect(o.head) {
			// Mint the context only when collecting: an unsampled negotiation
			// keeps the zero TraceContext, so its messages gob-encode (and
			// account) byte-identically to a federation without tracing.
			o.tctx = obs.TraceContext{TraceID: obs.NewTraceID(cfg.ID), Sampled: true}
			o.root.Set("trace_id", o.tctx.TraceID)
		}
	}
}

// close ends whatever spans an early return left open.
func (o *negObs) close() {
	o.cur.End()
	o.root.End()
}

// iteration opens trading iteration n (steps B1–B7 run under it).
func (o *negObs) iteration(n int) {
	o.iter, o.stats.Iterations = n, n
	o.cur = o.root.Child("iteration")
	o.cur.Set("iter", n)
}

// iterationEnd closes the open iteration; later phases hang off the root.
func (o *negObs) iterationEnd() {
	o.cur.End()
	o.cur = o.root
}

// rfbIssued records the RFB going out to peers sellers (B2) and opens the
// nested negotiation it starts as the "negotiate" phase.
func (o *negObs) rfbIssued(rfb trading.RFB, peers int) phase {
	if o.negID == "" {
		o.negID = rfb.RFBID
	}
	o.stats.RFBsSent += peers
	o.stats.QueriesAsked = len(rfb.Queries)
	o.rfbsSent.Add(int64(peers))
	o.rec.RFBIssued(rfb.RFBID, o.iter, len(rfb.Queries))
	ph := o.phase("negotiate")
	ph.sp.Set("peers", peers)
	o.roundT0 = ph.t0
	return ph
}

// collected records what the round brought in (B3): every offer received,
// sellers' and the buyer's own, and the standing pool's size once they were
// folded in.
func (o *negObs) collected(offers []trading.Offer, rounds, pool int) {
	wall := ms(time.Since(o.roundT0))
	o.stats.ProtocolRounds += rounds
	o.stats.OffersReceived += len(offers)
	o.stats.PoolSize = pool
	o.offersRecv.Add(int64(len(offers)))
	o.poolSize.Set(float64(pool))
	for i := range offers {
		of := &offers[i]
		o.rec.Bid(o.iter, of.SellerID, of.QID, of.OfferID, of.Props.TotalTime, of.Price)
		switch {
		case of.FromView:
			o.stats.ViewOffers++
		case of.PartialAgg:
			o.stats.PartialAggOffers++
		default:
			o.stats.OffersPriced++
		}
	}
	o.rec.Round(o.iter, rounds, len(offers), pool, wall)
}

// planned records the iteration's verdict (B4): whether its best candidate
// beat the standing one, and the value of the best plan so far.
func (o *negObs) planned(improved bool, bestValue float64) {
	if improved {
		o.stats.Improvements++
	}
	o.cur.Set("improved", improved)
	if o.cfg.OnIteration != nil {
		o.cfg.OnIteration(o.iter, bestValue, o.stats.PoolSize)
	}
}

// awarded records one purchase (B8).
func (o *negObs) awarded(of trading.Offer) {
	o.rec.Award(of.SellerID, of.QID, of.OfferID, of.Props.TotalTime, of.Price)
}

// done closes the negotiation's books and stamps what execution needs onto
// the Result: the Stats, the trace context, the ledger record and the flight
// capture.
func (o *negObs) done(res *Result) *Result {
	o.stats.EmptyBidResponses = int(o.empty.Load())
	o.stats.WallTime = time.Since(o.start)
	wall := ms(o.stats.WallTime)
	o.optimizeMS.Observe(wall)
	if !o.cfg.Sampling.Keep(o.head, o.stats.WallTime) {
		// Tail sampling: the negotiation was fast and head sampling said no —
		// drop the collected trace instead of retaining it.
		o.root.End()
		o.cfg.Tracer.DropRoot(o.root)
	}
	res.Stats, res.TraceCtx, res.LedgerRec = o.stats, o.tctx, o.rec
	if o.cfg.Flight != nil {
		res.flight = &flightCapture{rec: o.cfg.Flight, id: o.negID, start: o.start,
			optimizeMS: wall, optSpan: o.root}
	}
	return res
}

// phase is one timed step of the loop: a child span of the open iteration
// (of the root outside one) plus the clock read that end turns into the
// step's duration for the sinks that keep one.
type phase struct {
	o    *negObs
	name string
	sp   *obs.Span
	t0   time.Time
}

// phase opens the step called name: "negotiate" (through rfbIssued),
// "self-bids", "plangen", "analyse" or "award".
func (o *negObs) phase(name string) phase {
	return phase{o: o, name: name, sp: o.cur.Child(name), t0: time.Now()}
}

func (p phase) end() {
	p.sp.End()
	switch d := ms(time.Since(p.t0)); p.name {
	case "plangen":
		p.o.plangenMS.Observe(d)
	case "award":
		p.o.rec.ObservePhase(ledger.PhaseAward, d)
	}
}

// ms converts a duration to the milliseconds histograms and the ledger keep.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
