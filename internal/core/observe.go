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
// boundary feeds every sink that wants that duration. Each phase's duration
// is kept once, by its histogram in the metrics registry (buyerPhases).

// The phases Optimize opens, in the order an iteration runs them.
const (
	phNegotiate = iota // B2/B3: the nested negotiation, from the RFB out to its offers in
	phSelfBids         // the buyer's own node bidding on what it owes
	phPlangen          // B4
	phAnalyse          // B5/B6
	phAward            // B8
	numPhases
)

// buyerPhases names each phase's span and the buyer.<id>.* histogram that
// keeps its durations.
var buyerPhases = [numPhases]struct{ span, hist string }{
	{"negotiate", "negotiate_ms"}, {"self-bids", "self_bids_ms"}, {"plangen", "plangen_ms"},
	{"analyse", "analyse_ms"}, {"award", "award_ms"},
}

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
	tctx obs.TraceContext // stamped on every RFB; zero without a tracer
	rec  *ledger.Rec      // nil without a ledger

	negID   string    // first RFB id: the negotiation's name in ledger and dossier
	iter    int       // current iteration, 1-based
	stop    string    // why the loop ended: stopUnchanged, stopPredicted or stopBound
	roundT0 time.Time // when the current RFB went out: the ledger's round wall starts here

	rfbsSent, offersRecv *obs.Counter
	poolSize             *obs.Gauge
	phaseMS              [numPhases]*obs.Histogram
	optimizeMS           *obs.Histogram // the whole negotiation
	executeMS, fetchMS   *obs.Histogram // stamped on the Result: a whole execution, one purchased answer
}

// newNegObs starts the negotiation's clock. Nothing is recorded until begin:
// a query that does not parse leaves no trace in any sink.
func newNegObs(cfg *Config) *negObs {
	return &negObs{cfg: cfg, start: time.Now()}
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
		for i, ph := range buyerPhases {
			o.phaseMS[i] = m.Histogram(p + ph.hist)
		}
		o.optimizeMS = m.Histogram(p + "optimize_ms")
		o.executeMS = m.Histogram(p + "execute_ms")
		o.fetchMS = m.Histogram(p + "fetch_ms")
	}
	o.rec = cfg.Ledger.Begin(cfg.ID, canonical)
	o.root = cfg.Tracer.Start(cfg.ID, "optimize")
	o.root.Set("sql", sql)
	o.cur = o.root
	// A traced negotiation ships trace data across the federation. Without a
	// tracer there is nothing to graft onto, so no context is minted: the zero
	// TraceContext gob-encodes (and accounts) byte-identically to a federation
	// without tracing.
	if cfg.Tracer != nil {
		o.tctx = obs.TraceContext{TraceID: obs.NewTraceID(cfg.ID), Sampled: true}
		o.root.Set("trace_id", o.tctx.TraceID)
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

// rfbIssued records the iteration's RFB (B2) — Q as it stands, each of the
// peers it goes to asked only what it owes of it — and opens the nested
// negotiation it starts as the "negotiate" phase.
func (o *negObs) rfbIssued(rfb trading.RFB, peers int) phase {
	if o.negID == "" {
		o.negID = rfb.RFBID
	}
	o.stats.RFBsSent += peers
	o.stats.QueriesAsked = len(rfb.Queries)
	o.rfbsSent.Add(int64(peers))
	o.rec.RFBIssued(rfb.RFBID, o.iter, len(rfb.Queries))
	ph := o.phase(phNegotiate)
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

// Why the trading loop stopped, as the optimize span's and the ledger
// record's "stop" attribute reads.
const (
	stopUnchanged = "unchanged" // B7, the paper's rule: neither the plan nor Q changed
	stopPredicted = "predicted" // B7's added clause: the plan priced from predicted offers does not beat the plan
	stopBound     = "bound"     // MaxIterations
)

// stopped records that B7 ended the loop after the analyser priced that many
// proposals: by the paper's rule when there were none to price, else because
// the plan they predicted did not beat the standing one.
func (o *negObs) stopped(priced int) {
	o.stop = stopUnchanged
	if priced > 0 {
		o.stop = stopPredicted
	}
}

// awarded records one purchase (B8).
func (o *negObs) awarded(of trading.Offer) {
	o.rec.Award(of.SellerID, of.QID, of.OfferID, of.Props.TotalTime, of.Price)
}

// done closes the negotiation's books and stamps what execution needs onto
// the Result: the Stats, the trace context, the ledger record, the execute_ms
// and fetch_ms histograms and — when there is a record to file the dossier
// on — the flight capture.
func (o *negObs) done(res *Result) *Result {
	if o.stop == "" && o.iter > 0 {
		o.stop = stopBound // the loop ran out of iterations
	}
	if o.stop != "" {
		o.root.Set("stop", o.stop)
		o.rec.Stopped(o.stop)
	}
	o.stats.EmptyBidResponses = int(o.empty.Load())
	o.stats.WallTime = time.Since(o.start)
	o.optimizeMS.Observe(ms(o.stats.WallTime))
	if o.negID == "" && o.rec != nil {
		// Proven empty before B1: no RFB named the negotiation, so its record
		// takes a name from the same sequence, filed like one.
		o.negID = nextRFBID(o.cfg.ID)
		o.rec.Name(o.negID)
	}
	res.Stats, res.TraceCtx, res.LedgerRec = o.stats, o.tctx, o.rec
	res.executeMS, res.fetchMS = o.executeMS, o.fetchMS
	if o.cfg.Flight != nil && o.rec != nil {
		res.flight = &flightCapture{rec: o.cfg.Flight, id: o.negID, start: o.start, optSpan: o.root}
	}
	return res
}

// phase is one timed step of the loop: a child span of the open iteration
// (of the root outside one) plus the clock read that end turns into the
// step's duration for its histogram.
type phase struct {
	o  *negObs
	id int // into buyerPhases
	sp *obs.Span
	t0 time.Time
}

// phase opens step id of buyerPhases (phNegotiate through rfbIssued).
func (o *negObs) phase(id int) phase {
	return phase{o: o, id: id, sp: o.cur.Child(buyerPhases[id].span), t0: time.Now()}
}

func (p phase) end() {
	p.sp.End()
	p.o.phaseMS[p.id].Observe(ms(time.Since(p.t0)))
}

// ms converts a duration to the milliseconds histograms and the ledger keep.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
