// Package ledger is the trading ledger: a bounded in-memory record of every
// negotiation's economic life — RFB issued, bids received (with the seller's
// quoted cost, asking price and price-cache provenance), round outcomes,
// awards, execution with measured actuals, and recovery substitutions. The
// span tracer (internal/obs) answers "where did the time go"; the ledger
// answers "did the money match": it ties each seller's quoted cost to the
// wall time the buyer actually measured fetching the purchased answer, which
// is the signal load-aware pricing and seller-trust heuristics need.
//
// Everything is nil-safe: a nil *Ledger hands out nil *Rec handles and every
// recording method on either is a no-op, so disabled instrumentation
// compiles down to a nil check and adds zero allocations on the negotiation
// hot path (pinned by TestDisabledLedgerZeroAlloc).
package ledger

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event kinds, in the order they typically appear in one negotiation.
const (
	KindRFB       = "rfb"        // buyer issued an RFB (one per iteration)
	KindBid       = "bid"        // buyer received one offer
	KindRound     = "round"      // one trading-protocol collection finished
	KindAward     = "award"      // buyer purchased an offer (B8)
	KindExecStart = "exec_start" // buyer began executing the winning plan
	KindExec      = "exec"       // buyer finished executing (measured actuals)
	KindFetch     = "fetch"      // buyer fetched one purchased answer
	KindRecovery  = "recovery"   // delivery failure patched by a standing offer
	KindPriced    = "priced"     // seller priced one RFB query (cost model, no execution)
	KindServed    = "served"     // seller executed a purchased answer
	KindJoin      = "join"       // a node joined the federation
	KindDrain     = "drain"      // a node began draining (no new RFBs)
	KindUndrain   = "undrain"    // a drain was cancelled
	KindLeave     = "leave"      // a node left the federation
	KindAnomaly   = "anomaly"    // watchdog flagged a metrics window
)

// Event is one entry in a negotiation's stream. Fields are populated per
// kind; zero-valued fields are omitted from the JSONL export.
type Event struct {
	Seq      int64     `json:"seq"`
	Kind     string    `json:"kind"`
	At       time.Time `json:"at"`
	Iter     int       `json:"iter,omitempty"`   // buyer iteration (1-based)
	Rounds   int       `json:"rounds,omitempty"` // protocol rounds in a collection
	Seller   string    `json:"seller,omitempty"`
	QID      string    `json:"qid,omitempty"`
	OfferID  string    `json:"offer,omitempty"`
	SQL      string    `json:"sql,omitempty"`
	QuotedMS float64   `json:"quoted_ms,omitempty"` // seller's estimated total cost
	Price    float64   `json:"price,omitempty"`     // seller's asking price
	CacheHit bool      `json:"cache_hit,omitempty"` // priced from the seller's price cache
	WallMS   float64   `json:"wall_ms,omitempty"`   // measured wall time
	SellerMS float64   `json:"seller_ms,omitempty"` // seller-measured execution time
	Rows     int64     `json:"rows,omitempty"`
	Bytes    int64     `json:"bytes,omitempty"`
	Offers   int       `json:"offers,omitempty"` // offers in a bid/round/pricing batch
	Pool     int       `json:"pool,omitempty"`   // buyer pool size after the round
	Queries  int       `json:"queries,omitempty"`
	Err      string    `json:"err,omitempty"`
	Reason   string    `json:"reason,omitempty"` // failure class on recovery events (crash/drain/timeout/…), anomaly type on watchdog events
	Window   int64     `json:"window,omitempty"` // metrics-history window seq on anomaly events
}

// Negotiation is one RFB sequence's full event chain, exported as a single
// JSON object per negotiation.
type Negotiation struct {
	ID      string    `json:"id"` // first RFBID, or the buyer-seq handle
	Buyer   string    `json:"buyer"`
	SQL     string    `json:"sql,omitempty"`
	Start   time.Time `json:"start"`
	Awarded bool      `json:"awarded"`
	Events  []Event   `json:"events"`
}

// Rec is the buyer-side handle for one negotiation. A nil Rec (from a nil
// or unset Ledger) is valid; every method is a no-op.
type Rec struct {
	l    *Ledger
	mu   sync.Mutex
	n    Negotiation
	rfbs []string // the RFBIDs indexed under this record; guarded by l.mu
}

// Ledger is a bounded ring of negotiations plus the calibration aggregates
// built from their events. Safe for concurrent use by many buyers and
// sellers.
type Ledger struct {
	mu    sync.Mutex
	cap   int
	seq   int64
	negs  []*Rec          // ring, oldest first
	byRFB map[string]*Rec // every RFBID seen → owning record
	life  []Event         // membership events (join/drain/undrain/leave), oldest first
	anoms []Event         // watchdog anomaly events, oldest first
	cal   calibrator
}

// DefaultCapacity is the ring size used when New is given cap <= 0.
const DefaultCapacity = 128

// New returns a ledger retaining the last capacity negotiations
// (DefaultCapacity when capacity <= 0). Calibration aggregates are not
// bounded by the ring: they accumulate over every negotiation ever seen.
func New(capacity int) *Ledger {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	l := &Ledger{cap: capacity, byRFB: map[string]*Rec{}}
	l.cal.init()
	return l
}

func (l *Ledger) nextSeq() int64 {
	// Callers hold either l.mu or the owning Rec's mutex; take l.mu only
	// for the counter so Rec appends don't serialize on the ledger lock.
	l.mu.Lock()
	l.seq++
	s := l.seq
	l.mu.Unlock()
	return s
}

// insertLocked adds r to the ring, evicting the oldest negotiation (and its
// RFB index entries) once past capacity. Caller holds l.mu.
func (l *Ledger) insertLocked(r *Rec) {
	l.negs = append(l.negs, r)
	if len(l.negs) > l.cap {
		old := l.negs[0]
		l.negs = l.negs[1:]
		for _, id := range old.rfbs {
			if l.byRFB[id] == old {
				delete(l.byRFB, id)
			}
		}
	}
}

// indexLocked files rfbID under r, which remembers it for its eviction.
// Caller holds l.mu.
func (l *Ledger) indexLocked(rfbID string, r *Rec) {
	l.byRFB[rfbID] = r
	r.rfbs = append(r.rfbs, rfbID)
}

// Begin opens a negotiation record for one buyer optimization. Nil-safe:
// a nil ledger returns a nil Rec whose methods are all no-ops.
func (l *Ledger) Begin(buyer, sql string) *Rec {
	if l == nil {
		return nil
	}
	r := &Rec{l: l}
	r.n = Negotiation{Buyer: buyer, SQL: sql, Start: time.Now()}
	l.mu.Lock()
	l.insertLocked(r)
	l.mu.Unlock()
	return r
}

func (r *Rec) append(e Event) {
	e.Seq = r.l.nextSeq()
	e.At = time.Now()
	r.mu.Lock()
	r.n.Events = append(r.n.Events, e)
	r.mu.Unlock()
}

// RFBIssued records one iteration's RFB and indexes the RFBID so seller
// events for it land in this record. The first RFBID names the negotiation.
func (r *Rec) RFBIssued(rfbID string, iter, queries int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.n.ID == "" {
		r.n.ID = rfbID
	}
	r.mu.Unlock()
	r.l.mu.Lock()
	r.l.indexLocked(rfbID, r)
	r.l.mu.Unlock()
	r.append(Event{Kind: KindRFB, Iter: iter, Queries: queries})
}

// Bid records one received offer and counts it toward the seller's
// calibration bid tally.
func (r *Rec) Bid(iter int, seller, qid, offerID string, quotedMS, price float64) {
	if r == nil {
		return
	}
	r.append(Event{Kind: KindBid, Iter: iter, Seller: seller, QID: qid,
		OfferID: offerID, QuotedMS: quotedMS, Price: price})
	r.l.cal.bid(seller)
}

// Round records the outcome of one trading-protocol collection: how many
// protocol rounds ran, how many offers came back, the pool size after
// dedup, and the collection's wall time (observed into PhaseRounds).
func (r *Rec) Round(iter, rounds, offers, pool int, wallMS float64) {
	if r == nil {
		return
	}
	r.append(Event{Kind: KindRound, Iter: iter, Rounds: rounds,
		Offers: offers, Pool: pool, WallMS: wallMS})
	r.l.cal.phase(PhaseRounds, wallMS)
}

// Award records one B8 purchase and counts the seller's win.
func (r *Rec) Award(seller, qid, offerID string, quotedMS, price float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.n.Awarded = true
	r.mu.Unlock()
	r.append(Event{Kind: KindAward, Seller: seller, QID: qid,
		OfferID: offerID, QuotedMS: quotedMS, Price: price})
	r.l.cal.win(seller)
}

// ExecStarted marks the beginning of winning-plan execution.
func (r *Rec) ExecStarted() {
	if r == nil {
		return
	}
	r.append(Event{Kind: KindExecStart})
}

// ExecFinished records the measured end-to-end execution: wall time, rows
// delivered to the buyer, and the error if it failed.
func (r *Rec) ExecFinished(wallMS float64, rows int64, errStr string) {
	if r == nil {
		return
	}
	r.append(Event{Kind: KindExec, WallMS: wallMS, Rows: rows, Err: errStr})
	r.l.cal.phase(PhaseExecute, wallMS)
}

// Fetch records one purchased answer's delivery with the buyer-measured
// wall time (network included), the seller's own measured execution time
// from ExecResp, and the payload size. A successful fetch with a positive
// quote feeds the seller's quoted-vs-actual calibration.
func (r *Rec) Fetch(seller, offerID, sql string, quotedMS, wallMS, sellerMS float64, rows, bytes int64, errStr string) {
	if r == nil {
		return
	}
	r.append(Event{Kind: KindFetch, Seller: seller, OfferID: offerID, SQL: sql,
		QuotedMS: quotedMS, WallMS: wallMS, SellerMS: sellerMS,
		Rows: rows, Bytes: bytes, Err: errStr})
	r.l.cal.phase(PhaseFetch, wallMS)
	if errStr == "" && quotedMS > 0 {
		r.l.cal.observe(seller, quotedMS, wallMS)
	}
}

// Recovery records a delivery failure patched in place: the failed seller's
// purchase replaced by an equivalent standing offer from another seller.
// reason classifies why the original seller failed ("crash", "drain",
// "timeout", "breaker", "error", or "" when unknown).
func (r *Rec) Recovery(failedSeller, subSeller, offerID, reason string) {
	if r == nil {
		return
	}
	r.append(Event{Kind: KindRecovery, Seller: subSeller, Err: failedSeller,
		OfferID: offerID, Reason: reason})
}

// ObservePhase feeds one buyer-side phase latency sample (award loop,
// plangen, …) into the calibration breakdown without adding an event.
func (r *Rec) ObservePhase(p Phase, ms float64) {
	if r == nil {
		return
	}
	r.l.cal.phase(p, ms)
}

// Snapshot returns a deep copy of the negotiation recorded so far — the
// flight recorder folds it into a query dossier at execution end without
// holding any ledger locks afterwards. Nil-safe (empty Negotiation).
func (r *Rec) Snapshot() Negotiation {
	if r == nil {
		return Negotiation{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	neg := r.n
	neg.Events = append([]Event(nil), r.n.Events...)
	return neg
}

// recFor finds the record owning rfbID, opening a seller-local one when the
// RFB was issued by a remote buyer whose ledger this process cannot see.
func (l *Ledger) recFor(rfbID, buyer string) *Rec {
	l.mu.Lock()
	defer l.mu.Unlock()
	if r, ok := l.byRFB[rfbID]; ok {
		return r
	}
	r := &Rec{l: l}
	r.n = Negotiation{ID: rfbID, Buyer: buyer, Start: time.Now()}
	l.insertLocked(r)
	l.indexLocked(rfbID, r)
	return r
}

// Priced records the seller side of one RFB query: how many offers the
// cost model produced, whether the valuation came from the price cache,
// and the pricing wall time (observed into PhasePricing).
func (l *Ledger) Priced(rfbID, buyer, seller, qid string, offers int, cacheHit bool, wallMS float64) {
	if l == nil {
		return
	}
	r := l.recFor(rfbID, buyer)
	r.append(Event{Kind: KindPriced, Seller: seller, QID: qid,
		Offers: offers, CacheHit: cacheHit, WallMS: wallMS})
	l.cal.phase(PhasePricing, wallMS)
}

// Served records the seller side of one purchased answer's execution.
func (l *Ledger) Served(rfbID, seller, offerID, sql string, wallMS float64, rows, bytes int64) {
	if l == nil {
		return
	}
	if rfbID == "" {
		rfbID = "-"
	}
	r := l.recFor(rfbID, "")
	r.append(Event{Kind: KindServed, Seller: seller, OfferID: offerID,
		SQL: sql, WallMS: wallMS, Rows: rows, Bytes: bytes})
}

// ObservePhase feeds one phase latency sample directly (seller-side rewrite
// and pricing, where no Rec handle exists).
func (l *Ledger) ObservePhase(p Phase, ms float64) {
	if l == nil {
		return
	}
	l.cal.phase(p, ms)
}

// Lifecycle records a federation membership event (join, drain, undrain,
// leave) for the named node, outside any negotiation. reason carries
// operator context ("sigterm", "operator", …) and may be empty. The stream
// is bounded by the same capacity as the negotiation ring. Nil-safe.
func (l *Ledger) Lifecycle(kind, node, reason string) {
	if l == nil {
		return
	}
	e := Event{Kind: kind, Seller: node, Reason: reason, At: time.Now()}
	e.Seq = l.nextSeq()
	l.mu.Lock()
	l.life = append(l.life, e)
	if len(l.life) > l.cap {
		l.life = l.life[1:]
	}
	l.mu.Unlock()
}

// Anomaly records one watchdog finding, outside any negotiation: reason
// names the anomaly type ("p95_regression", "recovery_spike",
// "pricecache_hitrate_drop", "calibration_drift"), metric the instrument
// that tripped it, value/baseline the compared magnitudes, and windowSeq the
// metrics-history window that was judged. Bounded by the ring capacity.
// Nil-safe.
func (l *Ledger) Anomaly(reason, metric string, value, baseline float64, windowSeq int64) {
	if l == nil {
		return
	}
	e := Event{Kind: KindAnomaly, Reason: reason, QID: metric,
		WallMS: value, QuotedMS: baseline, Window: windowSeq, At: time.Now()}
	e.Seq = l.nextSeq()
	l.mu.Lock()
	l.anoms = append(l.anoms, e)
	if len(l.anoms) > l.cap {
		l.anoms = l.anoms[1:]
	}
	l.mu.Unlock()
}

// Anomalies returns copies of the retained watchdog events, oldest first.
// Nil-safe.
func (l *Ledger) Anomalies() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.anoms...)
}

// LifecycleEvents returns copies of the retained membership events, oldest
// first. Nil-safe.
func (l *Ledger) LifecycleEvents() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.life...)
}

// Len reports how many negotiations the ring currently retains.
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.negs)
}

// Negotiations returns copies of the last n retained negotiations, oldest
// first (all of them when n <= 0). Events within each negotiation are
// ordered as recorded; Seq is globally monotonic across negotiations.
func (l *Ledger) Negotiations(n int) []Negotiation {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	recs := append([]*Rec(nil), l.negs...)
	l.mu.Unlock()
	if n > 0 && n < len(recs) {
		recs = recs[len(recs)-n:]
	}
	out := make([]Negotiation, 0, len(recs))
	for _, r := range recs {
		r.mu.Lock()
		neg := r.n
		neg.Events = append([]Event(nil), r.n.Events...)
		r.mu.Unlock()
		out = append(out, neg)
	}
	return out
}

// WriteJSONL exports the last n retained negotiations (all when n <= 0) as
// one JSON object per line, oldest first, followed — when any membership
// events were recorded — by one synthetic "lifecycle" object carrying the
// join/drain/undrain/leave stream.
func (l *Ledger) WriteJSONL(w io.Writer, n int) error {
	enc := json.NewEncoder(w)
	for _, neg := range l.Negotiations(n) {
		if err := enc.Encode(neg); err != nil {
			return err
		}
	}
	if life := l.LifecycleEvents(); len(life) > 0 {
		if err := enc.Encode(Negotiation{ID: "lifecycle", Events: life}); err != nil {
			return err
		}
	}
	if anoms := l.Anomalies(); len(anoms) > 0 {
		return enc.Encode(Negotiation{ID: "anomalies", Events: anoms})
	}
	return nil
}
