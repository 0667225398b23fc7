// Package flight is the query flight recorder. A query's dossier
// (ledger.Dossier: the grafted span tree, per-operator est-vs-actual rows,
// quoted-vs-measured cost, wire bytes, recovery reasons, and the event chain
// of the record it is filed on) is its ledger record's outcome, so "why was
// that query slow" is answered by one GET instead of a three-way join.
//
// The recorder keeps no dossiers: only its trigger rules (latency SLO
// breach, any recovery, cost-ratio outlier, cardinality blowout), a worst-K
// set of flagged records and its counters; /debug/queries, \slow and
// SlowQueries are views over the ledger. A nil *Recorder is a valid off
// switch (pinned by TestDisabledRecorderZeroAlloc), and internal/core skips
// dossier assembly when Config.Flight or Config.Ledger is nil.
package flight

import (
	"slices"
	"sort"
	"sync"

	"qtrade/internal/ledger"
)

// Trigger names, as they appear in ledger.Dossier.Triggers and /debug/queries.
const (
	TrigSlow        = "slow_slo"     // wall time reached the latency SLO
	TrigRecovery    = "recovery"     // execution needed a recovery substitution
	TrigCostOutlier = "cost_outlier" // measured/quoted cost ratio outside band
	TrigCardError   = "card_blowout" // an operator's est/actual rows error blew past the threshold
)

// Triggers are the outlier-capture rules. Besides the latency SLO they
// hold, every dossier is judged by three fixed rules: any recovery, a
// quoted-vs-measured cost ratio at or beyond CostRatioFactor either way, and
// a cardinality error at or beyond CardErrorFactor. The zero value disables
// the latency SLO.
type Triggers struct {
	// SlowMS is the latency SLO in milliseconds: a dossier whose WallMS is
	// greater than OR EQUAL to it trips TrigSlow (exactly-at-SLO breaches).
	// 0 disables the rule.
	SlowMS float64
}

// The trigger factors: a seller off by 4× on cost (a dossier whose CostRatio
// is >= 4 or <= 1/4 trips TrigCostOutlier) or a planner off by 8× on
// cardinality (a dossier whose CardError, the worst per-operator
// est-vs-actual rows ratio, is >= 8 trips TrigCardError) is worth keeping.
const (
	CostRatioFactor = 4.0
	CardErrorFactor = 8.0
)

// Evaluate returns the trigger names d trips, in declaration order. Pure —
// the trigger-edge tests drive it directly.
func (t Triggers) Evaluate(d *ledger.Dossier) []string {
	var out []string
	if t.SlowMS > 0 && d.WallMS >= t.SlowMS {
		out = append(out, TrigSlow)
	}
	if len(d.Recoveries) > 0 {
		out = append(out, TrigRecovery)
	}
	if d.CostRatio > 0 && (d.CostRatio >= CostRatioFactor || d.CostRatio <= 1/CostRatioFactor) {
		out = append(out, TrigCostOutlier)
	}
	if d.CardError >= CardErrorFactor {
		out = append(out, TrigCardError)
	}
	return out
}

// DefaultWorstK sizes a NewRecorder outlier set when k <= 0.
const DefaultWorstK = 16

// Recorder is the capture policy over a ledger (see Admit). Safe for
// concurrent use; a nil *Recorder no-ops everywhere.
type Recorder struct {
	mu       sync.Mutex
	worstK   int
	trig     Triggers
	led      *ledger.Ledger // the ledger the admitted records belong to
	outliers []*ledger.Rec  // worst (highest WallMS) first
	admitted int64
	flagged  int64
}

// NewRecorder returns a recorder keeping the k worst outliers
// (DefaultWorstK when k <= 0), with default triggers (no latency SLO until
// SetTriggers arms one).
func NewRecorder(k int) *Recorder {
	if k <= 0 {
		k = DefaultWorstK
	}
	return &Recorder{worstK: k}
}

// SetTriggers replaces the outlier-capture rules (applies to dossiers
// admitted from now on). Nil-safe.
func (r *Recorder) SetTriggers(t Triggers) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.trig = t
	r.mu.Unlock()
}

// Triggers returns the active rules (zero value for nil).
func (r *Recorder) Triggers() Triggers {
	if r == nil {
		return Triggers{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trig
}

// Admit stamps d with the triggers it trips and files it on rec, replacing an
// earlier execution's (a recovery re-run); a flagged record joins the worst-K
// set, which outlives the ledger ring. rec owns d after Admit. Without a
// record (no ledger) nothing is kept. Nil-safe.
func (r *Recorder) Admit(rec *ledger.Rec, d *ledger.Dossier) {
	if r == nil || rec == nil || d == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	d.Triggers = r.trig.Evaluate(d)
	rec.Finish(d)
	r.led = rec.Ledger()
	r.admitted++
	r.outliers = slices.DeleteFunc(r.outliers, func(o *ledger.Rec) bool { return o == rec })
	if len(d.Triggers) == 0 {
		return
	}
	r.flagged++
	at := sort.Search(len(r.outliers), func(i int) bool { return r.outliers[i].Outcome().WallMS < d.WallMS })
	r.outliers = slices.Insert(r.outliers, at, rec)
	if len(r.outliers) > r.worstK {
		r.outliers = r.outliers[:r.worstK]
	}
}

// view reads the ledger and a copy of the outlier set.
func (r *Recorder) view() (*ledger.Ledger, []*ledger.Rec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.led, append([]*ledger.Rec(nil), r.outliers...)
}

// dossiers reads each record's dossier, its ledger chain filled in.
func dossiers(recs []*ledger.Rec) []*ledger.Dossier {
	out := make([]*ledger.Dossier, len(recs))
	for i, rec := range recs {
		out[i] = rec.Dossier()
	}
	return out
}

// Recent returns the dossiers of up to n of the ledger's newest records that
// carry one, newest first (all the ring holds when n <= 0).
func (r *Recorder) Recent(n int) []*ledger.Dossier {
	if r == nil {
		return nil
	}
	led, _ := r.view()
	return dossiers(led.Finished(n))
}

// Slow merges the outlier set and the ledger's records carrying a dossier
// (outliers win ties), each record once, and returns up to n dossiers sorted
// slowest first — the qtsql \slow and Federation.SlowQueries view.
func (r *Recorder) Slow(n int) []*ledger.Dossier {
	if r == nil {
		return nil
	}
	led, recs := r.view()
	outs := len(recs)
	for _, rec := range led.Finished(0) {
		if !slices.Contains(recs[:outs], rec) {
			recs = append(recs, rec)
		}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Outcome().WallMS > recs[j].Outcome().WallMS })
	if n > 0 && n < len(recs) {
		recs = recs[:n]
	}
	return dossiers(recs)
}

// Get returns the dossier of the negotiation named id: through the ledger's
// id index, then the outlier set (nil when evicted or never captured).
func (r *Recorder) Get(id string) *ledger.Dossier {
	if r == nil || id == "" {
		return nil
	}
	led, outs := r.view()
	for _, rec := range append([]*ledger.Rec{led.Lookup(id)}, outs...) {
		if d := rec.Outcome(); d != nil && d.ID == id {
			return rec.Dossier()
		}
	}
	return nil
}

// Stats reports how many dossiers were admitted ever and how many tripped
// at least one trigger.
func (r *Recorder) Stats() (admitted, flagged int64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.admitted, r.flagged
}
