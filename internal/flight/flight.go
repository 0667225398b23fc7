// Package flight is the query flight recorder. A query's dossier
// (ledger.Dossier: the grafted span tree, per-operator est-vs-actual rows,
// quoted-vs-measured cost, wire bytes, recovery reasons, and the event chain
// of the record it is filed on) is its ledger record's outcome, so "why was
// that query slow" is answered by one GET instead of a three-way join.
//
// The recorder keeps no dossiers: only its trigger rules (latency SLO
// breach, any recovery, cost-ratio outlier, cardinality blowout, the last two
// judged against the federation's running norm), a worst-K set of flagged
// records and its counters; /debug/queries, \slow and
// SlowQueries are views over the ledger. A nil *Recorder is a valid off
// switch (pinned by TestDisabledRecorderZeroAlloc), and internal/core skips
// dossier assembly when Config.Flight or Config.Ledger is nil.
package flight

import (
	"math"
	"slices"
	"sort"
	"sync"

	"qtrade/internal/ledger"
)

// Trigger names, as they appear in ledger.Dossier.Triggers and /debug/queries.
const (
	TrigSlow        = "slow_slo"     // wall time reached the latency SLO
	TrigRecovery    = "recovery"     // execution needed a recovery substitution
	TrigCostOutlier = "cost_outlier" // measured/quoted cost ratio outside the band around its norm
	TrigCardError   = "card_blowout" // an operator's est/actual rows error blew past the threshold
)

// Triggers are the outlier-capture rules. Besides the latency SLO they
// hold, every dossier is judged by three fixed rules: any recovery, a
// quoted-vs-measured cost ratio CostRatioFactor or more off its norm either
// way, and a cardinality error CardErrorFactor or more above its norm (see
// Norm). The zero value disables the latency SLO.
type Triggers struct {
	// SlowMS is the latency SLO in milliseconds: a dossier whose WallMS is
	// greater than OR EQUAL to it trips TrigSlow (exactly-at-SLO breaches).
	// 0 disables the rule.
	SlowMS float64
}

// The trigger factors: a query whose seller is off on cost by 4× more than
// usual (a CostRatio >= 4 or <= 1/4 times its norm trips TrigCostOutlier) or
// whose planner is off on cardinality by 8× more than usual (a CardError, the
// worst per-operator est-vs-actual rows ratio, >= 8 times its norm trips
// TrigCardError) is worth keeping.
const (
	CostRatioFactor = 4.0
	CardErrorFactor = 8.0
)

// Norm is where the federation's quotes and estimates usually land: a running
// norm of log CostRatio and of log CardError over the dossiers judged against
// it, each kept by the watchdog's rule (baseline: the first value seeds it, a
// query that trips is not folded in). Judging against the norm rather than a
// perfect model matters because the cost model is uniformly off: in process,
// execution runs 10–70× below its quote, so a fixed band flags every query.
// The zero Norm has seen nothing.
type Norm struct{ cost, card baseline }

// logSlack keeps a ratio exactly at a factor of its norm on the tripping side
// of the band once both are logarithms.
const logSlack = 1e-9

// Evaluate returns the trigger names d trips, in declaration order, judging
// its cost ratio and cardinality error against n and folding them into it. A
// nil n is a perfect model (both ratios 1) that does not move.
func (t Triggers) Evaluate(d *ledger.Dossier, n *Norm) []string {
	if n == nil {
		n = &Norm{cost: baseline{seen: true}, card: baseline{seen: true}}
	}
	var out []string
	if t.SlowMS > 0 && d.WallMS >= t.SlowMS {
		out = append(out, TrigSlow)
	}
	if len(d.Recoveries) > 0 {
		out = append(out, TrigRecovery)
	}
	if v := math.Log(d.CostRatio); d.CostRatio > 0 && n.cost.judge(v, func(base float64) bool {
		return math.Abs(v-base) >= math.Log(CostRatioFactor)-logSlack
	}) {
		out = append(out, TrigCostOutlier)
	}
	if v := math.Log(d.CardError); d.CardError > 0 && n.card.judge(v, func(base float64) bool {
		return v-base >= math.Log(CardErrorFactor)-logSlack
	}) {
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
	norm     Norm           // of every dossier admitted
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

// Admit stamps d with the triggers it trips against the recorder's norm and
// files it on rec, replacing an earlier execution's (a recovery re-run); a
// flagged record joins the worst-K set, which outlives the ledger ring. rec
// owns d after Admit. Without a record (no ledger) nothing is kept. Nil-safe.
func (r *Recorder) Admit(rec *ledger.Rec, d *ledger.Dossier) {
	if r == nil || rec == nil || d == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	d.Triggers = r.trig.Evaluate(d, &r.norm)
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
