package core

import (
	"time"

	"qtrade/internal/exec"
	"qtrade/internal/flight"
	"qtrade/internal/ledger"
	"qtrade/internal/obs"
)

// Flight-recorder integration: Optimize snapshots what the negotiation knew
// (identity, wall, the optimize span) into a flightCapture riding on the
// Result; the one execution finalizer (streamHandle.Close, which every
// execution and each recovery re-run ends in) assembles the dossier from it
// and the execution's actuals, and files it on the negotiation's ledger
// record, where a re-run's replaces it.

// flightCapture carries a negotiation's identity from Optimize into the
// execution finalizer.
type flightCapture struct {
	rec     *flight.Recorder
	id      string // negotiation id: the first RFB id, matching the ledger
	start   time.Time
	optSpan *obs.Span
}

// finalizeFlight assembles and admits the dossier for one finished
// execution of res. execSpan is the execution's root span (nil untraced; it
// may still be open — the copy in the dossier is stamped closed). st holds
// the per-operator actuals (nil when no stats were collected), execMS the
// buyer-side execution wall, rows/execErr the outcome.
func finalizeFlight(res *Result, execSpan *obs.Span, st *exec.RunStats, execMS float64, rows int64, execErr error) {
	fc := res.flight
	if fc == nil || fc.rec == nil {
		return
	}
	optimizeMS := ms(res.Stats.WallTime)
	d := &ledger.Dossier{
		ID: fc.id, Buyer: res.BuyerID, SQL: res.SQL, Start: fc.start,
		OptimizeMS: optimizeMS, ExecMS: execMS, WallMS: optimizeMS + execMS,
		Rows: rows,
	}
	if execErr != nil {
		d.Err = execErr.Error()
	}
	// Quoted side: the winning purchases as they stand NOW — recovery
	// substitution patches res.Candidate.Offers in place, so a recovered
	// query's dossier prices the plan that actually ran.
	for _, o := range res.Candidate.Offers {
		d.QuotedMS += o.Props.TotalTime
		d.QuotedPrice += o.Price
	}
	// Measured side and the recovery audit trail: the negotiation's ledger
	// record keeps their sums as the events arrive.
	d.FetchMS, d.WireBytes, d.Recoveries = res.LedgerRec.Delivery()
	if d.QuotedMS > 0 {
		measured := d.FetchMS
		if measured == 0 {
			// No remote purchases delivered (all-local plan): the execution
			// wall is the closest measurement.
			measured = execMS
		}
		d.CostRatio = measured / d.QuotedMS
	}
	d.Operators, d.CardError = operatorStats(res, st)
	if p := fc.optSpan.Payload(); p != nil {
		d.Spans = append(d.Spans, p)
	}
	if p := execSpan.Payload(); p != nil {
		if p.Unfinished {
			// The execute span ends just after this finalizer returns (its
			// End is the caller's); stamp the dossier's copy closed so the
			// record is self-consistent.
			p.EndUS = time.Now().UnixMicro()
			p.Unfinished = false
		}
		d.Spans = append(d.Spans, p)
	}
	fc.rec.Admit(res.LedgerRec, d)
}
