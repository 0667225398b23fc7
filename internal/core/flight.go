package core

import (
	"time"

	"qtrade/internal/exec"
	"qtrade/internal/flight"
	"qtrade/internal/ledger"
	"qtrade/internal/obs"
	"qtrade/internal/plan"
)

// Flight-recorder integration: Optimize snapshots what the negotiation knew
// (identity, wall, the optimize span) into a flightCapture riding on the
// Result; the one execution finalizer (streamHandle.Close, which every
// execution and each recovery re-run ends in) then assembles the full dossier
// from the capture plus the execution's own actuals and admits it. Re-runs of
// the same negotiation replace the earlier dossier (the recorder dedupes by
// ID), so the retained capture always reflects the final outcome with the
// complete ledger chain.

// flightCapture carries a negotiation's identity from Optimize into the
// execution finalizer.
type flightCapture struct {
	rec        *flight.Recorder
	id         string // negotiation id: the first RFB id, matching the ledger
	start      time.Time
	optimizeMS float64
	optSpan    *obs.Span
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
	d := &flight.Dossier{
		ID: fc.id, Buyer: res.BuyerID, SQL: res.SQL, Start: fc.start,
		OptimizeMS: fc.optimizeMS, ExecMS: execMS, WallMS: fc.optimizeMS + execMS,
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
	// Measured side and the recovery audit trail come from the negotiation's
	// ledger chain (empty Negotiation when no ledger is configured).
	d.Ledger = res.LedgerRec.Snapshot()
	for _, e := range d.Ledger.Events {
		switch e.Kind {
		case ledger.KindFetch:
			d.FetchMS += e.WallMS
			d.WireBytes += e.Bytes
		case ledger.KindRecovery:
			d.Recoveries = append(d.Recoveries, flight.Recovery{
				Failed: e.Err, Substitute: e.Seller, OfferID: e.OfferID, Reason: e.Reason,
			})
		}
	}
	if d.QuotedMS > 0 {
		measured := d.FetchMS
		if measured == 0 {
			// No remote purchases delivered (all-local plan, or no ledger to
			// itemize fetches): the execution wall is the closest measurement.
			measured = execMS
		}
		d.CostRatio = measured / d.QuotedMS
	}
	var walk func(n plan.Node, depth int)
	walk = func(n plan.Node, depth int) {
		op := flight.OpStat{Op: n.Describe(), Depth: depth, EstRows: -1}
		if est, ok := plan.EstOf(n); ok {
			op.EstRows = est
		}
		if a, ok := st.Get(n); ok {
			op.Executed = true
			op.Rows = a.RowsOut
			op.RowsIn = a.RowsIn
			op.Calls = a.Calls
			op.TimeMS = float64(a.Elapsed.Microseconds()) / 1000
			if op.EstRows >= 0 {
				// +1 smoothing keeps zero-row operators comparable instead of
				// dividing by zero.
				est, act := float64(op.EstRows)+1, float64(a.RowsOut)+1
				r := est / act
				if r < 1 {
					r = act / est
				}
				op.ErrRatio = r
				if r > d.CardError {
					d.CardError = r
				}
			}
		}
		d.Operators = append(d.Operators, op)
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(res.Candidate.Root, 0)
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
	fc.rec.Admit(d)
}
