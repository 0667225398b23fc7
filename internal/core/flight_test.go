package core

import (
	"runtime"
	"testing"

	"qtrade/internal/exec"
	"qtrade/internal/flight"
	"qtrade/internal/ledger"
	"qtrade/internal/node"
	"qtrade/internal/obs"
	"qtrade/internal/plan"
	"qtrade/internal/stats"
	"qtrade/internal/trading"
	"qtrade/internal/value"
)

// flightCfg is athensCfg with the full observability stack and a flight
// recorder attached.
func flightCfg(f *federation) (Config, *flight.Recorder) {
	rec := flight.NewRecorder(8)
	cfg := athensCfg(f)
	cfg.Tracer = obs.NewTracer()
	cfg.Metrics = obs.NewMetrics()
	cfg.Ledger = ledger.New(8)
	cfg.Flight = rec
	return cfg, rec
}

// optimizeAndRunTraced is optimizeAndRun via ExecuteResultTraced, so the
// execution carries its own span tree into the dossier.
func optimizeAndRunTraced(t *testing.T, f *federation, cfg Config, sql string) *Result {
	t.Helper()
	comm := &NetComm{Net: f.net, SelfID: "athens"}
	res, err := Optimize(cfg, comm, sql)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	if _, err := ExecuteResultTraced(comm, &exec.Executor{Store: f.athens.Store()}, res, cfg.Tracer); err != nil {
		t.Fatalf("execute: %v\n%s", err, ExplainResult(res))
	}
	return res
}

// TestFlightDossierEndToEnd: one optimize+execute cycle with the recorder on
// must leave exactly one dossier unifying spans, ledger events, per-operator
// est-vs-actual and quoted-vs-measured cost — the acceptance shape.
func TestFlightDossierEndToEnd(t *testing.T) {
	f := buildFederation(t, nil)
	led := ledger.New(8)
	f.corfu.SetLedger(led)
	f.myc.SetLedger(led)
	cfg, rec := flightCfg(f)
	cfg.Ledger = led

	res := optimizeAndRunTraced(t, f, cfg, paperQuery)

	if n := len(rec.Recent(0)); n != 1 {
		t.Fatalf("dossiers: %d", n)
	}
	d := rec.Recent(1)[0]
	if d.ID == "" || d.ID != led.Negotiations(0)[0].ID {
		t.Fatalf("dossier id must match the ledger negotiation: %q", d.ID)
	}
	if got := rec.Get(d.ID); got == nil || got.ID != d.ID || got.WallMS != d.WallMS {
		t.Fatal("Get by id")
	}
	if d.Buyer != "athens" || d.SQL == "" || d.Start.IsZero() {
		t.Fatalf("header: %+v", d)
	}
	if d.OptimizeMS <= 0 || d.ExecMS <= 0 || d.WallMS != d.OptimizeMS+d.ExecMS {
		t.Fatalf("walls: opt=%v exec=%v wall=%v", d.OptimizeMS, d.ExecMS, d.WallMS)
	}
	if d.QuotedMS <= 0 || d.QuotedPrice <= 0 || d.CostRatio <= 0 {
		t.Fatalf("quoted-vs-measured: %+v", d)
	}
	if d.Rows == 0 || d.WireBytes == 0 || d.FetchMS <= 0 {
		t.Fatalf("delivery actuals: rows=%d bytes=%d fetch=%v", d.Rows, d.WireBytes, d.FetchMS)
	}

	// The full ledger chain rides inside.
	kinds := map[string]int{}
	for _, e := range d.Ledger.Events {
		kinds[e.Kind]++
	}
	for _, k := range []string{ledger.KindRFB, ledger.KindBid, ledger.KindAward,
		ledger.KindExecStart, ledger.KindExec, ledger.KindFetch} {
		if kinds[k] == 0 {
			t.Fatalf("dossier ledger missing %q: %v", k, kinds)
		}
	}

	// Per-operator est-vs-actual: every executed operator has actual rows,
	// remote leaves carry the sellers' estimates.
	if len(d.Operators) == 0 {
		t.Fatal("no operators")
	}
	executed, withEst := 0, 0
	for _, op := range d.Operators {
		if op.Executed {
			executed++
		}
		if op.EstRows >= 0 {
			withEst++
		}
		if op.Op == "" {
			t.Fatalf("unnamed operator: %+v", op)
		}
	}
	if executed == 0 || withEst == 0 {
		t.Fatalf("operators lack actuals or estimates: %+v", d.Operators)
	}
	if d.CardError < 1 {
		t.Fatalf("card error must be >= 1 once est and actual met: %v", d.CardError)
	}

	// Both span trees present: the optimize root and the execute root, the
	// latter with grafted seller execute subtrees (est-vs-actual attrs from
	// the seller side).
	if len(d.Spans) != 2 || d.Spans[0].Name != "optimize" || d.Spans[1].Name != "execute" {
		t.Fatalf("span roots: %+v", spanNames(d.Spans))
	}
	if d.Spans[1].Unfinished {
		t.Fatal("execute span copy must be stamped closed")
	}
	var sellerExec *obs.SpanPayload
	var find func(p *obs.SpanPayload)
	find = func(p *obs.SpanPayload) {
		if p.Name == "execute" && p.Source != "athens" {
			sellerExec = p
		}
		for _, c := range p.Children {
			find(c)
		}
	}
	find(d.Spans[1])
	if sellerExec == nil {
		t.Fatalf("no grafted seller execute span under the buyer's execute root")
	}
	attrs := map[string]bool{}
	for _, a := range sellerExec.Attrs {
		attrs[a.Key] = true
	}
	for _, k := range []string{"rows", "exec_ms", "est_rows", "quoted_ms"} {
		if !attrs[k] {
			t.Fatalf("seller execute span missing %q: %+v", k, sellerExec.Attrs)
		}
	}
	_ = res
}

func spanNames(ps []*obs.SpanPayload) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// TestFlightDossierStreamed: the cursor path must finalize the dossier at
// Close with the rows actually pulled, including from streamed fetches.
func TestFlightDossierStreamed(t *testing.T) {
	f := buildFederation(t, nil)
	cfg, rec := flightCfg(f)
	cfg.FetchBatchRows = 2
	comm := &NetComm{Net: f.net, SelfID: "athens"}
	res, err := Optimize(cfg, comm, paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	cur, _, err := ExecuteResultStream(comm, &exec.Executor{Store: f.athens.Store()}, res, cfg.Tracer)
	if err != nil {
		t.Fatal(err)
	}
	rows := int64(0)
	for {
		b, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 {
			break
		}
		rows += int64(len(b))
	}
	if len(rec.Recent(0)) != 0 {
		t.Fatal("dossier must not exist before Close")
	}
	cur.Close()
	if len(rec.Recent(0)) != 1 {
		t.Fatalf("dossiers after close: %d", len(rec.Recent(0)))
	}
	d := rec.Recent(1)[0]
	if d.Rows != rows || rows == 0 {
		t.Fatalf("streamed dossier rows: %d pulled %d", d.Rows, rows)
	}
	if d.ExecMS <= 0 || d.WireBytes == 0 {
		t.Fatalf("streamed actuals: %+v", d)
	}
	ops := 0
	for _, op := range d.Operators {
		if op.Executed {
			ops++
		}
	}
	if ops == 0 {
		t.Fatal("streamed run must still collect per-operator actuals")
	}
}

// TestFlightRecoveryDossier: a crash-then-substitute execution must end as
// ONE dossier (the re-run replaces the partial capture) carrying the
// recovery audit and the recovery trigger.
func TestFlightRecoveryDossier(t *testing.T) {
	f := buildFederation(t, nil)
	q := "SELECT i.invid, i.charge FROM invoiceline i WHERE i.charge > 4"
	cfg, rec := flightCfg(f)
	cfg.Faults = testPolicy(cfg.Metrics)

	comm := &NetComm{Net: f.net, SelfID: "athens"}
	res, err := Optimize(cfg, comm, q)
	if err != nil {
		t.Fatal(err)
	}
	winner := res.Candidate.Offers[0].SellerID
	crash := &crashOnDeliver{Comm: comm, victim: winner, onCrash: func() {}}

	if _, _, _, err := OptimizeAndExecute(cfg, crash,
		&exec.Executor{Store: f.athens.Store()}, q, 2); err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	// Two Optimize calls ran (the probe above and the one inside
	// OptimizeAndExecute) but only the latter executed — executions admit.
	if len(rec.Recent(0)) != 1 {
		t.Fatalf("dossiers: %d (re-runs must replace, not append)", len(rec.Recent(0)))
	}
	d := rec.Recent(1)[0]
	if d.Err != "" {
		t.Fatalf("final dossier must reflect the recovered success: %+v", d)
	}
	if len(d.Recoveries) == 0 {
		t.Fatal("no recovery in dossier")
	}
	r := d.Recoveries[0]
	if r.Failed != winner || r.Substitute == "" || r.Substitute == winner || r.Reason != "crash" {
		t.Fatalf("recovery: %+v", r)
	}
	if !hasTrigger(d.Triggers, flight.TrigRecovery) {
		t.Fatalf("recovery dossier must be flagged: %v", d.Triggers)
	}
	if slow := rec.Slow(0); len(slow) != 1 || slow[0].ID != d.ID {
		t.Fatalf("the flagged dossier must be listed once: %d dossiers", len(slow))
	}
}

func hasTrigger(ts []string, want string) bool {
	for _, s := range ts {
		if s == want {
			return true
		}
	}
	return false
}

// TestFlightDisabled: without a recorder nothing is captured and no RunStats
// are attached (the off switch really is off).
func TestFlightDisabled(t *testing.T) {
	f := buildFederation(t, nil)
	cfg := athensCfg(f)
	comm := &NetComm{Net: f.net, SelfID: "athens"}
	res, err := Optimize(cfg, comm, paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.flight != nil {
		t.Fatal("no capture without a recorder")
	}
	ex, cleanup := buildPlanExecutor(&streamHandle{to: reach(comm, res), res: res}, &exec.Executor{Store: f.athens.Store()})
	cleanup()
	if ex.Stats != nil {
		t.Fatal("RunStats must not be attached without a recorder")
	}
}

// TestFlightCardBlowoutTrigger: a seller whose estimate is badly stale must
// produce a card_blowout-flagged dossier via the per-operator error — both
// for a synthetic dossier against a perfect model and end to end, where the
// same query over fresh statistics sets the recorder's norm and trips
// nothing.
func TestFlightCardBlowoutTrigger(t *testing.T) {
	d := &ledger.Dossier{
		Operators: []ledger.OpStat{{Op: "Remote", EstRows: 1, Rows: 100, Executed: true, ErrRatio: 50.5}},
		CardError: 50.5,
	}
	got := flight.Triggers{}.Evaluate(d, nil)
	if !hasTrigger(got, flight.TrigCardError) {
		t.Fatalf("card blowout: %v", got)
	}

	// End to end: both invoiceline replicas grow to 66 rows.
	f := buildFederation(t, nil)
	replicas := []*node.Node{f.corfu, f.myc}
	for _, n := range replicas {
		for i := 0; i < 60; i++ {
			row := value.Row{value.NewInt(int64(200 + i)), value.NewInt(1), value.NewInt(1), value.NewFloat(1)}
			if err := n.Store().Insert("invoiceline", "p0", row); err != nil {
				t.Fatal(err)
			}
		}
	}
	cfg, rec := flightCfg(f)
	q := "SELECT i.invid, i.charge FROM invoiceline i"
	optimizeAndRunTraced(t, f, cfg, q)
	if fresh := rec.Recent(1)[0]; len(fresh.Triggers) != 0 {
		t.Fatalf("fresh statistics tripped %v (card error %.1f)", fresh.Triggers, fresh.CardError)
	}
	// Stale: every replica's statistics claim the fragment's first row only.
	inv, _ := f.sch.Table("invoiceline")
	for _, n := range replicas {
		var first []value.Row
		if err := n.Store().Scan("invoiceline", "p0", nil, func(r value.Row) bool {
			first = append(first, r)
			return false
		}); err != nil {
			t.Fatal(err)
		}
		if err := n.Store().SetFragmentStats("invoiceline", "p0", stats.FromRows(inv, first)); err != nil {
			t.Fatal(err)
		}
	}
	optimizeAndRunTraced(t, f, cfg, q)
	if stale := rec.Recent(1)[0]; !hasTrigger(stale.Triggers, flight.TrigCardError) {
		t.Fatalf("stale statistics tripped %v (card error %.1f), want %s", stale.Triggers, stale.CardError, flight.TrigCardError)
	}
	if admitted, flagged := rec.Stats(); admitted != 2 || flagged != 1 {
		t.Fatalf("admitted %d dossiers and flagged %d, want one per query and the stale one", admitted, flagged)
	}
}

// TestAdmitCopiesNoEvents: finishing an execution and admitting its dossier
// reads the negotiation's running sums and files the dossier on its record,
// so the bytes it allocates do not grow with the record's event chain.
func TestAdmitCopiesNoEvents(t *testing.T) {
	allocated := func(events int) uint64 {
		least := ^uint64(0)
		for try := 0; try < 3; try++ {
			lr := ledger.New(0).Begin("athens", "SELECT 1")
			lr.RFBIssued("athens-rfb-copy", 1, 1)
			for i := 1; i < events; i++ {
				lr.Fetch("corfu", "o1", "SELECT 1", 1, 1, 1, 1, 64, "")
			}
			res := &Result{SQL: "SELECT 1", BuyerID: "athens", LedgerRec: lr,
				Candidate: Candidate{Root: &plan.Empty{}},
				flight:    &flightCapture{rec: flight.NewRecorder(0), id: "athens-rfb-copy"}}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			finalizeFlight(res, nil, nil, 1, 1, nil)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	if small, large := allocated(10), allocated(1000); large > small {
		t.Fatalf("admitting a dossier allocated %d bytes for a 1000-event record, %d for a 10-event one: the event chain is copied", large, small)
	}
}

var _ = trading.ExecReq{} // keep the import for crashOnDeliver's package
