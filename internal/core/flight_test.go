package core

import (
	"testing"
	"time"

	"qtrade/internal/exec"
	"qtrade/internal/flight"
	"qtrade/internal/ledger"
	"qtrade/internal/obs"
	"qtrade/internal/trading"
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

	if n := rec.Len(); n != 1 {
		t.Fatalf("dossiers: %d", n)
	}
	d := rec.Recent(1)[0]
	if d.ID == "" || d.ID != led.Negotiations(0)[0].ID {
		t.Fatalf("dossier id must match the ledger negotiation: %q", d.ID)
	}
	if got := rec.Get(d.ID); got != d {
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
	if rec.Len() != 0 {
		t.Fatal("dossier must not exist before Close")
	}
	cur.Close()
	if rec.Len() != 1 {
		t.Fatalf("dossiers after close: %d", rec.Len())
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
	if rec.Len() != 1 {
		t.Fatalf("dossiers: %d (re-runs must replace, not append)", rec.Len())
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
	if len(rec.Outliers()) != 1 {
		t.Fatal("flagged dossier must land in the outlier set")
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

// TestFlightTailSampledDossier: with head sampling off and tail sampling on
// (obs.Sampling.TailSlower), a tail-kept slow query's dossier must still be
// complete — including the grafted seller subtrees, because collection runs
// regardless of the head decision.
func TestFlightTailSampledDossier(t *testing.T) {
	f := buildFederation(t, nil)
	cfg, rec := flightCfg(f)
	cfg.Sampling = &obs.Sampling{Mode: obs.SampleNever, TailSlower: time.Nanosecond}

	optimizeAndRunTraced(t, f, cfg, paperQuery)
	if rec.Len() != 1 {
		t.Fatalf("dossiers: %d", rec.Len())
	}
	d := rec.Recent(1)[0]
	if len(d.Spans) != 2 {
		t.Fatalf("tail-kept dossier must carry both span trees: %v", spanNames(d.Spans))
	}
	foundRemote := false
	var find func(p *obs.SpanPayload)
	find = func(p *obs.SpanPayload) {
		if p.Source != "" && p.Source != "athens" {
			foundRemote = true
		}
		for _, c := range p.Children {
			find(c)
		}
	}
	for _, p := range d.Spans {
		find(p)
	}
	if !foundRemote {
		t.Fatal("tail-kept dossier lost the seller subtrees")
	}

	// Head-sampling NEVER with no tail keeps execution untraced: the
	// dossier still assembles, with the optimize span but no remote graft.
	f2 := buildFederation(t, nil)
	cfg2, rec2 := flightCfg(f2)
	cfg2.Sampling = &obs.Sampling{Mode: obs.SampleNever}
	optimizeAndRunTraced(t, f2, cfg2, paperQuery)
	if rec2.Len() != 1 {
		t.Fatalf("never-sampled dossiers: %d", rec2.Len())
	}
	d2 := rec2.Recent(1)[0]
	if d2.Rows == 0 || len(d2.Operators) == 0 {
		t.Fatalf("never-sampled dossier incomplete: %+v", d2)
	}
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
// produce a card_blowout-flagged dossier via the per-operator error.
func TestFlightCardBlowoutTrigger(t *testing.T) {
	d := &flight.Dossier{
		Operators: []flight.OpStat{{Op: "Remote", EstRows: 1, Rows: 100, Executed: true, ErrRatio: 50.5}},
		CardError: 50.5,
	}
	got := flight.Triggers{}.Evaluate(d)
	if !hasTrigger(got, flight.TrigCardError) {
		t.Fatalf("card blowout: %v", got)
	}
}

var _ = trading.ExecReq{} // keep the import for crashOnDeliver's package
