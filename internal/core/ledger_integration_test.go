package core

import (
	"fmt"
	"strings"
	"testing"

	"qtrade/internal/exec"
	"qtrade/internal/ledger"
	"qtrade/internal/netsim"
	"qtrade/internal/obs"
	"qtrade/internal/trading"
)

// TestLedgerAuditsNegotiationEndToEnd: with a shared ledger on buyer and
// sellers, one optimize+execute cycle must leave a complete negotiation
// record — RFB out, bids in, rounds, awards, seller-side pricing, execution
// and fetches with measured actuals — and the calibration layer must see
// every seller that bid.
func TestLedgerAuditsNegotiationEndToEnd(t *testing.T) {
	f := buildFederation(t, nil)
	led := ledger.New(8)
	f.athens.SetLedger(led)
	f.corfu.SetLedger(led)
	f.myc.SetLedger(led)
	want := oracle(t, f.sch, paperQuery)

	cfg := athensCfg(f)
	cfg.Ledger = led
	res, got := optimizeAndRun(t, f, cfg, paperQuery)
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("answer differs:\ngot  %v\nwant %v", got, want)
	}
	if res.LedgerRec == nil {
		t.Fatal("result must carry its ledger record")
	}

	negs := led.Negotiations(0)
	if len(negs) != 1 {
		t.Fatalf("negotiations: %d", len(negs))
	}
	n := negs[0]
	if !n.Awarded || n.Buyer != "athens" || n.ID == "" {
		t.Fatalf("negotiation header: %+v", n)
	}
	kinds := map[string]int{}
	for _, e := range n.Events {
		kinds[e.Kind]++
	}
	for _, k := range []string{ledger.KindRFB, ledger.KindBid, ledger.KindRound,
		ledger.KindAward, ledger.KindPriced, ledger.KindExecStart,
		ledger.KindExec, ledger.KindFetch} {
		if kinds[k] == 0 {
			t.Fatalf("no %q event in %v", k, kinds)
		}
	}
	// Fetches must carry measured actuals joined to the quoted estimate.
	quoted := 0
	for _, e := range n.Events {
		if e.Kind == ledger.KindFetch && e.Err == "" {
			if e.Rows == 0 || e.Seller == "" {
				t.Fatalf("fetch event incomplete: %+v", e)
			}
			if e.QuotedMS > 0 {
				quoted++
			}
		}
	}
	if quoted == 0 {
		t.Fatal("no fetch joined a quoted estimate")
	}

	rep := led.Calibration()
	if rep.Negotiations != 1 {
		t.Fatalf("report negotiations: %d", rep.Negotiations)
	}
	bySeller := map[string]ledger.SellerReport{}
	for _, s := range rep.Sellers {
		bySeller[s.Seller] = s
	}
	execs := int64(0)
	for _, id := range []string{"corfu", "myconos"} {
		s, ok := bySeller[id]
		if !ok || s.Bids == 0 {
			t.Fatalf("seller %s missing from calibration: %+v", id, rep.Sellers)
		}
		execs += s.Execs
	}
	if execs == 0 {
		t.Fatalf("no measured execution reached calibration: %+v", rep.Sellers)
	}
}

// TestLedgerCalibrationSeparatesASlowSeller: a seller made slow by a per-call
// delay the cost model knows nothing of must stand out in the calibration
// report — its mean measured/quoted ratio at least twice what the same
// seller shows undisturbed.
func TestLedgerCalibrationSeparatesASlowSeller(t *testing.T) {
	meanRatio := func(slow map[string]float64) float64 {
		f := buildFederation(t, nil)
		f.net.SetFaultPlan(&netsim.FaultPlan{SlowNodeMS: slow})
		led := ledger.New(8)
		f.corfu.SetLedger(led)
		f.myc.SetLedger(led)
		cfg := athensCfg(f)
		cfg.Ledger = led
		for i := 0; i < 4; i++ {
			optimizeAndRun(t, f, cfg, paperQuery)
		}
		for _, s := range led.Calibration().Sellers {
			if s.Seller == "corfu" && s.Execs > 0 {
				return s.MeanRatio
			}
		}
		t.Fatalf("corfu has no measured execution: %+v", led.Calibration().Sellers)
		return 0
	}
	base := meanRatio(nil)
	slow := meanRatio(map[string]float64{"corfu": 10})
	if base <= 0 || slow < 2*base {
		t.Fatalf("slow seller not separated: corfu's mean ratio %.2f undisturbed, %.2f slowed", base, slow)
	}
}

// TestLedgerRecordsRecovery mirrors TestFallbackSubstitution with a ledger
// attached: when a crashed seller's purchases are patched from standing
// offers, the negotiation record must show the substitution.
func TestLedgerRecordsRecovery(t *testing.T) {
	f := buildFederation(t, nil)
	q := "SELECT i.invid, i.charge FROM invoiceline i WHERE i.charge > 4"
	led := ledger.New(8)

	cfg := athensCfg(f)
	cfg.Metrics = obs.NewMetrics()
	cfg.Faults = testPolicy(cfg.Metrics)
	cfg.Ledger = led

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
	found := false
	for _, n := range led.Negotiations(0) {
		for _, e := range n.Events {
			if e.Kind == ledger.KindRecovery {
				if e.Err != winner || e.Seller == winner || e.Seller == "" {
					t.Fatalf("recovery event should substitute away from %s: %+v", winner, e)
				}
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no recovery event recorded")
	}
}

// recoveryReason runs one crash-or-drain delivery failure through
// OptimizeAndExecute with a ledger attached and returns the Reason recorded
// on the resulting recovery event.
func recoveryReason(t *testing.T, deliverErr func(to string) error) string {
	t.Helper()
	f := buildFederation(t, nil)
	q := "SELECT i.invid, i.charge FROM invoiceline i WHERE i.charge > 4"
	led := ledger.New(8)

	cfg := athensCfg(f)
	cfg.Metrics = obs.NewMetrics()
	cfg.Faults = testPolicy(cfg.Metrics)
	cfg.Ledger = led

	comm := &NetComm{Net: f.net, SelfID: "athens"}
	res, err := Optimize(cfg, comm, q)
	if err != nil {
		t.Fatal(err)
	}
	winner := res.Candidate.Offers[0].SellerID
	fail := &failDeliver{Comm: comm, victim: winner, mkErr: deliverErr}

	if _, _, _, err := OptimizeAndExecute(cfg, fail,
		&exec.Executor{Store: f.athens.Store()}, q, 2); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	for _, n := range led.Negotiations(0) {
		for _, e := range n.Events {
			if e.Kind == ledger.KindRecovery {
				return e.Reason
			}
		}
	}
	t.Fatal("no recovery event recorded")
	return ""
}

// failDeliver fails every Fetch to the victim with a caller-supplied error.
type failDeliver struct {
	Comm
	victim string
	mkErr  func(to string) error
}

func (c *failDeliver) Fetch(to string, req trading.ExecReq) (trading.ExecResp, error) {
	if to == c.victim {
		return trading.ExecResp{}, c.mkErr(to)
	}
	return c.Comm.Fetch(to, req)
}

// TestRecoveryEventsClassifyFailureReason pins the audit trail's why-column
// (the satellite-3 regression: a crash between award and fetch used to
// surface as a generic error). A crash lands a recovery event with Reason
// "crash" — whether typed or flattened to text by an RPC boundary — and a
// typed drain rejection lands "drain".
func TestRecoveryEventsClassifyFailureReason(t *testing.T) {
	typedCrash := func(to string) error {
		return trading.MarkTransient(fmt.Errorf("netsim: node %q crashed: %w", to, trading.ErrPeerCrashed))
	}
	if r := recoveryReason(t, typedCrash); r != "crash" {
		t.Fatalf("typed crash classified %q, want \"crash\"", r)
	}
	flattenedCrash := func(to string) error { return fmt.Errorf("node %s crashed", to) }
	if r := recoveryReason(t, flattenedCrash); r != "crash" {
		t.Fatalf("flattened crash classified %q, want \"crash\"", r)
	}
	drain := func(to string) error {
		return trading.MarkTransient(fmt.Errorf("node %s: execute refused: %w", to, trading.ErrDraining))
	}
	if r := recoveryReason(t, drain); r != "drain" {
		t.Fatalf("drain rejection classified %q, want \"drain\"", r)
	}
}
