package core

import (
	"strings"
	"testing"

	"qtrade/internal/obs"
	"qtrade/internal/trading"
)

// TestDirectoryGatesFanout pins the buyer side of the elastic lifecycle: a
// shared peer directory learns from call outcomes — successful exchanges
// refresh last-seen, a drain rejection marks the peer draining — and the
// next negotiation excludes the draining peer before spending a round-trip.
// Undraining the node restores it to the fan-out through the same feedback
// loop once a call reaches it again.
func TestDirectoryGatesFanout(t *testing.T) {
	// Competitive sellers force improvement rounds, so the directory feedback
	// wrapper sees both RequestBids and ImproveBids outcomes.
	f := buildFederation(t, func() trading.SellerStrategy { return trading.NewCompetitive() })
	want := oracle(t, f.sch, paperQuery)

	cfg := athensCfg(f)
	cfg.Metrics = obs.NewMetrics()
	cfg.Faults = testPolicy(cfg.Metrics)
	cfg.Directory = cfg.Faults.Directory
	cfg.Protocol = trading.IterativeBid{MaxRounds: 2}

	// Healthy federation: both island sellers answer, the directory records
	// the successful contacts.
	_, got := optimizeAndRun(t, f, cfg, paperQuery)
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("answer differs:\ngot  %v\nwant %v", got, want)
	}
	for _, id := range []string{"corfu", "myconos"} {
		if cfg.Directory.State(id) != trading.StateActive {
			t.Fatalf("%s should be active after a clean exchange", id)
		}
	}
	seen := false
	for _, p := range cfg.Directory.Snapshot() {
		if p.ID == "corfu" && !p.LastSeen.IsZero() {
			seen = true
		}
	}
	if !seen {
		t.Fatalf("successful contact must refresh last-seen: %+v", cfg.Directory.Snapshot())
	}

	// Corfu drains. The invoiceline replica lives on both islands, so a
	// query over it alone still succeeds — and the drain rejection corfu
	// answers with must land in the directory.
	f.corfu.Drain("elastic scale-down")
	q := "SELECT i.invid, i.charge FROM invoiceline i WHERE i.charge > 4"
	wantInv := oracle(t, f.sch, q)
	_, got = optimizeAndRun(t, f, cfg, q)
	if strings.Join(got, "|") != strings.Join(wantInv, "|") {
		t.Fatalf("answer around the draining seller differs:\ngot  %v\nwant %v", got, wantInv)
	}
	// Corfu still answered the improvement round (empty reply, by design) —
	// that success must NOT read as an undrain: the RequestBids rejection is
	// the authoritative signal and the mark must stick.
	if cfg.Directory.State("corfu") != trading.StateDraining {
		t.Fatalf("drain rejection must mark corfu draining, got %v", cfg.Directory.State("corfu"))
	}

	// Next negotiation: corfu is excluded before the RFB fan-out.
	res, err := Optimize(cfg, &NetComm{Net: f.net, SelfID: "athens"}, q)
	if err != nil {
		t.Fatalf("gated optimize: %v", err)
	}
	for _, o := range res.Pool {
		if o.SellerID == "corfu" {
			t.Fatalf("draining seller must be out of the pool: %+v", o)
		}
	}

	// The node undrains; the buyer only learns once traffic reaches it
	// again, so clear the stale mark the way AddNode/UndrainNode do and
	// verify corfu sells again.
	f.corfu.Undrain()
	cfg.Directory.MarkState("corfu", trading.StateActive)
	res, err = Optimize(cfg, &NetComm{Net: f.net, SelfID: "athens"}, q)
	if err != nil {
		t.Fatalf("optimize after undrain: %v", err)
	}
	fromCorfu := false
	for _, o := range res.Pool {
		if o.SellerID == "corfu" {
			fromCorfu = true
		}
	}
	if !fromCorfu {
		t.Fatal("undrained seller must bid again")
	}
}
