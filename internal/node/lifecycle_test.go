package node

import (
	"errors"
	"sync"
	"testing"
	"time"

	"qtrade/internal/ledger"
	"qtrade/internal/trading"
)

// Pre-RFB phase: a draining node refuses new Depth-0 negotiations with the
// typed transient drain rejection, but keeps pricing Depth>0 subcontract
// probes so negotiations it is already part of can finish.
func TestDrainRefusesNewDepth0RFBs(t *testing.T) {
	n := myconosNode(t, nil)
	n.Drain("operator")

	_, err := n.RequestBids(paperRFB())
	if err == nil {
		t.Fatal("draining node must refuse a Depth-0 RFB")
	}
	if !errors.Is(err, trading.ErrDraining) {
		t.Fatalf("rejection must wrap ErrDraining: %v", err)
	}
	if !trading.IsTransient(err) {
		t.Fatalf("rejection must be transient so buyers recover: %v", err)
	}
	if r := trading.FailureReason(err); r != "drain" {
		t.Fatalf("rejection classified %q, want \"drain\"", r)
	}

	probe := paperRFB()
	probe.Depth = 1
	offers, err := bidOffers(n.RequestBids(probe))
	if err != nil {
		t.Fatalf("Depth-1 subcontract probe must still be priced: %v", err)
	}
	if len(offers) == 0 {
		t.Fatal("draining node must still offer on subcontract probes")
	}
}

// Mid-round phase: a seller that starts draining after bidding stops
// competing — improvement rounds get an empty, non-error reply (its standing
// offers stay live at their current prices) — and resumes undercutting once
// the drain is cancelled.
func TestDrainMidRoundStopsCompeting(t *testing.T) {
	n := myconosNode(t, trading.NewCompetitive())
	offers, err := bidOffers(n.RequestBids(paperRFB()))
	if err != nil || len(offers) == 0 {
		t.Fatal(err)
	}
	undercut := trading.ImproveReq{RFBID: "rfb1",
		BestPrice: map[string]float64{"q0": offers[0].Price * 0.99}}

	n.Drain("operator")
	improved, err := bidOffers(n.ImproveBids(undercut))
	if err != nil {
		t.Fatalf("mid-round drain must not error the round: %v", err)
	}
	if len(improved) != 0 {
		t.Fatalf("draining seller must not compete, improved %d offers", len(improved))
	}

	if !n.Undrain() {
		t.Fatal("Undrain must cancel a drain")
	}
	improved, err = bidOffers(n.ImproveBids(undercut))
	if err != nil || len(improved) == 0 {
		t.Fatalf("undrained seller must compete again: %v, %d offers", err, len(improved))
	}
}

// Post-award and mid-fetch phases: an award placed against a standing offer
// is still accepted while draining, and the purchased answer is still
// delivered — in-flight work is exactly what the drain exists to finish.
func TestDrainHonorsInFlightAwards(t *testing.T) {
	n := myconosNode(t, nil)
	offers, err := bidOffers(n.RequestBids(paperRFB()))
	if err != nil || len(offers) == 0 {
		t.Fatal(err)
	}
	o := offers[0]

	n.Drain("operator")
	if err := n.Award(trading.Award{RFBID: "rfb1", OfferID: o.OfferID, BuyerID: "athens"}); err != nil {
		t.Fatalf("award against a standing offer must survive a drain: %v", err)
	}
	resp, err := n.Execute(trading.ExecReq{BuyerID: "athens", OfferID: o.OfferID, SQL: o.SQL})
	if err != nil {
		t.Fatalf("draining node must still deliver purchased answers: %v", err)
	}
	if len(resp.Cols) == 0 {
		t.Fatalf("delivery lost its schema: %+v", resp)
	}
}

// Left is final: everything is refused — including Depth>0 probes and
// deliveries — the standing-offer book is revoked, and the node cannot be
// undrained back.
func TestLeaveRefusesEverythingAndRevokes(t *testing.T) {
	n := myconosNode(t, nil)
	offers, err := bidOffers(n.RequestBids(paperRFB()))
	if err != nil || len(offers) == 0 {
		t.Fatal(err)
	}
	if h := n.Health(); h.StandingRFBs != 1 {
		t.Fatalf("standing RFBs before leave: %+v", h)
	}

	n.Leave("decommissioned")
	probe := paperRFB()
	probe.Depth = 1
	if _, err := n.RequestBids(probe); !errors.Is(err, trading.ErrDraining) {
		t.Fatalf("left node must refuse even Depth>0 probes: %v", err)
	}
	if _, err := n.ImproveBids(trading.ImproveReq{RFBID: "rfb1"}); !errors.Is(err, trading.ErrDraining) {
		t.Fatalf("left node must refuse improvement rounds: %v", err)
	}
	if _, err := n.Execute(trading.ExecReq{OfferID: offers[0].OfferID, SQL: offers[0].SQL}); !trading.IsTransient(err) {
		t.Fatalf("left node's delivery refusal must stay transient for recovery: %v", err)
	}

	h := n.Health()
	if h.State != "left" || h.Ready || h.StandingRFBs != 0 {
		t.Fatalf("left health: %+v", h)
	}
	if n.Undrain() {
		t.Fatal("a left node must not come back under the same handle")
	}
	n.Drain("too late")
	if n.State() != trading.StateLeft {
		t.Fatalf("drain after leave must be a no-op, state %v", n.State())
	}
}

// Undrain restores full service, and lifecycle transitions land as
// membership events in the attached trading ledger.
func TestUndrainRestoresServiceAndLedgerAudit(t *testing.T) {
	n := myconosNode(t, nil)
	led := ledger.New(4)
	n.SetLedger(led)

	if n.Undrain() {
		t.Fatal("undraining an active node must report false")
	}
	n.Drain("scale-down")
	n.Drain("scale-down") // idempotent: one ledger event
	if h := n.Health(); h.State != "draining" || h.Ready {
		t.Fatalf("draining health: %+v", h)
	}
	if !n.Undrain() {
		t.Fatal("undrain must succeed from draining")
	}
	if offers, err := bidOffers(n.RequestBids(paperRFB())); err != nil || len(offers) == 0 {
		t.Fatalf("undrained node must price Depth-0 RFBs again: %v", err)
	}
	n.Leave("decommissioned")

	var kinds []string
	var reasons []string
	for _, e := range led.LifecycleEvents() {
		kinds = append(kinds, e.Kind)
		reasons = append(reasons, e.Reason)
	}
	want := []string{ledger.KindDrain, ledger.KindUndrain, ledger.KindLeave}
	if len(kinds) != len(want) {
		t.Fatalf("lifecycle events %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("lifecycle events %v, want %v", kinds, want)
		}
	}
	if reasons[0] != "scale-down" || reasons[2] != "decommissioned" {
		t.Fatalf("operator reasons lost: %v", reasons)
	}
}

// Quiesced tracks in-flight executions: a busy node is not quiesced, and
// Quiesce observes the moment the work finishes.
func TestQuiesceTracksInflightWork(t *testing.T) {
	n := myconosNode(t, nil)
	if !n.Quiesced() || !n.Quiesce(time.Millisecond) {
		t.Fatal("an idle node is quiesced")
	}
	n.active.Add(1)
	if n.Quiesced() || n.Quiesce(5*time.Millisecond) {
		t.Fatal("a node with an active execution is not quiesced")
	}
	done := make(chan bool)
	go func() { done <- n.Quiesce(2 * time.Second) }()
	time.Sleep(5 * time.Millisecond)
	n.active.Add(-1)
	if !<-done {
		t.Fatal("Quiesce must observe the execution finishing")
	}
}

// A draining node prices itself out: the load factor that LoadAwarePricing
// folds into margins carries a flat surcharge whenever the node is not
// Active, on top of the queue-depth term.
func TestLoadFactorDrainSurcharge(t *testing.T) {
	n := New(Config{ID: "n", Schema: telcoSchema()})
	n.pool = make(chan struct{}, 1)
	if f := n.loadFactor(); f != 0 {
		t.Fatalf("idle active load factor: %f", f)
	}
	n.Drain("operator")
	if f := n.loadFactor(); f != 4 {
		t.Fatalf("draining surcharge missing: %f", f)
	}
	n.queued.Add(2)
	if f := n.loadFactor(); f != 6 {
		t.Fatalf("queue depth must stack with the surcharge: %f", f)
	}
	n.queued.Add(-2)
	n.Undrain()
	if f := n.loadFactor(); f != 0 {
		t.Fatalf("surcharge must lift with the drain: %f", f)
	}
}

// Concurrent Drain/Undrain flips racing against RFB traffic: every request
// either succeeds or fails with the typed drain rejection, and the state
// machine lands in a legal state. Run under -race this also pins the
// lock-free lifecycle reads.
func TestConcurrentDrainUndrain(t *testing.T) {
	n := myconosNode(t, nil)
	var flippers, workers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		flippers.Add(1)
		go func() {
			defer flippers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n.Drain("churn")
				n.Undrain()
			}
		}()
	}
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for i := 0; i < 16; i++ {
				if _, err := n.RequestBids(paperRFB()); err != nil &&
					!errors.Is(err, trading.ErrDraining) {
					errs <- err
					return
				}
				_ = n.Health()
				_ = n.Quiesced()
			}
		}()
	}
	workers.Wait()
	close(stop)
	flippers.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("request failed with a non-drain error under churn: %v", err)
	}
	n.Undrain()
	if st := n.State(); st != trading.StateActive && st != trading.StateDraining {
		t.Fatalf("illegal final state: %v", st)
	}
}
