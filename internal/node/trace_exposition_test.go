package node

import (
	"errors"
	"testing"

	"qtrade/internal/obs"
	"qtrade/internal/trading"
)

// TestExecuteSampledRecordsTraceLog: a sampled execution ships its span
// subtree on the response AND records it into the node's attached trace log
// (the /trace/last source for live exposition).
func TestExecuteSampledRecordsTraceLog(t *testing.T) {
	n := myconosNode(t, nil)
	tl := obs.NewTraceLogN(0)
	n.SetTraceLog(tl)
	offers, err := bidOffers(n.RequestBids(paperRFB()))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := n.Execute(trading.ExecReq{BuyerID: "athens",
		OfferID: offers[0].OfferID, SQL: offers[0].SQL,
		Trace: obs.TraceContext{TraceID: "t1", Sampled: true}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil {
		t.Fatal("sampled execute shipped no trace subtree")
	}
	last := tl.Recent(1)
	if len(last) == 0 {
		t.Fatal("sampled execute did not record into the trace log")
	}
	if last[0].Name != resp.Trace.Name {
		t.Fatalf("trace log holds %q, response shipped %q", last[0].Name, resp.Trace.Name)
	}
	// Detach: later executions must leave the retained subtree untouched.
	n.SetTraceLog(nil)
}

// TestImproveBidsLifecycleAndTrace: a node that has Left refuses improvement
// requests with the typed transient rejection, and a sampled improve on a
// live node ships a span subtree even when it holds no standing offers.
func TestImproveBidsLifecycleAndTrace(t *testing.T) {
	n := myconosNode(t, nil)
	reply, err := n.ImproveBids(trading.ImproveReq{RFBID: "ghost",
		BestPrice: map[string]float64{"q0": 1},
		Trace:     obs.TraceContext{TraceID: "t2", Sampled: true}})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Trace == nil {
		t.Fatal("sampled improve shipped no trace subtree")
	}
	n.Leave("test")
	if _, err := n.ImproveBids(trading.ImproveReq{RFBID: "ghost"}); !errors.Is(err, trading.ErrDraining) {
		t.Fatalf("improve on a left node: err = %v, want ErrDraining", err)
	}
}

// TestTryAcquireBounds: nested pricing work wins a free slot or is told to
// run inline on its parent's — never blocks.
func TestTryAcquireBounds(t *testing.T) {
	n := New(Config{ID: "x", Schema: telcoSchema()})
	n.pool = make(chan struct{}, 1)
	if !n.tryAcquire() {
		t.Fatal("tryAcquire failed on an idle pool")
	}
	if n.tryAcquire() {
		t.Fatal("tryAcquire won a second slot from a 1-worker pool")
	}
	n.release()
	if !n.tryAcquire() {
		t.Fatal("tryAcquire failed after release")
	}
	n.release()
}

// TestSetFaultPolicy: attach/detach guards subcontract exchanges; both
// directions must be accepted before negotiations start.
func TestSetFaultPolicy(t *testing.T) {
	n := New(Config{ID: "x", Schema: telcoSchema()})
	n.SetFaultPolicy(&trading.FaultPolicy{MaxRetries: 1})
	n.SetFaultPolicy(nil)
}
