package node

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"qtrade/internal/ledger"
	"qtrade/internal/obs"
	"qtrade/internal/trading"
)

// sampled is a trace context as a traced buyer stamps it on its requests.
var sampled = obs.TraceContext{TraceID: "t", Sampled: true}

// serve drives one RFB (sampled, so its subtree reaches the trace log) and
// one purchased execution through n, and returns the offers it bid.
func serve(t *testing.T, n *Node, rfbID string) []trading.Offer {
	t.Helper()
	rfb := paperRFB()
	rfb.RFBID, rfb.Trace = rfbID, sampled
	offers, err := bidOffers(n.RequestBids(rfb))
	if err != nil || len(offers) == 0 {
		t.Fatalf("%s: %d offers, err %v", rfbID, len(offers), err)
	}
	if _, err := n.Execute(trading.ExecReq{BuyerID: "athens", OfferID: offers[0].OfferID, SQL: offers[0].SQL}); err != nil {
		t.Fatalf("%s: execute: %v", rfbID, err)
	}
	return offers
}

// TestObserverSettersAreIndependent: the node's sinks live behind one
// pointer, yet attaching or detaching one never undoes another, in either
// order, and a node with everything detached still answers.
func TestObserverSettersAreIndependent(t *testing.T) {
	n := myconosNode(t, nil)
	led, tl, m := ledger.New(8), obs.NewTraceLog(), obs.NewMetrics()
	rfbs := m.Counter("node.myconos.rfbs")

	n.SetLedger(led)
	n.SetTraceLog(tl)
	n.SetObs(nil, m) // after the other two: must keep both
	serve(t, n, "rfb1")
	if led.Len() != 1 || len(tl.Recent(0)) != 1 || rfbs.Value() != 1 {
		t.Fatalf("all attached: ledger %d, trace log %d, rfbs %d, want 1 each", led.Len(), len(tl.Recent(0)), rfbs.Value())
	}

	n.SetObs(nil, nil) // detaches tracer and metrics only
	serve(t, n, "rfb2")
	if led.Len() != 2 || len(tl.Recent(0)) != 2 || rfbs.Value() != 1 {
		t.Fatalf("SetObs(nil, nil): ledger %d, trace log %d, want 2 each; rfbs %d, want 1", led.Len(), len(tl.Recent(0)), rfbs.Value())
	}

	n.SetLedger(nil)
	n.SetTraceLog(nil)
	n.SetObs(nil, m) // before the other two are back: they stay detached
	offers := serve(t, n, "rfb3")
	if err := n.Award(trading.Award{RFBID: "rfb3", OfferID: offers[0].OfferID, BuyerID: "athens"}); err != nil {
		t.Fatal(err)
	}
	n.Drain("test")
	if led.Len() != 2 || len(tl.Recent(0)) != 2 || len(led.LifecycleEvents()) != 0 {
		t.Fatalf("detached sinks still fed: ledger %d, trace log %d, lifecycle %d", led.Len(), len(tl.Recent(0)), len(led.LifecycleEvents()))
	}
	if rfbs.Value() != 2 || m.Counter("node.myconos.offers_won").Value() != 1 {
		t.Fatalf("re-attached metrics: rfbs %d, want 2; offers_won %d, want 1", rfbs.Value(), m.Counter("node.myconos.offers_won").Value())
	}
}

// TestObserverSettersRaceServing swaps every sink in and out while the node
// prices, executes, streams and drains; run under -race. Whatever observer a
// call loaded, it runs to completion on it.
func TestObserverSettersRaceServing(t *testing.T) {
	n := myconosNode(t, nil)
	led, tl, tr, m := ledger.New(8), obs.NewTraceLog(), obs.NewTracer(), obs.NewMetrics()
	stop := make(chan struct{})
	var setters, servers sync.WaitGroup
	flip := func(attach, detach func()) {
		setters.Add(1)
		go func() {
			defer setters.Done()
			for {
				select {
				case <-stop:
					return
				default:
					attach()
					detach()
				}
			}
		}()
	}
	flip(func() { n.SetObs(tr, m) }, func() { n.SetObs(nil, nil) })
	flip(func() { n.SetLedger(led) }, func() { n.SetLedger(nil) })
	flip(func() { n.SetTraceLog(tl) }, func() { n.SetTraceLog(nil) })
	flip(func() { n.Drain("race") }, func() { n.Undrain() })

	for w := 0; w < 4; w++ {
		servers.Add(1)
		go func(w int) {
			defer servers.Done()
			for i := 0; i < 25; i++ {
				rfb := paperRFB()
				rfb.RFBID = fmt.Sprintf("w%d-%d", w, i)
				rfb.Depth = w % 2 // Depth 0 takes the admission gate, and is refused while draining
				if i%2 == 0 {
					rfb.Trace = sampled
				}
				offers, err := bidOffers(n.RequestBids(rfb))
				if errors.Is(err, trading.ErrDraining) {
					continue
				}
				if err != nil || len(offers) == 0 {
					t.Errorf("%s: %d offers, err %v", rfb.RFBID, len(offers), err)
					return
				}
				o := offers[0]
				resp, err := n.Execute(trading.ExecReq{BuyerID: "athens", OfferID: o.OfferID, SQL: o.SQL,
					Stream: true, BatchRows: 1, Trace: rfb.Trace})
				for seq := int64(1); err == nil && resp.More; seq++ {
					resp, err = n.Execute(trading.ExecReq{OfferID: o.OfferID, Cursor: resp.Cursor, Seq: seq, Trace: rfb.Trace})
				}
				if err != nil {
					t.Errorf("%s: execute: %v", rfb.RFBID, err)
					return
				}
			}
		}(w)
	}
	servers.Wait()
	close(stop)
	setters.Wait()
	if n.OpenCursors() != 0 {
		t.Fatalf("%d cursors left parked", n.OpenCursors())
	}
}
