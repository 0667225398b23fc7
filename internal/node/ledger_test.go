package node

import (
	"testing"

	"qtrade/internal/ledger"
	"qtrade/internal/obs"
	"qtrade/internal/trading"
)

// TestSellerLedgerAudit: a seller with a ledger attached records its pricing
// work keyed by the buyer's RFB id, joins served executions to the same
// negotiation by parsing the offer id, and stamps its measured wall time on
// the ExecResp; detaching stops recording.
func TestSellerLedgerAudit(t *testing.T) {
	n := myconosNode(t, nil)
	led, m := ledger.New(4), obs.NewMetrics()
	n.SetLedger(led)
	n.SetObs(nil, m)

	offers, err := bidOffers(n.RequestBids(paperRFB()))
	if err != nil {
		t.Fatal(err)
	}
	var joint *trading.Offer
	for i := range offers {
		if len(offers[i].Bindings) == 2 && !offers[i].PartialAgg {
			joint = &offers[i]
		}
	}
	if joint == nil {
		t.Fatal("no 2-way offer")
	}
	resp, err := n.Execute(trading.ExecReq{BuyerID: "athens", OfferID: joint.OfferID, SQL: joint.SQL})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ExecMS <= 0 {
		t.Fatalf("ExecMS not measured: %+v", resp.ExecMS)
	}

	negs := led.Negotiations(0)
	if len(negs) != 1 || negs[0].ID != "rfb1" {
		t.Fatalf("events must join under the buyer's RFB id: %+v", negs)
	}
	var priced, served *ledger.Event
	for i, e := range negs[0].Events {
		switch e.Kind {
		case ledger.KindPriced:
			priced = &negs[0].Events[i]
		case ledger.KindServed:
			served = &negs[0].Events[i]
		}
	}
	if priced == nil || priced.Seller != "myconos" || priced.Offers != len(offers) {
		t.Fatalf("priced event: %+v", priced)
	}
	if served == nil || served.OfferID != joint.OfferID || served.Rows != int64(len(resp.Rows)) {
		t.Fatalf("served event: %+v", served)
	}
	if served.Bytes <= 0 || served.WallMS < 0 {
		t.Fatalf("served actuals: %+v", served)
	}
	// The pricing's durations are the registry's, one histogram per phase.
	for _, h := range []string{"rewrite_ms", "dp_ms", "price_ms"} {
		if c := m.Histogram("node.myconos." + h).Count(); c != 1 {
			t.Fatalf("%s holds %d samples for one priced query", h, c)
		}
	}

	// A second identical RFB prices from the cache; the event must say so.
	if _, err := bidOffers(n.RequestBids(trading.RFB{RFBID: "rfb2", BuyerID: "athens",
		Queries: []trading.QueryRequest{{QID: "q0", SQL: paperQuery}}})); err != nil {
		t.Fatal(err)
	}
	cached := false
	for _, neg := range led.Negotiations(0) {
		for _, e := range neg.Events {
			if e.Kind == ledger.KindPriced && e.CacheHit {
				cached = true
			}
		}
	}
	if !cached {
		t.Fatal("repeat pricing did not record a cache hit")
	}

	n.SetLedger(nil)
	if _, err := bidOffers(n.RequestBids(trading.RFB{RFBID: "rfb3", BuyerID: "athens",
		Queries: []trading.QueryRequest{{QID: "q0", SQL: paperQuery}}})); err != nil {
		t.Fatal(err)
	}
	if led.Len() != 2 {
		t.Fatalf("detached node still recorded: %d negotiations", led.Len())
	}
}
