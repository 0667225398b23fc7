package node

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"qtrade/internal/ledger"
	"qtrade/internal/obs"
	"qtrade/internal/trading"
)

// standingAsk reads an offer's standing price out of the book.
func standingAsk(t *testing.T, n *Node, offerID string) float64 {
	t.Helper()
	so := n.purchased(offerID)
	if so == nil {
		t.Fatalf("offer %s does not stand", offerID)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return so.ask
}

// A repeated RFBID is answered from the offers as first quoted, and answering
// it leaves the book alone: an ask ImproveBids lowered stays lowered, so the
// improvement request that lowered it finds nothing left to improve.
func TestRepeatedRFBKeepsImprovedAsk(t *testing.T) {
	n := myconosNode(t, trading.NewCompetitive())
	first, err := n.RequestBids(paperRFB())
	if err != nil || len(first.Offers) == 0 {
		t.Fatalf("%d offers, %v", len(first.Offers), err)
	}
	req := trading.ImproveReq{RFBID: "rfb1", Prices: trading.QueryPrices{{QID: "q0", Best: first.Offers[0].Price * 0.99}}}
	improved, err := bidOffers(n.ImproveBids(req))
	if err != nil || len(improved) == 0 {
		t.Fatalf("seller must undercut: %d offers, %v", len(improved), err)
	}
	lowered := map[string]float64{}
	for _, o := range improved {
		lowered[o.OfferID] = o.Price
	}

	again, err := n.RequestBids(paperRFB())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("the repeat differs from the first reply:\n got %+v\nwant %+v", again.Offers, first.Offers)
	}
	for id, want := range lowered {
		if got := standingAsk(t, n, id); got != want {
			t.Errorf("offer %s asks %v after the repeat, want the improved %v", id, got, want)
		}
	}
	if more, _ := bidOffers(n.ImproveBids(req)); len(more) != 0 {
		t.Fatalf("the same improvement request improved %d offers again: the repeat reset their asks", len(more))
	}
}

// bookedComposite asks corfu for the both-offices query under rfbID and
// returns the composite's book entry with what corfu pays myconos for it.
func bookedComposite(t *testing.T, corfu, myc *Node, rfbID string) (so *standingOffer, paid float64) {
	t.Helper()
	so = corfu.purchased(compositeOffer(t, corfu, rfbID).OfferID)
	if so == nil || so.sub == nil {
		t.Fatalf("composite has no book entry with an assembly: %+v", so)
	}
	for _, r := range so.sub.remotes {
		in := myc.purchased(r.offerID)
		if in == nil {
			t.Fatalf("myconos holds no offer %q", r.offerID)
		}
		paid += in.offer.Price
	}
	return so, paid
}

// A composite's floor is its own truthful score plus what the node pays its
// subcontractors: however low the competition goes, a Competitive seller does
// not improve it to below cost plus its minimum margin.
func TestCompositeNeverImprovesBelowItsInputs(t *testing.T) {
	strat := trading.NewCompetitive()
	_, corfu, myc := subFederationCfg(t, func(c *Config) { c.Strategy = strat })
	probe, paid := bookedComposite(t, corfu, myc, "r-floor")
	own := corfu.Weights().Score(probe.offer.Props)
	if paid <= 0 || math.Abs(probe.truth-(own+paid)) > 1e-9 {
		t.Fatalf("composite floor %v, want its own score %v plus the %v it pays", probe.truth, own, paid)
	}
	floor := (own + paid) * (1 + trading.MinMargin)
	for i, competing := range []float64{
		paid / 2,                      // under the purchased inputs' price
		own * (1 + trading.MinMargin), // what the seller's own work alone would allow
		(own + paid/2) * (1 + trading.MinMargin),
		floor * 1.01, // just above the floor: the undercut is clamped to it
		probe.offer.Price * 0.99,
	} {
		so, _ := bookedComposite(t, corfu, myc, "r-floor"+itoa(i))
		improved, err := bidOffers(corfu.ImproveBids(trading.ImproveReq{
			RFBID: so.offer.RFBID, Prices: trading.QueryPrices{{QID: "q0", Best: competing}}}))
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range improved {
			if o.OfferID == so.offer.OfferID && o.Price < floor-1e-9 {
				t.Errorf("competing %v: composite improved to %v, below its floor %v", competing, o.Price, floor)
			}
		}
		if ask := standingAsk(t, corfu, so.offer.OfferID); ask < floor-1e-9 || ask > so.offer.Price {
			t.Errorf("competing %v: composite asks %v, want within [%v, %v]", competing, ask, floor, so.offer.Price)
		}
	}
}

// A subcontracting seller buys by offer id: the fragment's delivery lands on
// the standing offer its subcontractor quoted, so the subcontractor's ledger
// records it as served under the negotiation it was priced in — and on both
// hops the plan that runs is the plan that was priced.
func TestSubcontractorServesTheOfferItQuoted(t *testing.T) {
	_, corfu, myc := subFederation(t)
	led := ledger.New(8)
	myc.SetLedger(led)
	so, _ := bookedComposite(t, corfu, myc, "r-buy")
	if len(so.sub.remotes) != 1 {
		t.Fatalf("%d purchased fragments, want 1", len(so.sub.remotes))
	}
	bought := so.sub.remotes[0]
	quoted := myc.purchased(bought.offerID)
	if quoted.offer.SQL != bought.sql || quoted.offer.SellerID != bought.peerID {
		t.Fatalf("assembly buys %+v, myconos quoted %+v", bought, quoted.offer)
	}
	resp, err := corfu.Execute(trading.ExecReq{BuyerID: "buyer", OfferID: so.offer.OfferID, SQL: so.offer.SQL,
		Trace: obs.TraceContext{TraceID: "t-buy", Sampled: true}})
	if err != nil {
		t.Fatal(err)
	}
	ran := map[string]string{} // node -> the plan attribute of its execute span
	var walk func(p *obs.SpanPayload)
	walk = func(p *obs.SpanPayload) {
		if p.Name == "execute" {
			for _, a := range p.Attrs {
				if a.Key == "plan" {
					ran[p.Source] = a.Val
				}
			}
		}
		for _, c := range p.Children {
			walk(c)
		}
	}
	walk(resp.Trace)
	if want := map[string]string{"corfu": "priced", "myconos": "priced"}; !reflect.DeepEqual(ran, want) {
		t.Fatalf("execute spans ran %v, want %v", ran, want)
	}
	var served []ledger.Event
	for _, neg := range led.Negotiations(0) {
		for _, e := range neg.Events {
			if e.Kind == ledger.KindServed {
				if neg.ID != quoted.offer.RFBID {
					t.Errorf("served event filed under %s, the offer was priced under %s", neg.ID, quoted.offer.RFBID)
				}
				served = append(served, e)
			}
		}
	}
	if len(served) != 1 || served[0].OfferID != bought.offerID || served[0].SQL != bought.sql || served[0].Rows != 2 {
		t.Fatalf("myconos's ledger holds served events %+v, want one of 2 rows under offer %s", served, bought.offerID)
	}
}

// TestBookUnderConcurrentRetriesAndRevocation hammers one RFB's record from
// every side at once — repeats of the RFBID, improvement rounds, awards,
// deliveries of a composite, revocation of the whole book — and holds what the
// book promises: an id that resolves names the SQL it was quoted under (a
// composite with its assembly), an entry's ask never rises, and nothing is
// left running.
func TestBookUnderConcurrentRetriesAndRevocation(t *testing.T) {
	baseline := runtime.NumGoroutine()
	_, corfu, myc := subFederationCfg(t, func(c *Config) { c.Strategy = trading.NewCompetitive() })
	rfb := trading.RFB{RFBID: "hammer", BuyerID: "buyer", Queries: []trading.QueryRequest{
		{QID: "q0", SQL: bothOfficesQuery},
		{QID: "q1", SQL: "SELECT c.custid FROM customer c WHERE c.office IN ('Corfu', 'Myconos')"},
	}}
	first, err := corfu.RequestBids(rfb)
	if err != nil || len(first.Offers) == 0 {
		t.Fatalf("%d offers, %v", len(first.Offers), err)
	}
	quoted := map[string]trading.Offer{}
	var composite trading.Offer
	for _, o := range first.Offers {
		quoted[o.OfferID] = o
		if len(o.Parts["c"]) == 2 && o.QID == "q0" {
			composite = o
		}
	}
	if composite.OfferID == "" {
		t.Fatal("no composite offer")
	}
	sameQuote := func(who string, o trading.Offer) {
		if q, ok := quoted[o.OfferID]; !ok || q.SQL != o.SQL || q.QID != o.QID {
			t.Errorf("%s: offer %s names %q (%s), it was quoted for %q (%s)", who, o.OfferID, o.SQL, o.QID, q.SQL, q.QID)
		}
	}

	const rounds = 60
	var wg sync.WaitGroup
	spawn := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				f(i)
			}
		}()
	}
	for r := 0; r < 3; r++ {
		spawn(func(int) {
			rep, err := corfu.RequestBids(rfb)
			if err != nil {
				t.Errorf("repeat: %v", err)
			}
			for _, o := range rep.Offers {
				sameQuote("repeat", o)
			}
		})
	}
	spawn(func(i int) {
		cut := 1 - float64(i+1)/(2*rounds) // the competition gets cheaper every round
		improved, err := bidOffers(corfu.ImproveBids(trading.ImproveReq{RFBID: rfb.RFBID,
			Prices: trading.QueryPrices{{QID: "q0", Best: composite.Price * cut}, {QID: "q1", Best: composite.Price * cut}}}))
		if err != nil {
			t.Errorf("improve: %v", err)
		}
		for _, o := range improved {
			sameQuote("improve", o)
		}
	})
	spawn(func(i int) {
		// An award finds the offer, or — between a revocation and the repeat
		// that files it again — an open record without it.
		_ = corfu.Award(trading.Award{RFBID: rfb.RFBID, OfferID: first.Offers[i%len(first.Offers)].OfferID})
	})
	spawn(func(int) {
		// A standing composite delivers both offices; a revoked one is only its
		// SQL over what corfu holds.
		resp, err := corfu.Execute(trading.ExecReq{BuyerID: "buyer", OfferID: composite.OfferID, SQL: composite.SQL})
		if err != nil || (len(resp.Rows) != 4 && len(resp.Rows) != 2) {
			t.Errorf("execute composite: %d rows, %v", len(resp.Rows), err)
		}
	})
	spawn(func(i int) {
		if i%8 == 7 {
			corfu.RevokeStandingOffers()
			myc.RevokeStandingOffers()
		}
		time.Sleep(200 * time.Microsecond)
	})
	asks := map[*standingOffer]float64{}
	spawn(func(int) {
		corfu.mu.Lock()
		defer corfu.mu.Unlock()
		for rfbID, neg := range corfu.negs {
			for id, so := range neg.offers {
				if so.offer.OfferID != id || so.offer.RFBID != rfbID {
					t.Errorf("entry of %s (rfb %s) is filed as %s under %s", so.offer.OfferID, so.offer.RFBID, id, rfbID)
				}
				sameQuote("book", so.offer)
				if composite.OfferID == id && so.sub == nil {
					t.Errorf("standing composite %s has no assembly", id)
				}
				if last, seen := asks[so]; so.ask > so.offer.Price || (seen && so.ask > last) {
					t.Errorf("offer %s asks %v, after %v and quoted at %v: an ask rose", id, so.ask, last, so.offer.Price)
				}
				asks[so] = so.ask
			}
		}
	})
	wg.Wait()
	if corfu.OpenCursors() != 0 || myc.OpenCursors() != 0 {
		t.Errorf("%d and %d cursors left parked", corfu.OpenCursors(), myc.OpenCursors())
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		t.Errorf("%d goroutines running, %d before the hammer", got, baseline)
	}
}
