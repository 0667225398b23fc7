package trading

import (
	"errors"
	"sync"
	"testing"

	"qtrade/internal/cost"
	"qtrade/internal/value"
)

// fakeSeller is a scripted Peer for protocol tests.
type fakeSeller struct {
	id    string
	price float64
	floor float64 // lowest price it will go to
	fail  bool

	mu       sync.Mutex
	current  float64
	improves int
	reqs     []ImproveReq
}

func (f *fakeSeller) RequestBids(rfb RFB) (BidReply, error) {
	if f.fail {
		return BidReply{}, errors.New("down")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.current = f.price
	var out []Offer
	for _, q := range rfb.Queries {
		out = append(out, Offer{
			OfferID: f.id + "/" + q.QID, RFBID: rfb.RFBID, QID: q.QID,
			SellerID: f.id, SQL: q.SQL, Price: f.current,
			Props: cost.Valuation{TotalTime: f.floor},
		})
	}
	return BidReply{Offers: out}, nil
}

func (f *fakeSeller) ImproveBids(req ImproveReq) (BidReply, error) {
	if f.fail {
		return BidReply{}, errors.New("down")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reqs = append(f.reqs, req)
	var out []Offer
	for _, p := range req.Prices {
		qid, target := p.QID, p.Best
		if req.Bargain && p.Target < target {
			target = p.Target
		}
		undercut := target * 0.95
		if undercut < f.floor || undercut >= f.current {
			continue
		}
		f.current = undercut
		f.improves++
		out = append(out, Offer{
			OfferID: f.id + "/" + qid, RFBID: req.RFBID, QID: qid,
			SellerID: f.id, Price: f.current,
		})
	}
	return BidReply{Offers: out}, nil
}

// cheapest returns the lowest-priced standing offer for qid.
func cheapest(offers []Offer, qid string) (w Offer) {
	for _, o := range offers {
		if o.QID == qid && (w.OfferID == "" || o.Price < w.Price) {
			w = o
		}
	}
	return w
}

func rfb1() RFB {
	return RFB{RFBID: "r1", BuyerID: "buyer", Queries: []QueryRequest{{QID: "q1", SQL: "SELECT x FROM t"}}}
}

func TestSealedBidCollectsFromAllPeers(t *testing.T) {
	peers := map[string]Peer{
		"a": &fakeSeller{id: "a", price: 10, floor: 5},
		"b": &fakeSeller{id: "b", price: 20, floor: 15},
		"c": &fakeSeller{id: "c", fail: true},
	}
	offers, rounds, err := SealedBid{}.Collect(rfb1(), Sellers{Peers: peers}, nil)
	if err != nil || rounds != 1 {
		t.Fatalf("sealed: %v rounds=%d", err, rounds)
	}
	if len(offers) != 2 {
		t.Fatalf("offers: %d (failing peer must be skipped)", len(offers))
	}
	// Deterministic order.
	if offers[0].SellerID != "a" || offers[1].SellerID != "b" {
		t.Fatalf("order: %v", offers)
	}
}

func TestIterativeBidDrivesPricesDown(t *testing.T) {
	a := &fakeSeller{id: "a", price: 10, floor: 6}
	b := &fakeSeller{id: "b", price: 12, floor: 2}
	peers := map[string]Peer{"a": a, "b": b}
	offers, rounds, err := IterativeBid{MaxRounds: 40}.Collect(rfb1(), Sellers{Peers: peers}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rounds < 2 {
		t.Fatalf("expected multiple rounds, got %d", rounds)
	}
	w := cheapest(offers, "q1")
	// b can undercut below a's floor of 6; winner must be b with price < 6.
	if w.SellerID != "b" || w.Price >= 6 {
		t.Fatalf("winner: %+v", w)
	}
}

func TestIterativeBidStopsWhenStable(t *testing.T) {
	a := &fakeSeller{id: "a", price: 10, floor: 10}
	peers := map[string]Peer{"a": a}
	_, rounds, _ := IterativeBid{MaxRounds: 10}.Collect(rfb1(), Sellers{Peers: peers}, nil)
	if rounds != 2 { // initial + one no-change improvement round
		t.Fatalf("rounds: %d", rounds)
	}
}

func TestBargainUsesCounterOffers(t *testing.T) {
	a := &fakeSeller{id: "a", price: 100, floor: 10}
	peers := map[string]Peer{"a": a}
	offers, _, err := Bargain{MaxRounds: 8}.Collect(rfb1(), Sellers{Peers: peers}, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := cheapest(offers, "q1")
	if w.Price >= 50 {
		t.Fatalf("bargaining should cut deep: %f", w.Price)
	}
	if a.improves == 0 {
		t.Fatal("seller never improved")
	}
	// Each round counter-offers the anchored share of the best standing price.
	for _, req := range a.reqs {
		if !req.Bargain || len(req.Prices) != 1 {
			t.Fatalf("request %+v: want one bargaining entry", req)
		}
		if p := req.Prices[0]; p.Target != p.Best*AnchoredDiscount {
			t.Errorf("counter-offer %v against a best price of %v, want %v of it", p.Target, p.Best, AnchoredDiscount)
		}
	}
}

func TestMergeImproved(t *testing.T) {
	standing := []Offer{{OfferID: "x", QID: "q", Price: 10}}
	merged, changed := mergeImproved(standing, []Offer{{OfferID: "x", QID: "q", Price: 8}})
	if !changed || merged[0].Price != 8 {
		t.Fatalf("merge: %+v", merged)
	}
	// Higher price does not replace.
	merged, changed = mergeImproved(merged, []Offer{{OfferID: "x", QID: "q", Price: 9}})
	if changed || merged[0].Price != 8 {
		t.Fatalf("regression: %+v", merged)
	}
	// New offers append.
	merged, changed = mergeImproved(merged, []Offer{{OfferID: "y", QID: "q", Price: 7}})
	if !changed || len(merged) != 2 {
		t.Fatalf("append: %+v", merged)
	}
	if _, ch := mergeImproved(merged, nil); ch {
		t.Fatal("empty improvement must not report change")
	}
}

func TestCooperativeStrategyTruthful(t *testing.T) {
	var s Cooperative
	if s.Price("q", 42) != 42 {
		t.Fatal("cooperative must be truthful")
	}
	if _, ch := s.Improve("q", 42, 42, 10); ch {
		t.Fatal("truthful ask cannot improve")
	}
	s.Observe("q", true) // no-op, must not panic
}

func TestCompetitiveMarginAdaptation(t *testing.T) {
	c := NewCompetitive()
	p0 := c.Price("q", 100)
	if p0 != 130 {
		t.Fatalf("initial ask: %f", p0)
	}
	// Losses decay the margin toward the floor.
	for i := 0; i < 50; i++ {
		c.Observe("q", false)
	}
	if m := c.Margin(); m != MinMargin {
		t.Fatalf("margin after losses: %f", m)
	}
	// Wins grow it back, capped.
	for i := 0; i < 500; i++ {
		c.Observe("q", true)
	}
	if m := c.Margin(); m != MaxMargin {
		t.Fatalf("margin after wins: %f", m)
	}
}

func TestCompetitiveImprove(t *testing.T) {
	c := NewCompetitive()
	// Current 130 (truth 100), competitor at 120: undercut to 114.
	p, ch := c.Improve("q", 130, 100, 120)
	if !ch || p >= 120 || p < 102 {
		t.Fatalf("undercut: %f %v", p, ch)
	}
	// Competitor below our floor: give up.
	if _, ch := c.Improve("q", 130, 100, 101); ch {
		t.Fatal("cannot undercut below min margin")
	}
	// Already cheapest: no change.
	if _, ch := c.Improve("q", 100, 90, 150); ch {
		t.Fatal("already best, no improvement")
	}
}

func TestLoadAware(t *testing.T) {
	load := 1.0
	l := &LoadAware{Inner: Cooperative{}, Load: func() float64 { return load }}
	if l.Price("q", 100) != 200 {
		t.Fatalf("loaded price: %f", l.Price("q", 100))
	}
	load = 0
	if l.Price("q", 100) != 100 {
		t.Fatal("idle price must be truthful")
	}
	load = -5
	if l.Price("q", 100) != 100 {
		t.Fatal("negative load clamps to 0")
	}
	l.Observe("q", true) // must not panic
}

func TestWireSizes(t *testing.T) {
	r := rfb1()
	if r.WireSize() <= 0 {
		t.Fatal("rfb size")
	}
	o := Offer{OfferID: "o", SQL: "SELECT 1", Bindings: []string{"a"},
		Parts: map[string][]string{"a": {"p0"}}, Cols: []ColSpec{{Name: "x"}}}
	if o.WireSize() <= len(o.SQL) {
		t.Fatal("offer size must include metadata")
	}
	ir := ImproveReq{Prices: QueryPrices{{QID: "q", Best: 1}}}
	if ir.WireSize() <= 0 {
		t.Fatal("improve size")
	}
	aw := Award{RFBID: "r", OfferID: "o"}
	if aw.WireSize() <= 0 {
		t.Fatal("award size")
	}
	er := ExecReq{SQL: "SELECT 1"}
	if er.WireSize() <= 0 {
		t.Fatal("exec req size")
	}
	resp := ExecResp{
		Cols: []ColSpec{{Name: "x"}},
		Rows: []value.Row{{value.NewStr("abc")}, {value.NewInt(1)}},
	}
	if resp.WireSize() < 7+8 {
		t.Fatalf("resp size: %d", resp.WireSize())
	}
}

func TestStreamingFieldWireSizes(t *testing.T) {
	base := ExecReq{SQL: "SELECT 1"}
	stream := ExecReq{SQL: "SELECT 1", Stream: true, BatchRows: 256}
	if stream.WireSize() <= base.WireSize() {
		t.Fatal("stream open must cost wire bytes")
	}
	cont := ExecReq{OfferID: "o", Cursor: "corfu.c1", Seq: 3}
	plain := ExecReq{OfferID: "o"}
	if cont.WireSize() <= plain.WireSize() {
		t.Fatal("continuation token must cost wire bytes")
	}
	resp := ExecResp{Rows: []value.Row{{value.NewInt(1)}}}
	parked := ExecResp{Rows: []value.Row{{value.NewInt(1)}}, Cursor: "corfu.c1", More: true}
	if parked.WireSize() <= resp.WireSize() {
		t.Fatal("continuation reply must cost wire bytes")
	}
}
