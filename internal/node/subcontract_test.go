package node

import (
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"qtrade/internal/netsim"
	"qtrade/internal/trading"
	"qtrade/internal/value"
)

// subFederation builds the subcontracting topology: corfu holds the corfu
// customer partition, myconos holds the myconos partition, and corfu may
// purchase missing fragments from myconos. The buyer only ever talks to
// corfu.
func subFederation(t *testing.T) (*netsim.Network, *Node, *Node) {
	t.Helper()
	return subFederationCfg(t, nil)
}

// subFederationCfg is subFederation with corfu's config open to edits.
func subFederationCfg(t *testing.T, edit func(*Config)) (*netsim.Network, *Node, *Node) {
	t.Helper()
	sch := telcoSchema()
	net := netsim.New()

	myc := New(Config{ID: "myconos", Schema: sch})
	cust, _ := sch.Table("customer")
	if _, err := myc.Store().CreateFragment(cust, "myconos"); err != nil {
		t.Fatal(err)
	}
	if err := myc.Store().Insert("customer", "myconos",
		value.Row{value.NewInt(3), value.NewStr("carol"), value.NewStr("Myconos")},
		value.Row{value.NewInt(5), value.NewStr("eve"), value.NewStr("Myconos")},
	); err != nil {
		t.Fatal(err)
	}

	cfg := Config{
		ID: "corfu", Schema: sch,
		SubcontractPeers: func() map[string]trading.Peer {
			return map[string]trading.Peer{"myconos": net.Peer("corfu", "myconos")}
		},
	}
	if edit != nil {
		edit(&cfg)
	}
	corfu := New(cfg)
	if _, err := corfu.Store().CreateFragment(cust, "corfu"); err != nil {
		t.Fatal(err)
	}
	if err := corfu.Store().Insert("customer", "corfu",
		value.Row{value.NewInt(1), value.NewStr("alice"), value.NewStr("Corfu")},
		value.Row{value.NewInt(2), value.NewStr("bob"), value.NewStr("Corfu")},
	); err != nil {
		t.Fatal(err)
	}

	net.Register("corfu", corfu)
	net.Register("myconos", myc)
	return net, corfu, myc
}

const bothOfficesQuery = "SELECT c.custname FROM customer c WHERE c.office IN ('Corfu', 'Myconos')"

func TestSubcontractOfferCoversMissingPartition(t *testing.T) {
	_, corfu, _ := subFederation(t)
	rfb := trading.RFB{RFBID: "r1", BuyerID: "buyer",
		Queries: []trading.QueryRequest{{QID: "q0", SQL: bothOfficesQuery}}}
	offers, err := bidOffers(corfu.RequestBids(rfb))
	if err != nil {
		t.Fatal(err)
	}
	var composite *trading.Offer
	for i := range offers {
		parts := offers[i].Parts["c"]
		if len(parts) == 2 {
			composite = &offers[i]
		}
	}
	if composite == nil {
		t.Fatalf("no composite offer among %d offers", len(offers))
	}
	if !composite.Complete {
		t.Fatalf("composite must cover all relevant partitions: %+v", composite)
	}
	sort.Strings(composite.Parts["c"])
	if composite.Parts["c"][0] != "corfu" || composite.Parts["c"][1] != "myconos" {
		t.Fatalf("parts: %v", composite.Parts)
	}
	// The composite is priced above corfu's own partial offer (it includes
	// the purchased fragment).
	var ownPartial *trading.Offer
	for i := range offers {
		if len(offers[i].Parts["c"]) == 1 {
			ownPartial = &offers[i]
		}
	}
	if ownPartial != nil && composite.Price <= ownPartial.Price {
		t.Fatalf("composite %.3f must cost more than partial %.3f", composite.Price, ownPartial.Price)
	}
}

func TestSubcontractExecution(t *testing.T) {
	_, corfu, _ := subFederation(t)
	rfb := trading.RFB{RFBID: "r2", BuyerID: "buyer",
		Queries: []trading.QueryRequest{{QID: "q0", SQL: bothOfficesQuery}}}
	offers, err := bidOffers(corfu.RequestBids(rfb))
	if err != nil {
		t.Fatal(err)
	}
	var composite *trading.Offer
	for i := range offers {
		if len(offers[i].Parts["c"]) == 2 {
			composite = &offers[i]
		}
	}
	if composite == nil {
		t.Fatal("no composite offer")
	}
	resp, err := corfu.Execute(trading.ExecReq{
		BuyerID: "buyer", OfferID: composite.OfferID, SQL: composite.SQL})
	if err != nil {
		t.Fatalf("composite execute: %v", err)
	}
	names := map[string]bool{}
	for _, r := range resp.Rows {
		for i, c := range resp.Cols {
			if strings.EqualFold(c.Name, "custname") {
				names[r[i].S] = true
			}
		}
	}
	for _, want := range []string{"alice", "bob", "carol", "eve"} {
		if !names[want] {
			t.Fatalf("missing %s in composite answer: %v", want, names)
		}
	}
	if len(resp.Rows) != 4 {
		t.Fatalf("rows: %d", len(resp.Rows))
	}
}

func TestSubcontractDepthLimit(t *testing.T) {
	_, corfu, _ := subFederation(t)
	// A Depth-1 RFB (already a subcontract) must not be re-subcontracted.
	rfb := trading.RFB{RFBID: "r3", BuyerID: "other-seller", Depth: 1,
		Queries: []trading.QueryRequest{{QID: "q0", SQL: bothOfficesQuery}}}
	offers, err := bidOffers(corfu.RequestBids(rfb))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range offers {
		if len(o.Parts["c"]) > 1 {
			t.Fatalf("depth-1 RFB produced a composite offer: %+v", o)
		}
	}
}

func TestSubcontractUnavailablePeerNoComposite(t *testing.T) {
	net, corfu, _ := subFederation(t)
	net.SetDown("myconos", true)
	rfb := trading.RFB{RFBID: "r4", BuyerID: "buyer",
		Queries: []trading.QueryRequest{{QID: "q0", SQL: bothOfficesQuery}}}
	offers, err := bidOffers(corfu.RequestBids(rfb))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range offers {
		if len(o.Parts["c"]) > 1 {
			t.Fatal("composite offer without a reachable subcontractor")
		}
	}
	// Corfu still offers its own partition.
	if len(offers) == 0 {
		t.Fatal("own partial offers must survive")
	}
}

func TestSubcontractQueryOnlyNeedsOwnData(t *testing.T) {
	net, corfu, _ := subFederation(t)
	net.Reset()
	rfb := trading.RFB{RFBID: "r5", BuyerID: "buyer",
		Queries: []trading.QueryRequest{{QID: "q0",
			SQL: "SELECT c.custname FROM customer c WHERE c.office = 'Corfu'"}}}
	offers, err := bidOffers(corfu.RequestBids(rfb))
	if err != nil {
		t.Fatal(err)
	}
	// The only relevant partition is held locally: no subcontract RFB must
	// have been sent at all.
	if msgs, _ := net.Stats(); msgs != 0 {
		t.Fatalf("needless subcontract negotiation: %d messages", msgs)
	}
	for _, o := range offers {
		if !o.Complete {
			t.Fatalf("corfu fully covers the corfu query: %+v", o)
		}
	}
}

// compositeOffer asks corfu for bids on the both-offices query and returns
// the composite (two-partition) offer.
func compositeOffer(t *testing.T, corfu *Node, rfbID string) trading.Offer {
	t.Helper()
	offers, err := bidOffers(corfu.RequestBids(trading.RFB{RFBID: rfbID, BuyerID: "buyer",
		Queries: []trading.QueryRequest{{QID: "q0", SQL: bothOfficesQuery}}}))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range offers {
		if len(o.Parts["c"]) == 2 {
			return o
		}
	}
	t.Fatalf("no composite offer among %d offers", len(offers))
	return trading.Offer{}
}

// Composite assemblies must not outlive their offers: a composite the offer
// cap discards is unreachable, so its assembly may not be held at all, and
// whatever is held dies with the RFB's record. With a cap of one the node's
// own (cheaper) partial wins every time, so a long-lived subcontracting
// seller holds nothing however many RFBs it has priced.
func TestSubcontractAssembliesDieWithTheirOffers(t *testing.T) {
	_, corfu, _ := subFederationCfg(t, func(c *Config) { c.MaxOffersPerQuery = 1 })
	for i := 0; i < maxStandingRFBs+10; i++ {
		rfb := trading.RFB{RFBID: "r" + itoa(i), BuyerID: "buyer",
			Queries: []trading.QueryRequest{{QID: "q0", SQL: bothOfficesQuery}}}
		if _, err := corfu.RequestBids(rfb); err != nil {
			t.Fatal(err)
		}
	}
	corfu.mu.Lock()
	defer corfu.mu.Unlock()
	if len(corfu.negs) > maxStandingRFBs {
		t.Fatalf("%d records held, bound is %d", len(corfu.negs), maxStandingRFBs)
	}
	// An assembly is a field of its offer's book entry, so whatever a record
	// holds of one is reachable either as a standing offer or through a
	// flight's book — where the cap must have cleared what it discarded.
	held := 0
	for rfbID, neg := range corfu.negs {
		for _, so := range neg.offers {
			if so.sub != nil {
				held++
			}
		}
		for _, f := range neg.flights {
			all := f.book[:cap(f.book)]
			for i := range all {
				if so := &all[i]; so.sub != nil && neg.offers[so.offer.OfferID] != so {
					t.Fatalf("rfb %s holds the assembly of %q, which is not a standing offer", rfbID, so.offer.OfferID)
				}
			}
		}
	}
	// One query per RFB, one offer per query: no more than one per record.
	if held > len(corfu.negs) {
		t.Fatalf("%d assemblies held by %d records under a cap of one offer", held, len(corfu.negs))
	}
}

// A composite that survives the cap keeps its assembly for as long as its
// record lives, and loses it when the book is revoked: the composite SQL
// alone must never be mistaken for the whole answer.
func TestSubcontractAssemblyLivesInRecord(t *testing.T) {
	_, corfu, _ := subFederation(t)
	o := compositeOffer(t, corfu, "r-live")
	if so := corfu.purchased(o.OfferID); so == nil || so.sub == nil {
		t.Fatalf("standing composite has no assembly: %+v", so)
	}
	corfu.RevokeStandingOffers()
	if so := corfu.purchased(o.OfferID); so != nil {
		t.Fatalf("revoked record still resolves: %+v", so)
	}
}

// Two parent queries over the same partially held relation make two probes
// under one parent RFB. Each is a negotiation of its own, so the
// subcontractor must end up holding one standing offer per SQL it priced: an
// Award, ImproveBids or Served keyed by the offer id must find the SQL that
// was quoted under it, not whichever probe was priced last.
func TestSubcontractProbesMintDistinctOfferIDs(t *testing.T) {
	_, corfu, myc := subFederation(t)
	rfb := trading.RFB{RFBID: "r9", BuyerID: "buyer", Queries: []trading.QueryRequest{
		{QID: "q0", SQL: bothOfficesQuery},
		{QID: "q1", SQL: "SELECT c.custid FROM customer c WHERE c.office IN ('Corfu', 'Myconos')"},
	}}
	if _, err := corfu.RequestBids(rfb); err != nil {
		t.Fatal(err)
	}
	myc.mu.Lock()
	defer myc.mu.Unlock()
	flights, bySQL := 0, map[string]string{}
	for rfbID, neg := range myc.negs {
		flights += len(neg.flights)
		for id, so := range neg.offers {
			if so.offer.RFBID != rfbID {
				t.Errorf("offer %s is filed under %s but says %s", id, rfbID, so.offer.RFBID)
			}
			if other, dup := bySQL[so.offer.SQL]; dup {
				t.Errorf("offers %s and %s quote the same SQL", id, other)
			}
			bySQL[so.offer.SQL] = id
		}
	}
	if flights != 2 || len(bySQL) != 2 {
		t.Fatalf("myconos priced %d probes and holds %d standing offers, want 2 and 2: %v", flights, len(bySQL), bySQL)
	}
}

// Two nodes that subcontract from each other, both with every pricing slot
// taken by a buyer's query, probe each other at the same moment: each probe
// must be priced although its receiver's pool is full, or both buyers wait
// forever.
func TestMutualSubcontractingDoesNotDeadlock(t *testing.T) {
	net, corfu, myc := subFederationCfg(t, func(c *Config) { c.Workers = 1 })
	myc.pool = make(chan struct{}, 1)
	myc.cfg.SubcontractPeers = func() map[string]trading.Peer {
		return map[string]trading.Peer{"corfu": net.Peer("myconos", "corfu")}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for _, n := range []*Node{corfu, myc} {
			wg.Add(1)
			go func(n *Node) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					o := compositeOffer(t, n, "r-mutual"+itoa(i))
					if !o.Complete {
						t.Errorf("%s: composite is not complete: %+v", n.ID(), o)
					}
				}
			}(n)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("two nodes probing each other never finished pricing")
	}
}
