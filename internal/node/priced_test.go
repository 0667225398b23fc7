package node

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"qtrade/internal/catalog"
	"qtrade/internal/exec"
	"qtrade/internal/ledger"
	"qtrade/internal/obs"
	"qtrade/internal/storage"
	"qtrade/internal/trading"
	"qtrade/internal/value"
)

// whichPlan reads how many purchases a node served on a priced plan and how
// many on a re-planned text.
func whichPlan(m *obs.Metrics, id string) (priced, text int64) {
	return m.Counter("node." + id + ".execs_priced").Value(), m.Counter("node." + id + ".execs_text").Value()
}

// jointOffer is the 2-way partial among a reply's offers.
func jointOffer(t *testing.T, offers []trading.Offer) trading.Offer {
	t.Helper()
	for _, o := range offers {
		if len(o.Bindings) == 2 && !o.PartialAgg && !o.FromView {
			return o
		}
	}
	t.Fatalf("no 2-way partial among %d offers", len(offers))
	return trading.Offer{}
}

// A purchase under the generation the offer was priced in opens the plan it
// was priced with; once the store has moved — a row inserted, a view added —
// the same request is planned from its text against what the store holds now,
// so the answer has the new row. A record evicted past maxStandingRFBs leaves
// the text path too, and the delivery is filed as it always was.
func TestPurchaseOpensThePricedPlanWithinItsGeneration(t *testing.T) {
	m := obs.NewMetrics()
	led := ledger.New(2 * maxStandingRFBs)
	n := telcoNodeCfg(t, func(c *Config) { c.Metrics = m })
	n.SetLedger(led)
	quote := func(rfbID string) trading.Offer {
		t.Helper()
		rfb := wideRFB(rfbID, 1)
		offers, err := bidOffers(n.RequestBids(rfb))
		if err != nil {
			t.Fatal(err)
		}
		o := jointOffer(t, offers)
		if err := n.Award(trading.Award{RFBID: rfbID, OfferID: o.OfferID, BuyerID: "athens"}); err != nil {
			t.Fatal(err)
		}
		return o
	}
	fetch := func(o trading.Offer, wantPriced bool) trading.ExecResp {
		t.Helper()
		p0, t0 := whichPlan(m, "myconos")
		resp, err := n.Execute(trading.ExecReq{BuyerID: "athens", OfferID: o.OfferID, SQL: o.SQL})
		if err != nil {
			t.Fatal(err)
		}
		p1, t1 := whichPlan(m, "myconos")
		if wantPriced != (p1 == p0+1) || wantPriced == (t1 == t0+1) {
			t.Fatalf("offer %s: priced executions %d -> %d, text %d -> %d, want priced=%v", o.OfferID, p0, p1, t0, t1, wantPriced)
		}
		if !reflect.DeepEqual(resp.Cols, o.Cols) {
			t.Fatalf("offer %s ships %v, it declared %v", o.OfferID, resp.Cols, o.Cols)
		}
		return resp
	}

	o := quote("g-same")
	before := fetch(o, true)
	if again := fetch(o, true); !reflect.DeepEqual(again.Rows, before.Rows) {
		t.Fatalf("the same priced plan answered differently:\n%v\n%v", again.Rows, before.Rows)
	}

	// Insert between award and fetch: custid 1 is inside every wideRFB query.
	o = quote("g-insert")
	if err := n.Store().Insert("invoiceline", "p0",
		value.Row{value.NewInt(9000), value.NewInt(1), value.NewInt(1), value.NewFloat(7)}); err != nil {
		t.Fatal(err)
	}
	if after := fetch(o, false); len(after.Rows) != len(before.Rows)+1 {
		t.Fatalf("after the insert the purchase returns %d rows, want %d: a stale plan or a stale answer", len(after.Rows), len(before.Rows)+1)
	}
	fetch(quote("g-insert2"), true) // priced anew under the new generation

	o = quote("g-view")
	if err := n.Store().AddView(&storage.MaterializedView{Name: "spend",
		SQL:     "SELECT i.custid, SUM(i.charge) AS total FROM invoiceline i GROUP BY i.custid",
		Columns: []catalog.ColumnDef{{Name: "custid", Kind: value.Int}, {Name: "total", Kind: value.Float}},
	}); err != nil {
		t.Fatal(err)
	}
	fetch(o, false)

	// Evicted: the record is gone, the id resolves to nothing, the text runs —
	// and the delivery is still filed under the RFB the id names.
	o = quote("g-evicted")
	for i := 0; i < maxStandingRFBs; i++ {
		quote(fmt.Sprintf("g-filler%d", i))
	}
	if n.purchased(o.OfferID) != nil {
		t.Fatal("the record survived maxStandingRFBs newer ones")
	}
	fetch(o, false)
	var served []ledger.Event
	for _, neg := range led.Negotiations(0) {
		for _, e := range neg.Events {
			if e.Kind == ledger.KindServed && neg.ID == "g-evicted" {
				served = append(served, e)
			}
		}
	}
	if len(served) != 1 || served[0].OfferID != o.OfferID || served[0].SQL != o.SQL {
		t.Fatalf("evicted offer's delivery filed as %+v, want one served event under g-evicted", served)
	}
}

// An offer is good for the query it quoted. A request that names a standing
// offer but carries another text is refused before a row ships and nothing is
// recorded as served under the offer; the offer's own text is still honoured,
// and an id the book does not know keeps the ad hoc path.
func TestExecuteRefusesAnotherTextUnderAStandingOffer(t *testing.T) {
	n := telcoNodeCfg(t, nil)
	led := ledger.New(8)
	n.SetLedger(led)
	offers, err := bidOffers(n.RequestBids(wideRFB("r-swap", 1)))
	if err != nil {
		t.Fatal(err)
	}
	cheap := jointOffer(t, offers)
	dear := "SELECT i.invid, i.charge FROM invoiceline i"
	for _, req := range []trading.ExecReq{
		{BuyerID: "athens", OfferID: cheap.OfferID, SQL: dear},
		{BuyerID: "athens", OfferID: cheap.OfferID, SQL: dear, Stream: true, BatchRows: 4},
		{BuyerID: "athens", OfferID: cheap.OfferID, SQL: cheap.SQL + " "},
	} {
		if resp, err := n.Execute(req); err == nil || !strings.Contains(err.Error(), "another query") {
			t.Fatalf("%q under offer %s: %d rows, err %v; want a refusal", req.SQL, cheap.OfferID, len(resp.Rows), err)
		}
	}
	if served := servedEvents(led); len(served) != 0 || n.OpenCursors() != 0 {
		t.Fatalf("a refused request left %d served events and %d cursors", len(served), n.OpenCursors())
	}
	if _, err := n.Execute(trading.ExecReq{BuyerID: "athens", OfferID: cheap.OfferID, SQL: cheap.SQL}); err != nil {
		t.Fatalf("the offer's own text: %v", err)
	}
	if _, err := n.Execute(trading.ExecReq{BuyerID: "athens", OfferID: "myconos/r-gone/q0/o1", SQL: dear}); err != nil {
		t.Fatalf("an id the book does not hold keeps the text path: %v", err)
	}
}

// A buyer process that restarts numbers its RFBs from one again, so a
// long-lived seller sees one RFB id — and so one offer id — for two queries.
// The id answers to whichever was filed last, and a repeat of the first query
// is answered from its flight without filing again: the buyer then fetches an
// id whose entry holds the other text. Id and text together still find the
// offer that was quoted, and each side gets its own plan and columns.
func TestReusedRFBIDServesEachQuoteItsOwnText(t *testing.T) {
	m := obs.NewMetrics()
	n := telcoNodeCfg(t, func(c *Config) { c.Metrics = m })
	ask := func(sql string) trading.Offer {
		t.Helper()
		offers, err := bidOffers(n.RequestBids(trading.RFB{RFBID: "qtsql-rfb1", BuyerID: "athens",
			Queries: []trading.QueryRequest{{QID: "q0", SQL: sql}}}))
		if err != nil {
			t.Fatal(err)
		}
		return jointOffer(t, offers)
	}
	sqlA, sqlB := wideRFB("", 1).Queries[0].SQL, wideRFB("", 3).Queries[2].SQL
	a := ask(sqlA)
	b := ask(sqlB)
	if again := ask(sqlA); !reflect.DeepEqual(again, a) || a.OfferID != b.OfferID || a.SQL == b.SQL {
		t.Fatalf("want one id quoted for two texts and the repeat equal to the first quote:\n%+v\n%+v\n%+v", a, b, again)
	}
	for _, o := range []trading.Offer{a, b} {
		resp, err := n.Execute(trading.ExecReq{BuyerID: "athens", OfferID: o.OfferID, SQL: o.SQL})
		if err != nil {
			t.Fatalf("%s for %q: %v", o.OfferID, o.SQL, err)
		}
		want, err := n.Execute(trading.ExecReq{SQL: o.SQL})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.Rows, want.Rows) || !reflect.DeepEqual(resp.Cols, o.Cols) {
			t.Fatalf("%s for %q: %d rows under %v, its text gives %d under %v", o.OfferID, o.SQL, len(resp.Rows), resp.Cols, len(want.Rows), want.Cols)
		}
	}
	if priced, text := whichPlan(m, "myconos"); priced != 2 || text != 2 {
		t.Fatalf("%d priced and %d text executions, want the two purchases priced and the two references text", priced, text)
	}
}

// One draft's plan is held by the price-cache entry, by every book entry
// minted from it and by every execution of those: nothing may write it. Eight
// goroutines open and drain the plans of one entry's offers at once, through
// Execute and straight on an executor, while the entry keeps being priced;
// -race fails on any write, and every answer is the same.
func TestPricedPlanIsSharedReadOnly(t *testing.T) {
	m := obs.NewMetrics()
	n := telcoNodeCfg(t, func(c *Config) { c.Metrics = m })
	rfb := wideRFB("r-shared", 1)
	offers, err := bidOffers(n.RequestBids(rfb))
	if err != nil || len(offers) < 4 {
		t.Fatalf("%d offers, %v; want the 1- and 2-way partials and the partial aggregate", len(offers), err)
	}
	want := make([][]value.Row, len(offers))
	for i, o := range offers {
		res, err := (&exec.Executor{Store: n.store}).Run(n.purchased(o.OfferID).plan)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Rows
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 10; round++ { // 80 new records: the first one stays within maxStandingRFBs
				for i, o := range offers {
					var rows []value.Row
					if (g+round)%2 == 0 {
						resp, err := n.Execute(trading.ExecReq{BuyerID: "athens", OfferID: o.OfferID, SQL: o.SQL, BatchRows: 3})
						if err != nil {
							t.Errorf("execute %s: %v", o.OfferID, err)
							return
						}
						rows = resp.Rows
					} else {
						res, err := (&exec.Executor{Store: n.store, BatchSize: 5}).Run(n.purchased(o.OfferID).plan)
						if err != nil {
							t.Errorf("run %s: %v", o.OfferID, err)
							return
						}
						rows = res.Rows
					}
					if !reflect.DeepEqual(rows, want[i]) {
						t.Errorf("offer %s answered %v, alone it answers %v", o.OfferID, rows, want[i])
						return
					}
				}
				// The same entry, minted again into another record.
				again := rfb
				again.RFBID = fmt.Sprintf("r-shared-%d-%d", g, round)
				if _, err := n.RequestBids(again); err != nil {
					t.Errorf("re-pricing: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if _, text := whichPlan(m, "myconos"); text != 0 {
		t.Fatalf("%d executions were planned from text; the store never moved", text)
	}
	shared := n.purchased(offers[0].OfferID).plan
	if other := n.purchased(strings.Replace(offers[0].OfferID, "r-shared", "r-shared-0-0", 1)); other == nil || other.plan != shared {
		t.Fatal("two records' offers of one draft do not share its plan")
	}
}

// BenchmarkPurchasedOpen is the seller's side of a purchase up to its first
// batch — find the offer, get a plan, open it, pull 16 rows, let go — for the
// 3-way partial of a 3-relation join: on the plan the offer was priced with,
// and planned from the same text as an ad hoc request is.
func BenchmarkPurchasedOpen(b *testing.B) {
	n := telcoNodeCfg(b, nil)
	rfb := trading.RFB{RFBID: "rfb-open", BuyerID: "athens", Queries: []trading.QueryRequest{{QID: "q0",
		SQL: `SELECT c.custname, i.charge, j.invid FROM customer c, invoiceline i, invoiceline j
			WHERE c.custid = i.custid AND i.custid = j.custid AND c.custid < 30`}}}
	offers, err := bidOffers(n.RequestBids(rfb))
	if err != nil {
		b.Fatal(err)
	}
	var threeWay trading.Offer
	for _, o := range offers {
		if len(o.Bindings) == 3 {
			threeWay = o
		}
	}
	for _, bc := range []struct{ name, offerID string }{{"priced", threeWay.OfferID}, {"text", ""}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				resp, err := n.Execute(trading.ExecReq{OfferID: bc.offerID, SQL: threeWay.SQL, Stream: true, BatchRows: 16})
				if err != nil || len(resp.Rows) != 16 || !resp.More {
					b.Fatalf("%d rows, more %v, %v", len(resp.Rows), resp.More, err)
				}
				if _, err := n.Execute(trading.ExecReq{Cursor: resp.Cursor, CloseCursor: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
