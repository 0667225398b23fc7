package node

import (
	"strings"
	"testing"

	"qtrade/internal/catalog"
	"qtrade/internal/sqlparse"
	"qtrade/internal/storage"
	"qtrade/internal/trading"
	"qtrade/internal/value"
)

func telcoSchema() *catalog.Schema {
	sch := catalog.NewSchema()
	sch.MustAddTable(&catalog.TableDef{Name: "customer", Columns: []catalog.ColumnDef{
		{Name: "custid", Kind: value.Int},
		{Name: "custname", Kind: value.Str},
		{Name: "office", Kind: value.Str},
	}})
	sch.MustAddTable(&catalog.TableDef{Name: "invoiceline", Columns: []catalog.ColumnDef{
		{Name: "invid", Kind: value.Int},
		{Name: "linenum", Kind: value.Int},
		{Name: "custid", Kind: value.Int},
		{Name: "charge", Kind: value.Float},
	}})
	if err := sch.SetPartitions("customer", []*catalog.Partition{
		{Table: "customer", ID: "corfu", Predicate: sqlparse.MustParseExpr("office = 'Corfu'")},
		{Table: "customer", ID: "myconos", Predicate: sqlparse.MustParseExpr("office = 'Myconos'")},
	}); err != nil {
		panic(err)
	}
	return sch
}

// myconosNode holds the myconos customer partition and all invoice lines.
func myconosNode(t *testing.T, strat trading.SellerStrategy) *Node {
	t.Helper()
	sch := telcoSchema()
	n := New(Config{ID: "myconos", Schema: sch, Strategy: strat})
	cust, _ := sch.Table("customer")
	inv, _ := sch.Table("invoiceline")
	if _, err := n.Store().CreateFragment(cust, "myconos"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Store().CreateFragment(inv, "p0"); err != nil {
		t.Fatal(err)
	}
	if err := n.Store().Insert("customer", "myconos",
		value.Row{value.NewInt(3), value.NewStr("carol"), value.NewStr("Myconos")},
		value.Row{value.NewInt(5), value.NewStr("eve"), value.NewStr("Myconos")},
	); err != nil {
		t.Fatal(err)
	}
	if err := n.Store().Insert("invoiceline", "p0",
		value.Row{value.NewInt(102), value.NewInt(1), value.NewInt(3), value.NewFloat(20)},
		value.Row{value.NewInt(103), value.NewInt(1), value.NewInt(5), value.NewFloat(2)},
		value.Row{value.NewInt(100), value.NewInt(1), value.NewInt(1), value.NewFloat(10)},
	); err != nil {
		t.Fatal(err)
	}
	return n
}

const paperQuery = `SELECT c.office, SUM(i.charge) AS total
	FROM customer c, invoiceline i
	WHERE c.custid = i.custid AND c.office IN ('Corfu', 'Myconos')
	GROUP BY c.office`

func paperRFB() trading.RFB {
	return trading.RFB{RFBID: "rfb1", BuyerID: "athens",
		Queries: []trading.QueryRequest{{QID: "q0", SQL: paperQuery}}}
}

// bidOffers unwraps a BidReply-returning call for tests that only care
// about the offers.
func bidOffers(rep trading.BidReply, err error) ([]trading.Offer, error) {
	return rep.Offers, err
}

func TestRequestBidsPaperExample(t *testing.T) {
	n := myconosNode(t, nil)
	offers, err := bidOffers(n.RequestBids(paperRFB()))
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) == 0 {
		t.Fatal("Myconos must offer something")
	}
	// Offers must include the raw 2-way partial with the office restriction.
	var joint *trading.Offer
	for i := range offers {
		if len(offers[i].Bindings) == 2 && !offers[i].PartialAgg {
			joint = &offers[i]
		}
	}
	if joint == nil {
		t.Fatalf("no 2-way offer among %d offers", len(offers))
	}
	if !strings.Contains(joint.SQL, "Myconos") {
		t.Fatalf("restriction missing: %s", joint.SQL)
	}
	if joint.Complete {
		t.Fatal("partial coverage cannot be complete")
	}
	if !joint.Stripped {
		t.Fatal("aggregation must be stripped (partial extent)")
	}
	if joint.Parts["c"][0] != "myconos" {
		t.Fatalf("parts: %+v", joint.Parts)
	}
	if joint.Props.TotalTime <= 0 || joint.Props.Completeness <= 0 || joint.Props.Completeness > 1 {
		t.Fatalf("props: %+v", joint.Props)
	}
	if joint.Price != joint.Props.TotalTime {
		t.Fatalf("cooperative price must be truthful: %f vs %f", joint.Price, joint.Props.TotalTime)
	}
	if len(joint.Cols) == 0 {
		t.Fatal("offer must carry its output schema")
	}
	// Every offered SQL must re-parse.
	for _, o := range offers {
		if _, err := sqlparse.ParseSelect(o.SQL); err != nil {
			t.Fatalf("offer SQL unparseable: %q: %v", o.SQL, err)
		}
	}
}

func TestRequestBidsIrrelevantNode(t *testing.T) {
	sch := telcoSchema()
	n := New(Config{ID: "empty", Schema: sch})
	offers, err := bidOffers(n.RequestBids(paperRFB()))
	if err != nil || len(offers) != 0 {
		t.Fatalf("empty node must silently offer nothing: %v %v", offers, err)
	}
}

func TestCompetitivePricingAndImprove(t *testing.T) {
	strat := trading.NewCompetitive()
	n := myconosNode(t, strat)
	offers, err := bidOffers(n.RequestBids(paperRFB()))
	if err != nil || len(offers) == 0 {
		t.Fatal(err)
	}
	o := offers[0]
	truth := o.Props.TotalTime
	if o.Price <= truth {
		t.Fatalf("competitive ask must exceed truth: %f vs %f", o.Price, truth)
	}
	// A cheaper competitor forces an undercut.
	improved, err := bidOffers(n.ImproveBids(trading.ImproveReq{
		RFBID:  "rfb1",
		Prices: trading.QueryPrices{{QID: "q0", Best: o.Price * 0.99}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(improved) == 0 {
		t.Fatal("seller must undercut")
	}
	for _, im := range improved {
		if im.Price >= o.Price && im.OfferID == o.OfferID {
			t.Fatalf("no price cut: %f", im.Price)
		}
	}
	// Unknown RFB: nothing to improve.
	none, err := bidOffers(n.ImproveBids(trading.ImproveReq{RFBID: "ghost", Prices: trading.QueryPrices{{QID: "q0", Best: 1}}}))
	if err != nil || len(none) != 0 {
		t.Fatal("unknown rfb must be empty")
	}
}

func TestAwardFeedsStrategy(t *testing.T) {
	strat := trading.NewCompetitive()
	n := myconosNode(t, strat)
	offers, _ := bidOffers(n.RequestBids(paperRFB()))
	before := strat.Margin()
	if err := n.Award(trading.Award{RFBID: "rfb1", OfferID: offers[0].OfferID}); err != nil {
		t.Fatal(err)
	}
	if strat.Margin() <= before*0.5 {
		t.Fatalf("winning must not crash the margin: %f -> %f", before, strat.Margin())
	}
	if err := n.Award(trading.Award{RFBID: "rfb1", OfferID: "nope"}); err == nil {
		t.Fatal("unknown offer award must error")
	}
	n.RevokeStandingOffers()
	if _, err := n.ImproveBids(trading.ImproveReq{RFBID: "rfb1", Prices: trading.QueryPrices{{QID: "q0", Best: 0.01}}}); err != nil {
		t.Fatal(err)
	}
}

func TestExecutePurchasedQuery(t *testing.T) {
	n := myconosNode(t, nil)
	offers, _ := bidOffers(n.RequestBids(paperRFB()))
	var joint *trading.Offer
	for i := range offers {
		if len(offers[i].Bindings) == 2 && !offers[i].PartialAgg {
			joint = &offers[i]
		}
	}
	resp, err := n.Execute(trading.ExecReq{BuyerID: "athens", OfferID: joint.OfferID, SQL: joint.SQL})
	if err != nil {
		t.Fatalf("execute %q: %v", joint.SQL, err)
	}
	// Myconos customers 3 and 5 have 2 invoice lines; customer 1's line has
	// no local customer row.
	if len(resp.Rows) != 2 {
		t.Fatalf("rows: %v", resp.Rows)
	}
	if len(resp.Cols) != len(joint.Cols) {
		t.Fatalf("schema drift: %d vs %d", len(resp.Cols), len(joint.Cols))
	}
	if _, err := n.Execute(trading.ExecReq{SQL: "not sql"}); err == nil {
		t.Fatal("bad SQL must error")
	}
	if _, err := n.Execute(trading.ExecReq{SQL: "SELECT g.x FROM ghost g"}); err == nil {
		t.Fatal("unknown table must error")
	}
}

func TestViewOffersAndExecution(t *testing.T) {
	n := myconosNode(t, nil)
	if err := n.Store().AddView(&storage.MaterializedView{
		Name: "officetotals",
		SQL: `SELECT c.office, c.custid, SUM(i.charge) AS total FROM customer c, invoiceline i
		      WHERE c.custid = i.custid GROUP BY c.office, c.custid`,
		Columns: []catalog.ColumnDef{
			{Name: "office", Kind: value.Str},
			{Name: "custid", Kind: value.Int},
			{Name: "total", Kind: value.Float},
		},
		Rows: []value.Row{
			{value.NewStr("Myconos"), value.NewInt(3), value.NewFloat(20)},
			{value.NewStr("Myconos"), value.NewInt(5), value.NewFloat(2)},
		},
	}); err != nil {
		t.Fatal(err)
	}
	q := `SELECT c.office, SUM(i.charge) AS total FROM customer c, invoiceline i
	      WHERE c.custid = i.custid GROUP BY c.office`
	rfb := trading.RFB{RFBID: "r2", BuyerID: "athens",
		Queries: []trading.QueryRequest{{QID: "q0", SQL: q}}}
	offers, err := bidOffers(n.RequestBids(rfb))
	if err != nil {
		t.Fatal(err)
	}
	var viewOffer *trading.Offer
	for i := range offers {
		if offers[i].FromView {
			viewOffer = &offers[i]
		}
	}
	if viewOffer == nil {
		t.Fatal("view offer expected")
	}
	if !strings.Contains(viewOffer.SQL, "officetotals") {
		t.Fatalf("view offer SQL: %s", viewOffer.SQL)
	}
	resp, err := n.Execute(trading.ExecReq{SQL: viewOffer.SQL})
	if err != nil {
		t.Fatalf("execute view offer %q: %v", viewOffer.SQL, err)
	}
	if len(resp.Rows) != 1 || resp.Rows[0][1].AsFloat() != 22 {
		t.Fatalf("view rollup: %v", resp.Rows)
	}
	// Ablation: views disabled.
	n2 := myconosNode(t, nil)
	n2.cfg.DisableViews = true
	offers2, _ := bidOffers(n2.RequestBids(rfb))
	for _, o := range offers2 {
		if o.FromView {
			t.Fatal("views disabled but offered")
		}
	}
}

func TestOfferCap(t *testing.T) {
	sch := telcoSchema()
	n := New(Config{ID: "x", Schema: sch, MaxOffersPerQuery: 2})
	cust, _ := sch.Table("customer")
	inv, _ := sch.Table("invoiceline")
	if _, err := n.Store().CreateFragment(cust, "myconos"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Store().CreateFragment(inv, "p0"); err != nil {
		t.Fatal(err)
	}
	offers, err := bidOffers(n.RequestBids(paperRFB()))
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) > 2 {
		t.Fatalf("cap violated: %d", len(offers))
	}
	// Widest coverage survives the cap.
	if len(offers[0].Bindings) != 2 {
		t.Fatalf("widest offer must survive: %+v", offers[0].Bindings)
	}
}

func TestOutputSpecs(t *testing.T) {
	sch := telcoSchema()
	sel := sqlparse.MustParseSelect(
		"SELECT c.office, COUNT(*) AS n, SUM(i.charge) AS total, AVG(i.charge) AS a FROM customer c, invoiceline i WHERE c.custid = i.custid GROUP BY c.office")
	specs, err := OutputSpecs(sel, sch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 {
		t.Fatalf("specs: %+v", specs)
	}
	if specs[0].Kind != value.Str || specs[0].Name != "office" {
		t.Fatalf("office spec: %+v", specs[0])
	}
	if specs[1].Kind != value.Int || specs[1].Name != "n" {
		t.Fatalf("count spec: %+v", specs[1])
	}
	if specs[2].Kind != value.Float || specs[3].Kind != value.Float {
		t.Fatalf("sum/avg kinds: %+v", specs)
	}
	star := sqlparse.MustParseSelect("SELECT * FROM customer c")
	specs, err = OutputSpecs(star, sch, nil)
	if err != nil || len(specs) != 3 || specs[0].Table != "c" {
		t.Fatalf("star specs: %+v %v", specs, err)
	}
}

func TestLoadTracking(t *testing.T) {
	n := myconosNode(t, nil)
	if n.Load() != 0 {
		t.Fatal("idle load")
	}
	if n.ID() != "myconos" || n.Schema() == nil || n.CostModel() == nil {
		t.Fatal("accessors")
	}
	if n.Weights().TotalTime != 1 {
		t.Fatalf("default weights must value total time: %+v", n.Weights())
	}
}
