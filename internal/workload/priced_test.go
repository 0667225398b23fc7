package workload

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"qtrade/internal/catalog"
	"qtrade/internal/node"
	"qtrade/internal/obs"
	"qtrade/internal/storage"
	"qtrade/internal/trading"
	"qtrade/internal/value"
)

// pricedPlans is the differential check "the plan a seller priced answers as
// the text it quoted does": every node of f is asked for bids on the queries,
// and every offer it makes is fetched twice — under its id, which opens the
// plan the offer was priced with, and as bare text, which parses, qualifies and
// plans it anew. Rows must agree as multisets and the columns shipped must be
// the ones the text derives. A composite's text names the extent it assembles
// from other nodes, so its reference is the oracle, which holds all of it. seen
// counts the offers checked by kind and arity ("o2" a 2-way partial, "v" a view
// offer, "s1" a composite, "a" a partial aggregate).
func pricedPlans(t *testing.T, label string, f *Federation, queries []string, seen map[string]int) {
	t.Helper()
	m := obs.NewMetrics()
	f.SetObs(nil, m)
	defer f.SetObs(nil, nil)
	ran := func(id string) (priced, text int64) {
		return m.Counter("node." + id + ".execs_priced").Value(), m.Counter("node." + id + ".execs_text").Value()
	}
	rfb := trading.RFB{RFBID: "priced-" + label, BuyerID: f.Buyer}
	for i, q := range queries {
		rfb.Queries = append(rfb.Queries, trading.QueryRequest{QID: fmt.Sprintf("q%d", i), SQL: q})
	}
	for id, n := range f.Nodes {
		rep, err := n.RequestBids(rfb)
		if err != nil {
			t.Fatalf("%s: %s: %v", label, id, err)
		}
		for _, o := range rep.Offers {
			kind := o.OfferID[strings.LastIndexByte(o.OfferID, '/')+1:][:1]
			p0, t0 := ran(id)
			priced, err := n.Execute(trading.ExecReq{BuyerID: f.Buyer, OfferID: o.OfferID, SQL: o.SQL})
			if err != nil {
				t.Fatalf("%s: %s: offer %s (%s): %v", label, id, o.OfferID, o.SQL, err)
			}
			if p1, t1 := ran(id); p1 != p0+1 || t1 != t0 {
				t.Fatalf("%s: %s: offer %s ran %d priced and %d text plans, want the priced one", label, id, o.OfferID, p1-p0, t1-t0)
			}
			reference := n
			if kind == "s" {
				reference = f.Oracle()
			}
			text, err := reference.Execute(trading.ExecReq{SQL: o.SQL})
			if err != nil {
				t.Fatalf("%s: %s: text of offer %s (%s): %v", label, id, o.OfferID, o.SQL, err)
			}
			if kind != "s" {
				if p1, t1 := ran(id); p1 != p0+1 || t1 != t0+1 {
					t.Fatalf("%s: %s: the bare text of offer %s did not take the text path", label, id, o.OfferID)
				}
			}
			if rowsKey(priced.Rows) != rowsKey(text.Rows) {
				t.Fatalf("%s: %s: offer %s: the priced plan returns %d rows, its text %d\n%s",
					label, id, o.OfferID, len(priced.Rows), len(text.Rows), o.SQL)
			}
			if !reflect.DeepEqual(priced.Cols, text.Cols) || !reflect.DeepEqual(priced.Cols, o.Cols) {
				t.Fatalf("%s: %s: offer %s declares %v, ships %v, its text derives %v", label, id, o.OfferID, o.Cols, priced.Cols, text.Cols)
			}
			switch kind {
			case "o", "s":
				kind += fmt.Sprint(len(o.Bindings))
			}
			seen[kind]++
		}
	}
}

// TestPricedPlanMatchesReplannedText runs the differential check over the
// telco corpus, where the offer kinds the chain federations never produce
// come up: a view offer (one office holds a matching materialized view) and
// partial aggregates, next to partials that keep their aggregation, ORDER BY
// and LIMIT. The chain federations and their edge predicates — partials of
// every arity, composites — run it from TestFuzzChainFederations.
func TestPricedPlanMatchesReplannedText(t *testing.T) {
	offices := []string{"Corfu", "Myconos", "Athens"}
	f := NewTelco(TelcoOptions{Offices: offices, CustomersPerOffice: 12, LinesPerCustomer: 3, Seed: 5})
	var holder *node.Node
	for _, n := range f.Nodes {
		if len(n.Store().PartIDs("invoiceline")) > 0 && len(n.Store().PartIDs("customer")) > 0 {
			holder = n
		}
	}
	truth, err := f.GroundTruth("SELECT c.office, c.custid, SUM(i.charge) AS total FROM customer c, invoiceline i WHERE c.custid = i.custid GROUP BY c.office, c.custid")
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.Store().AddView(&storage.MaterializedView{Name: "officetotals",
		SQL: "SELECT c.office, c.custid, SUM(i.charge) AS total FROM customer c, invoiceline i WHERE c.custid = i.custid GROUP BY c.office, c.custid",
		Columns: []catalog.ColumnDef{{Name: "office", Kind: value.Str}, {Name: "custid", Kind: value.Int},
			{Name: "total", Kind: value.Float}},
		Rows: truth.Rows,
	}); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	pricedPlans(t, "telco", f, []string{
		TotalsQuery(offices...),
		TotalsQuery("Corfu"),
		"SELECT c.office, SUM(i.charge) AS total FROM customer c, invoiceline i WHERE c.custid = i.custid GROUP BY c.office",
		"SELECT c.custname, i.charge FROM customer c, invoiceline i WHERE c.custid = i.custid AND c.office IN ('Corfu', 'Athens') AND i.charge > 20",
		"SELECT c.custname FROM customer c WHERE c.office IN ('Myconos', 'Athens') ORDER BY c.custname LIMIT 7",
		"SELECT COUNT(*), MAX(i.charge) FROM invoiceline i WHERE i.charge > 5",
	}, seen)
	for _, kind := range []string{"o1", "o2", "v", "a"} {
		if seen[kind] == 0 {
			t.Errorf("no %q offer was checked: %v", kind, seen)
		}
	}
}

// TestRepeatedQueriesRunOnPricedPlans is the telco_repeat shape: the seven
// office subsets asked over and over through the whole buyer, the buyer's own
// node selling too. Nothing moves the stores, so every purchase — first or
// repeated, from a cold or a warm price cache — opens the plan it was priced
// with and no seller plans a purchased text.
func TestRepeatedQueriesRunOnPricedPlans(t *testing.T) {
	offices := []string{"Corfu", "Myconos", "Athens", "Rhodes"}
	f := NewTelco(TelcoOptions{Offices: offices, CustomersPerOffice: 20, LinesPerCustomer: 3, Seed: 1})
	m := obs.NewMetrics()
	f.SetObs(nil, m)
	subsets := [][]string{offices[:1], offices[1:2], offices[:2], offices[1:3], offices[:3], offices[1:], offices}
	for round := 0; round < 3; round++ {
		for _, subset := range subsets {
			q := TotalsQuery(subset...)
			truth, err := f.GroundTruth(q)
			if err != nil {
				t.Fatal(err)
			}
			res, err := f.Optimize(f.BuyerConfig(), q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := f.Execute(res)
			if err != nil {
				t.Fatal(err)
			}
			if rowsKey(got.Rows) != rowsKey(truth.Rows) {
				t.Fatalf("round %d, %v: answer differs from the oracle", round, subset)
			}
		}
	}
	var priced, text int64
	for id := range f.Nodes {
		priced += m.Counter("node." + id + ".execs_priced").Value()
		text += m.Counter("node." + id + ".execs_text").Value()
	}
	if text != 0 || priced < int64(3*len(subsets)) {
		t.Fatalf("%d purchases ran on priced plans and %d on re-planned text, want all of at least %d priced", priced, text, 3*len(subsets))
	}
}
