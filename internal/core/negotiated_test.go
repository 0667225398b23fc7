package core_test

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"qtrade/internal/catalog"
	"qtrade/internal/core"
	"qtrade/internal/cost"
	"qtrade/internal/storage"
	"qtrade/internal/trading"
	"qtrade/internal/workload"
)

// frozenPlans is what a fixed corpus of negotiations bought, written once
// before the buyer stopped sending every seller the whole of Q in every
// iteration, and never regenerated: how the buyer asks may change, what it
// buys and for how much may not.
const frozenPlans = "testdata/negotiated_plans.golden"

// negotiationCase is one federation and query of the frozen corpus.
type negotiationCase struct {
	name  string
	build func(t *testing.T) (*workload.Federation, string)
}

func negotiationCorpus() []negotiationCase {
	paper := func(strategy func() trading.SellerStrategy) func(t *testing.T) (*workload.Federation, string) {
		return func(t *testing.T) (*workload.Federation, string) {
			// The paper's scenario: the Athens office asks for the Corfu and
			// Myconos totals.
			f := workload.NewTelco(workload.TelcoOptions{CustomersPerOffice: 8, LinesPerCustomer: 3, Seed: 3, Strategy: strategy})
			f.Buyer = "athens"
			return f, workload.TotalsQuery("Corfu", "Myconos")
		}
	}
	chain := func(parts int) func(t *testing.T) (*workload.Federation, string) {
		return func(t *testing.T) (*workload.Federation, string) {
			opts := workload.ChainOptions{Relations: 3, Parts: parts, Nodes: 4, Replicas: 2, RowsPerRel: 120, Seed: 11}
			return workload.NewChain(opts), workload.ChainQuery(opts, 0.5)
		}
	}
	cases := []negotiationCase{
		{"paper", paper(nil)},
		{"paper-competitive", paper(func() trading.SellerStrategy { return trading.NewCompetitive() })},
		{"chain-1", chain(1)},
		{"chain-2", chain(2)},
		{"chain-4", chain(4)},
		{"star", func(t *testing.T) (*workload.Federation, string) {
			// Six fragments, one per node, and a seventh node holding nothing
			// that buys: a star has no replicas, so a buyer holding one could
			// not plan without its own bids.
			opts := workload.StarOptions{Dims: 3, FactRows: 120, DimRows: 20, FactParts: 3, Nodes: 7, Seed: 5}
			f := workload.NewStar(opts)
			f.Buyer = "n6"
			return f, workload.StarQuery(opts, 0.5)
		}},
		{"telco-view", func(t *testing.T) (*workload.Federation, string) {
			offices := []string{"Corfu", "Myconos", "Athens"}
			f := workload.NewTelco(workload.TelcoOptions{Offices: offices, CustomersPerOffice: 8, LinesPerCustomer: 3, Seed: 3})
			def := "SELECT c.office, SUM(i.charge) AS total FROM customer c, invoiceline i WHERE c.custid = i.custid GROUP BY c.office"
			truth, err := f.GroundTruth(def)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Nodes["corfu"].Store().AddView(&storage.MaterializedView{Name: "officetotals", SQL: def,
				Columns: []catalog.ColumnDef{{Name: "office", Kind: truth.Cols[0].Kind}, {Name: "total", Kind: truth.Cols[1].Kind}},
				Rows:    truth.Rows}); err != nil {
				t.Fatal(err)
			}
			return f, workload.TotalsQuery(offices...)
		}},
	}
	return cases
}

// negotiationProtocols are the three protocols every corpus case runs under.
func negotiationProtocols() []trading.Protocol {
	return []trading.Protocol{trading.SealedBid{}, trading.IterativeBid{MaxRounds: 4}, trading.Bargain{MaxRounds: 4}}
}

// describeNegotiation prints what one negotiation bought, with no offer or
// RFB id in it: the plan value, the EXPLAIN output and every purchase.
func describeNegotiation(sb *strings.Builder, name string, res *core.Result) {
	fmt.Fprintf(sb, "== %s\n", name)
	fmt.Fprintf(sb, "value %s\n", strconv.FormatFloat(core.ValueOf(cost.DefaultWeights(), &res.Candidate), 'g', -1, 64))
	sb.WriteString(core.ExplainResult(res))
	for _, o := range res.Candidate.Offers {
		fmt.Fprintf(sb, "buy %s %s %s @ %s\n", o.SellerID, o.QID, strconv.FormatFloat(o.Price, 'g', -1, 64), o.SQL)
	}
}

// negotiateCorpus runs every corpus case under every protocol, with and
// without the buyer's own node bidding, and prints what each bought.
func negotiateCorpus(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, c := range negotiationCorpus() {
		for _, proto := range negotiationProtocols() {
			for _, self := range []bool{false, true} {
				f, sql := c.build(t)
				cfg := f.BuyerConfig()
				cfg.Protocol = proto
				if !self {
					cfg.Self = nil
				}
				name := fmt.Sprintf("%s %s self=%v", c.name, proto.Name(), self)
				core.RestartRFBSeq()
				res, err := f.Optimize(cfg, sql)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var sb strings.Builder
				describeNegotiation(&sb, name, res)
				out[name] = sb.String()
			}
		}
	}
	return out
}

// TestNegotiatedPlansAreFrozen holds trading to what it buys: every corpus
// negotiation must print byte-identically to its frozen section, and every
// section must name a negotiation of the corpus.
func TestNegotiatedPlansAreFrozen(t *testing.T) {
	data, err := os.ReadFile(frozenPlans)
	if err != nil {
		t.Fatal(err)
	}
	frozen := map[string]string{}
	var name string
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if n, ok := strings.CutPrefix(line, "== "); ok {
			name = strings.TrimSuffix(n, "\n")
		}
		frozen[name] += line
	}
	got := negotiateCorpus(t)
	for name := range frozen {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: frozen section %q names no corpus negotiation", frozenPlans, name)
		}
	}
	for name, g := range got {
		want, ok := frozen[name]
		if !ok {
			t.Errorf("%s: no frozen section for %q", frozenPlans, name)
			continue
		}
		if g != want {
			t.Errorf("%s:\n got %s\nwant %s", name, g, want)
		}
	}
}
