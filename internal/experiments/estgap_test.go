package experiments

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"qtrade/internal/baseline"
	"qtrade/internal/cost"
	"qtrade/internal/plan"
	"qtrade/internal/qgraph"
	"qtrade/internal/sqlparse"
	"qtrade/internal/workload"
)

// TestEstimateGapIsTwoTerms re-derives what QT_est < 1 in T1 and T2 is
// (ROADMAP 4(e)) on the quick suite's chains of 2–4 relations and stars of 2–3
// dimensions. QT and the centralized optimum read the same fragments — both
// prune the filtered relation to its first partition, so pruning is not what
// separates them — and their join and tail costs are equal. The whole gap is
// (1) the buyer's own fragment: the baseline scans it after the slowest
// fetch, QT buys it from itself as one more answer delivered in parallel, at
// the price a remote seller would ask, network transfer included (on the
// star that quote is itself the slowest "fetch"); and (2) the slowest fetch:
// the baseline ships unprojected rows, and on chains of three relations or
// more fetches r3 whole from one site so as not to scan a second own
// fragment serially. Neither estimator is changed here.
func TestEstimateGapIsTwoTerms(t *testing.T) {
	type fed struct {
		name string
		f    *workload.Federation
		q    string
	}
	var feds []fed
	for k := 2; k <= 4; k++ {
		f, opts := chainFed(workload.ChainOptions{Relations: k, Nodes: 6, Seed: 1})
		feds = append(feds, fed{fmt.Sprintf("chain of %d", k), f, workload.ChainQuery(opts, 0.5)})
	}
	for dims := 2; dims <= 3; dims++ {
		opts := workload.StarOptions{Dims: dims, FactRows: 300, DimRows: 30, FactParts: 2, Nodes: 6, Seed: 1, SkipOracle: true}
		feds = append(feds, fed{fmt.Sprintf("star of %d", dims), workload.NewStar(opts), workload.StarQuery(opts, 0.5)})
	}
	model := cost.Default()
	for _, c := range feds {
		f, k := c.f, c.name
		central, err := baseline.Centralized(baseline.NewGlobalView(f.Schema, nil, f.Nodes), f.Buyer, c.q, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, _, _, err := optimizeQT(f, f.BuyerConfig(), c.q)
		if err != nil {
			t.Fatal(err)
		}
		qt := res.Candidate

		// What each plan reads, as table/partition, and what it waits for.
		var qtFrags, cenFrags, cenOwn []string
		var qtSlowest, cenSlowest float64
		selfRows := map[string]int64{} // the buyer's self-offers, by fragment
		for _, o := range qt.Offers {
			qtSlowest = math.Max(qtSlowest, o.Props.TotalTime)
			if o.SellerID == f.Buyer && o.Props.TotalTime < model.Scan(o.Props.Rows)+model.Transfer(o.Props.Bytes) {
				t.Fatalf("%s: self-offer quoted %.4f: below scan + transfer, so the transfer is no longer charged", k, o.Props.TotalTime)
			}
			for table, parts := range o.Parts {
				for _, p := range parts {
					qtFrags = append(qtFrags, table+"/"+p)
					if o.SellerID == f.Buyer {
						selfRows[table+"/"+p] = o.Props.Rows
					}
				}
			}
		}
		var walk func(n plan.Node)
		walk = func(n plan.Node) {
			switch v := n.(type) {
			case *plan.Scan:
				cenFrags = append(cenFrags, v.Def.Name+"/"+v.PartID)
				cenOwn = append(cenOwn, v.Def.Name+"/"+v.PartID)
			case *plan.Remote:
				cenSlowest = math.Max(cenSlowest, v.EstCost)
				sel := sqlparse.MustParseSelect(v.SQL)
				for _, p := range qgraph.New(sel).Relevant(f.Schema, 0) {
					cenFrags = append(cenFrags, sel.From[0].Name+"/"+p)
				}
			}
			for _, c := range n.Children() {
				walk(c)
			}
		}
		walk(central.Root)
		sort.Strings(qtFrags)
		sort.Strings(cenFrags)
		if !reflect.DeepEqual(qtFrags, cenFrags) {
			t.Fatalf("%s: QT reads %v, the centralized plan %v", k, qtFrags, cenFrags)
		}

		// (1): what the baseline reads locally QT bought from itself, quoted
		// like a remote seller's answer of the same size.
		var ownScan float64
		for _, frag := range cenOwn {
			rows, ok := selfRows[frag]
			if !ok {
				t.Fatalf("%s: the baseline scans %s at the buyer, QT did not buy it from itself", k, frag)
			}
			ownScan += model.Scan(rows)
		}
		gap := central.ResponseTime - qt.ResponseTime
		if want := ownScan + cenSlowest - qtSlowest; math.Abs(gap-want) > 1e-9 {
			t.Fatalf("%s: estimate gap %.6f, own scan %.6f + slowest fetch %.6f - %.6f = %.6f",
				k, gap, ownScan, cenSlowest, qtSlowest, want)
		}
		if gap <= 0 || ownScan <= 0 {
			t.Fatalf("%s: gap %.4f, own scan %.4f of %v: expected the baseline to read its own fragment", k, gap, ownScan, cenOwn)
		}
	}
}
