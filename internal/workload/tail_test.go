package workload

import (
	"fmt"
	"strings"
	"testing"

	"qtrade/internal/catalog"
	"qtrade/internal/core"
	"qtrade/internal/cost"
	"qtrade/internal/exec"
	"qtrade/internal/node"
	"qtrade/internal/storage"
	"qtrade/internal/value"
)

// tailShapes are queries whose tail — DISTINCT, HAVING, ORDER BY, LIMIT — was
// lost by one of the hand-built copies of it, each with the path it was
// written to reach: "merge" (aggregate pushdown), "view" (a view offer), or ""
// for any. A refused shape must fail on the oracle and under trading alike.
var tailShapes = []struct {
	name, q, via string
	refused      bool
}{
	{name: "(1) the pushdown merge keeps DISTINCT", via: "merge",
		q: "SELECT DISTINCT COUNT(*) AS n FROM customer c, invoiceline i WHERE c.custid = i.custid GROUP BY c.office"},
	{name: "(2) aggregation over an SPJ view keeps DISTINCT", via: "view",
		q: "SELECT DISTINCT COUNT(*) AS n FROM customer c, invoiceline i WHERE c.custid = i.custid GROUP BY c.office"},
	{name: "(3) a rollup keeps ORDER BY under its LIMIT", via: "view",
		q: "SELECT c.office, SUM(i.charge) AS total FROM customer c, invoiceline i WHERE c.custid = i.custid GROUP BY c.office ORDER BY c.office LIMIT 2"},
	{name: "(4) an exact rollup keeps HAVING", via: "view",
		q: "SELECT c.office, c.custid, SUM(i.charge) AS total FROM customer c, invoiceline i WHERE c.custid = i.custid GROUP BY c.office, c.custid HAVING SUM(i.charge) > 60"},
	{name: "(5) an exact rollup keeps DISTINCT", via: "view",
		q: "SELECT DISTINCT c.office FROM customer c, invoiceline i WHERE c.custid = i.custid GROUP BY c.office, c.custid"},
	{name: "(6) HAVING without grouping is refused", refused: true,
		q: "SELECT c.custid FROM customer c HAVING c.custid > 5"},
	{name: "ORDER BY an aggregate that is not selected", via: "merge",
		q: "SELECT c.office FROM customer c, invoiceline i WHERE c.custid = i.custid AND i.charge > 20 GROUP BY c.office ORDER BY COUNT(*) DESC, c.office"},
	{name: "ORDER BY a column that is neither grouped nor aggregated is refused", refused: true,
		q: "SELECT c.office, SUM(i.charge) AS total FROM customer c, invoiceline i WHERE c.custid = i.custid GROUP BY c.office ORDER BY i.charge"},
}

// tailViews materializes, on one office node, an SPJ view of (office,
// charge) and a per-customer rollup, from the oracle's answers.
func tailViews(t *testing.T, f *Federation) {
	t.Helper()
	defs := map[string]string{
		"officecharges": "SELECT c.office, i.charge FROM customer c, invoiceline i WHERE c.custid = i.custid",
		"custtotals":    "SELECT c.office, c.custid, SUM(i.charge) AS total FROM customer c, invoiceline i WHERE c.custid = i.custid GROUP BY c.office, c.custid",
	}
	for name, sql := range defs {
		truth, err := f.GroundTruth(sql)
		if err != nil {
			t.Fatal(err)
		}
		cols := make([]catalog.ColumnDef, len(truth.Cols))
		for i, c := range truth.Cols {
			cols[i] = catalog.ColumnDef{Name: c.Name, Kind: c.Kind}
		}
		err = f.Nodes["corfu"].Store().AddView(&storage.MaterializedView{Name: name, SQL: sql, Columns: cols, Rows: truth.Rows})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// orderedKey renders rows in the order they came, for queries with ORDER BY.
func orderedKey(rows []value.Row) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		idx := make([]int, len(r))
		for j := range idx {
			idx[j] = j
		}
		out[i] = value.Key(r, idx)
	}
	return strings.Join(out, "|")
}

// TestQueryTailMatchesTheOracle runs every tail shape through trading — with
// and without materialized views, with aggregate pushdown on and off, in every
// plan-generator mode — against the single-node oracle, and checks that each
// shape reached the path it was written for at least once.
func TestQueryTailMatchesTheOracle(t *testing.T) {
	offices := []string{"Corfu", "Myconos", "Athens", "Chania", "Rhodes"}
	modes := []core.PlanGenMode{core.GenDP, core.GenIDP, core.GenGreedy}
	reached := map[string]bool{}
	for _, views := range []bool{false, true} {
		// Without views the network is WAN-ish, where shipping partial
		// aggregates beats raw rows; with them it is the default, where a
		// view offer beats both.
		model := cost.Default()
		if !views {
			model.BytesPerMS = 200
		}
		for _, push := range []bool{true, false} {
			f := NewTelco(TelcoOptions{Offices: offices, CustomersPerOffice: 40, LinesPerCustomer: 3, Seed: 3, Model: model,
				Configure: func(c *node.Config) { c.DisableAggPush = !push }})
			if views {
				tailViews(t, f)
			}
			for _, sh := range tailShapes {
				label := fmt.Sprintf("%s (views %v, pushdown %v)", sh.name, views, push)
				truth, err := f.GroundTruth(sh.q)
				if sh.refused != (err != nil) {
					t.Fatalf("%s: the oracle answered %d rows, err %v", label, len(truth.Rows), err)
				}
				key := rowsKey
				if strings.Contains(sh.q, "ORDER BY") {
					key = orderedKey
				}
				for _, mode := range modes {
					cfg := f.BuyerConfig()
					cfg.Mode, cfg.Cost = mode, model
					res, err := f.Optimize(cfg, sh.q)
					if err == nil {
						var got *exec.Result
						got, err = f.Execute(res)
						if err == nil && !sh.refused && key(got.Rows) != key(truth.Rows) {
							t.Fatalf("%s, %s: %d rows differ from the oracle's %d\n got %s\nwant %s\n%s", label, mode,
								len(got.Rows), len(truth.Rows), key(got.Rows), key(truth.Rows), core.ExplainResult(res))
						}
						for _, o := range res.Candidate.Offers {
							reached[sh.name+" view"] = reached[sh.name+" view"] || o.FromView
							reached[sh.name+" merge"] = reached[sh.name+" merge"] || o.PartialAgg
						}
					}
					if sh.refused != (err != nil) {
						t.Fatalf("%s, %s: err %v", label, mode, err)
					}
				}
			}
		}
	}
	for _, sh := range tailShapes {
		if sh.via != "" && !reached[sh.name+" "+sh.via] {
			t.Errorf("%s: no run reached the %s path", sh.name, sh.via)
		}
	}
}
