package workload

import (
	"testing"

	"qtrade/internal/catalog"
	"qtrade/internal/core"
	"qtrade/internal/netsim"
	"qtrade/internal/node"
	"qtrade/internal/sqlparse"
	"qtrade/internal/value"
)

// wireLogicQueries are logic-battery shapes (internal/node/sqllogic_test.go)
// whose answer depends on the text a seller reads: the buyer prints every
// part it buys as SQL, so a literal must reach the seller with its kind — a
// float literal with no fraction shipped as an integer turns x * 1.0 / n into
// integer division.
var wireLogicQueries = []string{
	"SELECT c.custid * 1.0 / 4 AS q FROM customer c WHERE c.office = 'Corfu'",
	"SELECT c.custid FROM customer c WHERE c.custid / 2.0 > 3.0 AND c.office = 'Myconos'",
}

// TestSQLLogicUnderTrading runs the wire-sensitive logic cases through trading
// in every plan-generator mode against the single-node oracle.
func TestSQLLogicUnderTrading(t *testing.T) {
	f := NewTelco(TelcoOptions{Offices: []string{"Corfu", "Myconos", "Athens"}, CustomersPerOffice: 6, LinesPerCustomer: 2, Seed: 5})
	for _, q := range wireLogicQueries {
		tradeAgainstOracle(t, f, q)
	}
}

// Names that need their quotes — a space, a keyword — reach the seller with
// them: the buyer prints every part it buys, and a name printed bare reads
// back as another query or none.
func TestQuotedNamesUnderTrading(t *testing.T) {
	sch := catalog.NewSchema()
	sch.MustAddTable(&catalog.TableDef{Name: "gauge", Columns: []catalog.ColumnDef{
		{Name: "id", Kind: value.Int},
		{Name: "Weird Name", Kind: value.Float},
		{Name: "order", Kind: value.Str},
	}})
	if err := sch.SetPartitions("gauge", []*catalog.Partition{
		{Table: "gauge", ID: "lo", Predicate: sqlparse.MustParseExpr("id < 5")},
		{Table: "gauge", ID: "hi", Predicate: sqlparse.MustParseExpr("id >= 5")},
	}); err != nil {
		t.Fatal(err)
	}
	def, _ := sch.Table("gauge")
	f := &Federation{Schema: sch, Net: netsim.New(), Nodes: map[string]*node.Node{}, Buyer: "hq",
		oracle: node.New(node.Config{ID: "oracle", Schema: sch})}
	load := func(n *node.Node, part string, lo, hi int64) {
		if _, err := n.Store().CreateFragment(def, part); err != nil {
			t.Fatal(err)
		}
		for i := lo; i < hi; i++ {
			row := value.Row{value.NewInt(i), value.NewFloat(float64(i) / 2), value.NewStr([]string{"asc", "desc", "from"}[i%3])}
			if err := n.Store().Insert("gauge", part, row); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, id := range []string{"lo", "hi", "hq"} {
		n := node.New(node.Config{ID: id, Schema: sch})
		f.Nodes[id] = n
		f.Net.Register(id, n)
	}
	load(f.Nodes["lo"], "lo", 0, 5)
	load(f.Nodes["hi"], "hi", 5, 12)
	load(f.oracle, "lo", 0, 5)
	load(f.oracle, "hi", 5, 12)
	for _, q := range []string{
		`SELECT g.id, g."Weird Name", g."order" FROM gauge g WHERE g."Weird Name" > 1.5`,
		`SELECT g."order", SUM(g."Weird Name") AS "total sum", COUNT(*) AS "select" FROM gauge g GROUP BY g."order"`,
		`SELECT "Weird Name" AS w FROM gauge WHERE "order" = 'desc' ORDER BY "Weird Name" DESC`,
	} {
		tradeAgainstOracle(t, f, q)
	}
}

// tradeAgainstOracle runs q through trading in every plan-generator mode and
// holds each answer to the oracle's.
func tradeAgainstOracle(t *testing.T, f *Federation, q string) {
	t.Helper()
	truth, err := f.GroundTruth(q)
	if err != nil {
		t.Fatalf("oracle: %s: %v", q, err)
	}
	for _, mode := range []core.PlanGenMode{core.GenDP, core.GenIDP, core.GenGreedy} {
		cfg := f.BuyerConfig()
		cfg.Mode = mode
		res, err := f.Optimize(cfg, q)
		if err != nil {
			t.Fatalf("%s: optimize %s: %v", mode, q, err)
		}
		got, err := f.Execute(res)
		if err != nil {
			t.Fatalf("%s: execute %s: %v", mode, q, err)
		}
		if rowsKey(got.Rows) != rowsKey(truth.Rows) {
			t.Errorf("%s: %s\n got %s\nwant %s", mode, q, rowsKey(got.Rows), rowsKey(truth.Rows))
		}
	}
}
