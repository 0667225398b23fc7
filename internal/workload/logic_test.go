package workload

import (
	"testing"

	"qtrade/internal/core"
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
}
