package flight_test

import (
	"testing"

	"qtrade/internal/core"
	"qtrade/internal/flight"
	"qtrade/internal/ledger"
	"qtrade/internal/netsim"
	"qtrade/internal/workload"
)

// TestTriggersJudgeAgainstTheNorm: the estimate triggers compare a query with
// the federation's running norm, not with a perfect model. In process every
// telco query runs far below its quote, so a fixed band would flag them all;
// against the norm a run of them flags few. A seller slowed past what its
// quotes know of still trips cost_outlier. (The stale-statistics case of
// card_blowout is core.TestFlightCardBlowoutTrigger.)
func TestTriggersJudgeAgainstTheNorm(t *testing.T) {
	f := workload.NewTelco(workload.TelcoOptions{
		Offices: []string{"Corfu", "Myconos", "Athens", "Rhodes"}, CustomersPerOffice: 200, LinesPerCustomer: 3, Seed: 1})
	led, rec := ledger.New(0), flight.NewRecorder(0)
	f.SetLedger(led)
	cfg := f.BuyerConfig()
	cfg.Ledger, cfg.Flight = led, rec
	run := func(sql string) *core.Result {
		t.Helper()
		res, err := f.Optimize(cfg, sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Execute(res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	subsets := [][]string{{"Corfu"}, {"Myconos"}, {"Athens"}, {"Corfu", "Myconos"}, {"Myconos", "Athens"},
		{"Corfu", "Athens", "Rhodes"}, {"Corfu", "Myconos", "Athens", "Rhodes"}}
	var last *core.Result
	for i := 0; i < 50; i++ { // 350 queries
		for _, offices := range subsets {
			last = run(workload.TotalsQuery(offices...))
		}
	}
	admitted, flagged := rec.Stats()
	if admitted != int64(50*len(subsets)) || 10*flagged >= admitted {
		t.Fatalf("%d of %d telco queries flagged, want under 10%%", flagged, admitted)
	}

	seller := last.Candidate.Offers[0].SellerID
	f.Net.SetFaultPlan(&netsim.FaultPlan{SlowNodeMS: map[string]float64{seller: 50}})
	res := run(workload.TotalsQuery(subsets[len(subsets)-1]...))
	if d := rec.Get(res.LedgerRec.Snapshot().ID); !hasTrigger(d.Triggers, flight.TrigCostOutlier) {
		t.Fatalf("a query buying from %s slowed by 50 ms per call tripped %v, want %s", seller, d.Triggers, flight.TrigCostOutlier)
	}
}

func hasTrigger(ts []string, want string) bool {
	for _, s := range ts {
		if s == want {
			return true
		}
	}
	return false
}
