package core_test

import (
	"fmt"
	"slices"
	"testing"

	"qtrade/internal/value"
	"qtrade/internal/workload"
)

// TestOverlappingOffersArePlanned: on a chain whose three nodes each hold two
// of r1's three partitions (p0 on n0 and n1, p1 on n1 and n2, p2 on n2 and
// n0), every offer for a query over r1 overlaps another, so iteration 1
// builds no plan. The analyser proposes from a candidate that unions every
// relation, the partition restrictions it asks make a cover, and the answer
// is the oracle's.
func TestOverlappingOffersArePlanned(t *testing.T) {
	f := workload.NewChain(workload.ChainOptions{Relations: 4, RowsPerRel: 50, Parts: 3, Nodes: 3, Replicas: 2, Seed: 12})
	const q = "SELECT r1.v FROM r1"
	res, err := f.Optimize(f.BuyerConfig(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iterations < 2 || res.Stats.QueriesAsked < 2 {
		t.Fatalf("planned without asking a restriction: %+v", res.Stats)
	}
	got, err := f.Execute(res)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := f.GroundTruth(q)
	if err != nil {
		t.Fatal(err)
	}
	key := func(rows []value.Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprint(r)
		}
		slices.Sort(out)
		return out
	}
	if g, w := key(got.Rows), key(truth.Rows); !slices.Equal(g, w) {
		t.Fatalf("answer differs: %d rows, the oracle has %d", len(g), len(w))
	}
}
