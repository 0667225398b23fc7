package core_test

import (
	"fmt"
	"slices"
	"testing"

	"qtrade/internal/node"
	"qtrade/internal/trading"
	"qtrade/internal/value"
	"qtrade/internal/workload"
)

// TestOverlappingOffersArePlanned: on a chain whose three nodes each hold two
// of r1's three partitions (p0 on n0 and n1, p1 on n1 and n2, p2 on n2 and
// n0), every offer for a query over r1 overlaps another, so iteration 1
// builds no plan. The analyser proposes from a candidate that unions every
// relation, the partition restrictions it asks make a cover, and the answer
// is the oracle's — for plain rows and for an aggregate, which the buyer
// computes over the restrictions' unaggregated rows (a subquery naming no
// column of r1 ships its first one), with subcontracting off and on.
func TestOverlappingOffersArePlanned(t *testing.T) {
	for _, q := range []string{
		"SELECT r1.v FROM r1",
		"SELECT COUNT(*) AS n FROM r1",
		"SELECT r1.fk, SUM(r1.v) AS s FROM r1 GROUP BY r1.fk",
	} {
		for _, subcontract := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/subcontract=%v", q, subcontract), func(t *testing.T) {
				var f *workload.Federation
				opts := workload.ChainOptions{Relations: 4, RowsPerRel: 50, Parts: 3, Nodes: 3, Replicas: 2, Seed: 12}
				if subcontract {
					opts.Configure = func(c *node.Config) {
						id := c.ID
						c.SubcontractPeers = func() map[string]trading.Peer { return f.Net.Peers(id) }
					}
				}
				f = workload.NewChain(opts)
				res, err := f.Optimize(f.BuyerConfig(), q)
				if err != nil {
					t.Fatal(err)
				}
				// With subcontracting, a holder of two partitions buys the third
				// and offers the whole relation in iteration 1.
				if !subcontract && (res.Stats.Iterations < 2 || res.Stats.QueriesAsked < 2) {
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
				if g, w := key(got.Rows), key(truth.Rows); !slices.Equal(g, w) {
					t.Fatalf("answer differs: got %v, the oracle has %v", g, w)
				}
			})
		}
	}
}

// key lists rows as sorted strings, to compare answers as multisets.
func key(rows []value.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	slices.Sort(out)
	return out
}
