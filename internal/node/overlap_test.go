package node_test

import (
	"fmt"
	"testing"

	"qtrade/internal/node"
	"qtrade/internal/trading"
	"qtrade/internal/workload"
)

// TestOverlappingHoldersSellComposites: on a chain whose three nodes each
// hold two of r1's three partitions, a subcontracting node completes its own
// part with the partition it lacks, whichever columns the query selects. Its
// own part ships the column of its partition restriction (pk) beside the
// select list, so each probe for the missing partition asks for the same
// columns, and the subcontractor's answer is union-compatible with it.
func TestOverlappingHoldersSellComposites(t *testing.T) {
	var f *workload.Federation
	f = workload.NewChain(workload.ChainOptions{Relations: 4, RowsPerRel: 50, Parts: 3, Nodes: 3, Replicas: 2, Seed: 12,
		Configure: func(c *node.Config) {
			id := c.ID
			c.SubcontractPeers = func() map[string]trading.Peer { return f.Net.Peers(id) }
		}})
	for _, sql := range []string{"SELECT r1.v FROM r1", "SELECT r1.pk FROM r1"} {
		for id, n := range f.Nodes {
			rep, err := n.RequestBids(trading.RFB{RFBID: fmt.Sprintf("ov-%s-%d", id, len(sql)), BuyerID: "hq",
				Queries: []trading.QueryRequest{{QID: "q0", SQL: sql}}})
			if err != nil {
				t.Fatal(err)
			}
			complete := 0
			for _, o := range rep.Offers {
				if o.Complete && len(o.Parts["r1"]) == 3 {
					complete++
				}
			}
			if complete == 0 {
				t.Errorf("%s offers no complete composite for %s: %d offers", id, sql, len(rep.Offers))
			}
		}
	}
}
