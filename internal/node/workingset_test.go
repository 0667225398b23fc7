package node_test

import (
	"fmt"
	"testing"

	"qtrade/internal/core"
	"qtrade/internal/obs"
	"qtrade/internal/plan"
	"qtrade/internal/sqlparse"
	"qtrade/internal/trading"
	"qtrade/internal/workload"
)

// TestPriceCacheHoldsTheWorkingSet: on the chain_parts shape — 3 relations of
// 14 partitions over 8 nodes, so each node holds 1–2 partitions of each —
// a node is asked hundreds of texts over a 40-query list (each query, its
// join subquery and every partition restriction of each relation: all a
// negotiation over it can ask), most of which it fails to price (its
// partitions contradict the query predicate). At the default capacity the
// failures have an LRU of their own, so a second pass over the list prices
// nothing: no node misses again or evicts, and every text it is asked is a
// hit.
func TestPriceCacheHoldsTheWorkingSet(t *testing.T) {
	opts := workload.ChainOptions{Relations: 3, RowsPerRel: 1120, Parts: 14, Nodes: 8, Replicas: 1, SkipOracleData: true}
	f := workload.NewChain(opts)
	m := obs.NewMetrics()
	f.SetObs(nil, m)
	base := workload.ChainQuery(opts, 1)
	every := []core.Candidate{{Joins: []uint{0b011}, Unions: 0b111}} // r1 ⋈ r2; every relation unioned
	rfbs := 0
	pass := func() {
		t.Helper()
		for x := 1081; x <= 1120; x++ {
			sel := sqlparse.MustParseSelect(fmt.Sprintf("%s AND r1.pk < %d", base, x))
			plan.Qualify(sel, f.Schema)
			rfbs++
			rfb := trading.RFB{RFBID: fmt.Sprintf("ws%d", rfbs), BuyerID: f.Buyer, Queries: []trading.QueryRequest{{QID: "q0", SQL: sel.SQL()}}}
			for i, sql := range core.Analyse(sel, f.Schema, every, map[string]bool{sel.SQL(): true}, 0) {
				rfb.Queries = append(rfb.Queries, trading.QueryRequest{QID: fmt.Sprintf("q%d", i+1), SQL: sql})
			}
			for _, n := range f.Nodes {
				if _, err := n.RequestBids(rfb); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	type counts struct{ hits, misses, evictions int64 }
	read := func() map[string]counts {
		out := map[string]counts{}
		for id := range f.Nodes {
			c := func(name string) int64 { return m.Counter("node." + id + ".pricecache_" + name).Value() }
			out[id] = counts{c("hits"), c("misses"), c("evictions")}
		}
		return out
	}
	pass()
	first := read()
	pass()
	second := read()
	widest := int64(0)
	for id, a := range first {
		b := second[id]
		asked := a.hits + a.misses
		widest = max(widest, a.misses)
		if b.misses != a.misses || b.evictions != 0 || b.hits-a.hits != asked {
			t.Errorf("%s: second pass %d new misses, %d evictions, %d hits of %d texts asked; want 0, 0, %d",
				id, b.misses-a.misses, b.evictions, b.hits-a.hits, asked, asked)
		}
	}
	if widest <= 256 {
		t.Fatalf("the widest working set is %d texts: it fits the priced capacity alone and shows nothing", widest)
	}
}
