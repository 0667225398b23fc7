package core_test

import (
	"fmt"
	"testing"

	"qtrade/internal/core"
	"qtrade/internal/cost"
	"qtrade/internal/plan"
	"qtrade/internal/sqlparse"
	"qtrade/internal/workload"
)

var benchCandidates []core.Candidate

// BenchmarkGenerate times one buyer plan generation over the final offer pool
// of a 3-relation chain negotiation (8 nodes, 2 replicas, fixed seed), by
// partitions per relation and generator — the F4 axis without the trading
// loop around it.
func BenchmarkGenerate(b *testing.B) {
	for _, parts := range []int{4, 8, 14, 16} {
		opts := workload.ChainOptions{Relations: 3, Nodes: 8, Parts: parts, Replicas: 2,
			RowsPerRel: 240, Seed: 7, SkipOracleData: true}
		f := workload.NewChain(opts)
		res, err := f.Optimize(f.BuyerConfig(), workload.ChainQuery(opts, 0.5))
		if err != nil {
			b.Fatal(err)
		}
		sel, err := sqlparse.ParseSelect(res.SQL)
		if err != nil {
			b.Fatal(err)
		}
		plan.Qualify(sel, f.Schema)
		for _, mode := range []core.PlanGenMode{core.GenDP, core.GenIDP, core.GenGreedy} {
			b.Run(fmt.Sprintf("parts=%d/%s", parts, mode), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					cands, err := core.GenerateWithLatency(sel, f.Schema, cost.Default(), mode, 0, res.Pool, nil)
					if err != nil {
						b.Fatal(err)
					}
					benchCandidates = cands
				}
			})
		}
	}
}

// BenchmarkAnalyseNext times the predicates analyser's priced pass (B5/B6)
// over the pool of one chain_parts-shaped negotiation: 3 relations × 14
// partitions on 8 sellers, one replica each. The pass proposes one
// restriction per partition of every unioned relation, predicts their
// offers and runs the plan generator over the pool plus those predictions,
// whose exact covers are most of its time.
func BenchmarkAnalyseNext(b *testing.B) {
	opts := workload.ChainOptions{Relations: 3, RowsPerRel: 1120, Parts: 14, Nodes: 8, Replicas: 1,
		Seed: 7, SkipOracleData: true}
	f := workload.NewChain(opts)
	res, err := f.Optimize(f.BuyerConfig(), workload.ChainQuery(opts, 1)+" AND r1.pk < 1100")
	if err != nil {
		b.Fatal(err)
	}
	next, err := core.PricedAnalysis(f.BuyerConfig(), res.SQL, res.Pool)
	if err != nil {
		b.Fatal(err)
	}
	if _, priced := next(); priced == 0 {
		b.Fatal("the analyser priced nothing")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next()
	}
}
