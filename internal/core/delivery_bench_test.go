package core_test

import (
	"testing"

	"qtrade/internal/workload"
)

// BenchmarkDelivery times one execution of a fixed purchased plan on a bus
// chain of chain_scan's shape — two relations of 20k rows, two partitions
// each, three nodes — negotiated once: every purchased leaf opened, its
// answer streamed in default batches, and the buyer's join over them.
func BenchmarkDelivery(b *testing.B) {
	opts := workload.ChainOptions{Relations: 2, RowsPerRel: 20000, Parts: 2, Nodes: 3, Replicas: 1,
		Seed: 1, SkipOracleData: true}
	f := workload.NewChain(opts)
	res, err := f.Optimize(f.BuyerConfig(), workload.ChainQuery(opts, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := f.Execute(res)
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Rows) == 0 {
			b.Fatal("the purchased plan delivered no rows")
		}
	}
}
