package workload

import (
	"fmt"
	"testing"
)

// TestLateImprovementsArriveByIterationThree holds the two chains whose plan
// improves after iteration 1 to their final values, reached in at most three
// iterations (the analyser that proposed a fixed twelve queries per iteration
// reached them at iterations 4 and 3). A plan's response time is its slowest
// piece, so the restrictions of several relations must be asked together
// before any of them helps. Capping the iterations does not pass: the value
// must still arrive.
func TestLateImprovementsArriveByIterationThree(t *testing.T) {
	for _, tc := range []struct {
		opts  ChainOptions
		where string
		final string
	}{
		{ChainOptions{Relations: 3, RowsPerRel: 1120, Parts: 14, Nodes: 8, Replicas: 1}, "r1.pk < 560", "3.5128"},
		{ChainOptions{Relations: 4, RowsPerRel: 1000, Parts: 4, Nodes: 6, Replicas: 2}, "r1.pk < 500", "4.3400"},
	} {
		for _, seed := range []int64{1, 7} {
			tc.opts.Seed = seed
			f := NewChain(tc.opts)
			cfg := f.BuyerConfig()
			var values []string
			cfg.OnIteration = func(_ int, best float64, _ int) { values = append(values, fmt.Sprintf("%.4f", best)) }
			if _, err := f.Optimize(cfg, ChainQuery(tc.opts, 1)+" AND "+tc.where); err != nil {
				t.Fatal(err)
			}
			reached := 0
			for i, v := range values {
				if v == tc.final {
					reached = i + 1
					break
				}
			}
			if reached == 0 || reached > 3 || values[len(values)-1] != tc.final {
				t.Errorf("%d relations, seed %d, %s: best value by iteration %v, want %s by iteration 3",
					tc.opts.Relations, seed, tc.where, values, tc.final)
			}
		}
	}
}
