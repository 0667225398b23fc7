package experiments

import (
	"fmt"
	"time"

	"qtrade/internal/core"
	"qtrade/internal/exec"
	"qtrade/internal/netsim"
	"qtrade/internal/obs"
	"qtrade/internal/trading"
	"qtrade/internal/workload"
)

// F12Chaos stresses fault-tolerant trading (extension): a star federation
// where node n1 is permanently slow (every call to it exceeds the buyer's
// call timeout) while a seeded chaos plan drops a sweep of request
// fractions on every link. The buyer runs with a full fault policy —
// per-call timeouts, bounded retries, round deadlines and per-peer circuit
// breakers — and the queries prune to fact partition p0, so the plan never
// needs the slow seller's data: negotiations must cut it off and proceed.
// Reported per drop rate: queries answered, mean plan value, recovery
// rounds spent, offer-substitution fallbacks, and the policy's fault
// counters.
func F12Chaos(queries int, seed int64) *Table {
	t := &Table{
		ID:    "F12",
		Title: "fault-tolerant trading under chaos (star, slow seller n1)",
		Header: []string{"drop_prob", "ok", "value_ms", "reopts", "fallbacks",
			"timeouts", "retries", "stragglers", "breaker_opens", "msgs"},
	}
	for _, rate := range []float64{0, 0.1, 0.2, 0.3} {
		opts := workload.StarOptions{Dims: 3, FactRows: 400, DimRows: 40,
			FactParts: 2, Nodes: 4, Seed: seed, SkipOracle: true}
		f := workload.NewStar(opts)
		f.Net.SetFaultPlan(&netsim.FaultPlan{
			Seed:       seed,
			DropProb:   rate,
			JitterMS:   1,
			SlowNodeMS: map[string]float64{"n1": 25},
		})
		m := obs.NewMetrics()
		pol := &trading.FaultPolicy{
			CallTimeout:  8 * time.Millisecond,
			RoundTimeout: 30 * time.Millisecond,
			MaxRetries:   4,
			Backoff:      time.Millisecond,
			Directory:    trading.NewDirectory(),
			Breaker:      trading.BreakerConfig{Threshold: 5, Cooldown: 40 * time.Millisecond},
			Metrics:      m,
		}
		// The fault counters need a fresh registry per drop rate.
		f.SetObs(nil, m)
		f.Net.Reset()
		ok, reopts := 0, 0
		var valueSum float64
		for i := 0; i < queries; i++ {
			// Fractions below 0.5 prune the query to fact partition p0, which
			// the buyer holds itself: the slow seller is never load-bearing.
			q := workload.StarQuery(opts, 0.25+0.02*float64(i%10))
			cfg := f.BuyerConfig()
			cfg.Metrics = m
			cfg.Faults = pol
			// A query whose negotiation itself is killed by bad luck (every
			// retry of a critical call dropped) is reissued, like a client
			// would; each reissue counts as recovery work.
			for try := 0; try < 3; try++ {
				_, res, rounds, err := core.OptimizeAndExecute(cfg, f.Comm(),
					&exec.Executor{Store: f.Nodes[f.Buyer].Store()}, q, 2)
				reopts += rounds
				if err == nil {
					ok++
					valueSum += res.Candidate.ResponseTime
					break
				}
			}
		}
		msgs, _ := f.Net.Stats()
		mean := 0.0
		if ok > 0 {
			mean = valueSum / float64(ok)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f%%", rate*100),
			fmt.Sprintf("%d/%d", ok, queries),
			f2(mean),
			d(int64(reopts)),
			d(m.Counter("buyer.n0.recovery_fallbacks").Value()),
			d(m.Counter("fault.call_timeouts").Value()),
			d(m.Counter("fault.retries").Value()),
			d(m.Counter("fault.stragglers").Value()),
			d(m.Counter("fault.breaker_opens").Value()),
			d(msgs),
		})
	}
	return t
}
