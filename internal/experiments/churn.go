package experiments

// F17: elastic federation churn. A chain federation with replicated
// fragments serves closed-loop load through three phases — steady state,
// churn (a replacement seller joins, one seller drains, one crashes, all
// mid-run), and recovery at the new membership. The acceptance bar is the
// robustness claim of the lifecycle subsystem: zero failed queries across
// every phase, with throughput recovering once the health-gated peer view
// has absorbed the membership changes.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qtrade/internal/core"
	"qtrade/internal/exec"
	"qtrade/internal/netsim"
	"qtrade/internal/node"
	"qtrade/internal/trading"
	"qtrade/internal/workload"
)

// f17Fed builds a chain federation with the given number of sellers
// (n1..nN; the buyer n0 holds its round-robin share too), every fragment
// replicated twice so any single seller's exit leaves full coverage, and
// load-aware pricing on so busy or draining sellers price themselves out of
// new work. It returns the federation plus the shared fault policy the
// buyer-side churn machinery runs under; its Directory is the buyer's peer
// directory, so one record per peer holds the drain mark and the breaker.
func f17Fed(sellers int, seed int64) (*workload.Federation, workload.ChainOptions, *trading.FaultPolicy) {
	if sellers < 4 {
		panic("f17Fed: need at least 4 sellers so the crash and drain victims never co-hold a fragment")
	}
	opts := workload.ChainOptions{
		Relations: 3, RowsPerRel: 120, Parts: 2, Nodes: sellers + 1, Replicas: 2,
		Seed: seed, SkipOracleData: true,
		Configure: func(c *node.Config) {
			// Disable price caches (identical pricing cost whatever ran
			// before) and let admission pressure feed back into prices.
			c.PriceCacheSize = -1
			c.LoadAwarePricing = true
		},
	}
	f := workload.NewChain(opts)
	slow := make(map[string]float64, sellers)
	for i := 1; i <= sellers; i++ {
		slow[fmt.Sprintf("n%d", i)] = 2
	}
	f.Net.SetFaultPlan(&netsim.FaultPlan{Seed: seed, SlowNodeMS: slow})
	pol := &trading.FaultPolicy{
		CallTimeout: 2 * time.Second,
		MaxRetries:  2,
		Backoff:     time.Millisecond,
		Directory:   trading.NewDirectory(),
		Breaker:     trading.BreakerConfig{Threshold: 3, Cooldown: 250 * time.Millisecond},
	}
	for _, n := range f.Nodes {
		for _, table := range n.Store().Tables() {
			if _, err := n.Store().TableStats(table); err != nil {
				panic(err)
			}
		}
	}
	return f, opts, pol
}

// f17Run drives clients closed-loop goroutines through the recovery
// pipeline (OptimizeAndExecute: standing-offer substitution before
// re-optimization) and returns aggregate qps, p50/p95 wall latency in ms,
// and how many queries ultimately failed. during, when set, runs on its own
// goroutine as the churn controller; it receives the live count of finished
// queries so it can fire membership changes mid-run. All federation map
// access during the run happens on the controller goroutine — the workers
// only touch state captured here, so a concurrent JoinReplica cannot race
// them.
func f17Run(f *workload.Federation, opts workload.ChainOptions, pol *trading.FaultPolicy,
	clients, queriesPerClient int, during func(done *atomic.Int64)) (qps, p50, p95 float64, failed int64) {
	buyer := f.Nodes[f.Buyer]
	comm := f.Comm()
	var done, fails atomic.Int64
	lat := make([][]float64, clients)
	var wg, ctl sync.WaitGroup
	t0 := time.Now()
	if during != nil {
		ctl.Add(1)
		go func() { defer ctl.Done(); during(&done) }()
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lat[c] = make([]float64, 0, queriesPerClient)
			for q := 0; q < queriesPerClient; q++ {
				sql := workload.ChainQuery(opts, 0.25+0.03*float64((c*queriesPerClient+q)%16))
				cfg := core.Config{ID: f.Buyer, Schema: f.Schema, Self: buyer, Faults: pol, Directory: pol.Directory}
				q0 := time.Now()
				_, _, _, err := core.OptimizeAndExecute(cfg, comm, &exec.Executor{Store: buyer.Store()}, sql, 3)
				if err != nil {
					fails.Add(1)
				} else {
					lat[c] = append(lat[c], float64(time.Since(q0).Microseconds())/1000)
				}
				done.Add(1)
			}
		}(c)
	}
	wg.Wait()
	ctl.Wait()
	wall := time.Since(t0).Seconds()
	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	sort.Float64s(all)
	if wall <= 0 {
		wall = 1e-9
	}
	return float64(len(all)) / wall, f15Pct(all, 0.50), f15Pct(all, 0.95), fails.Load()
}

// f15Pct reads the p-th percentile (0..1) of an ascending-sorted sample.
func f15Pct(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

// F17Churn runs the elastic-churn experiment: steady state, then a churn
// window where a replacement for the crash victim joins at 25% progress,
// one seller drains at 50%, and the crash victim dies at 75%, then a
// recovery window at the final membership (one joined, one draining, one
// crashed). Every row reports the phase's qps, latency percentiles, failed
// queries (the robustness bar: always 0) and the membership picture.
func F17Churn(sellers, clients, queriesPerClient int, seed int64) *Table {
	t := &Table{
		ID: "F17",
		Title: fmt.Sprintf("elastic churn: %d sellers, %d clients × %d queries, join+drain+crash mid-run",
			sellers, clients, queriesPerClient),
		Header: []string{"phase", "qps", "p50_ms", "p95_ms", "failed", "members", "draining", "crashed"},
	}
	f, opts, pol := f17Fed(sellers, seed)
	dir := pol.Directory
	crashID, drainID := "n2", "n4"
	joinID := fmt.Sprintf("n%d", sellers+1)

	record := func(phase string, qps, p50, p95 float64, failed int64) {
		members, draining, crashed := int64(0), int64(0), int64(0)
		for id := range f.Nodes {
			if id == f.Buyer {
				continue
			}
			members++
			if dir.State(id) == trading.StateDraining {
				draining++
			}
			if f.Net.Crashed(id) {
				crashed++
			}
		}
		t.Rows = append(t.Rows, []string{phase, f2(qps), f2(p50), f2(p95), d(failed), d(members), d(draining), d(crashed)})
	}

	qps, p50, p95, failed := f17Run(f, opts, pol, clients, queriesPerClient, nil)
	record("steady", qps, p50, p95, failed)

	total := int64(clients * queriesPerClient)
	churn := func(done *atomic.Int64) {
		wait := func(k int64) {
			for done.Load() < k {
				time.Sleep(time.Millisecond)
			}
		}
		// Grow first: the joiner mirrors the crash victim's fragments, so
		// the later crash costs no coverage even transiently.
		wait(total / 4)
		if _, err := f.JoinReplica(joinID, crashID, opts.Configure); err != nil {
			panic(err)
		}
		wait(total / 2)
		f.Nodes[drainID].Drain("elastic scale-down")
		dir.MarkState(drainID, trading.StateDraining)
		wait(3 * total / 4)
		f.Net.CrashNode(crashID)
	}
	qps, p50, p95, failed = f17Run(f, opts, pol, clients, queriesPerClient, churn)
	record("churn", qps, p50, p95, failed)

	qps, p50, p95, failed = f17Run(f, opts, pol, clients, queriesPerClient, nil)
	record("recovered", qps, p50, p95, failed)
	return t
}
