package experiments

// F19: the query flight recorder and anomaly watchdog under fault injection.
// A chain federation runs the same query mix through four phases: a baseline
// with no observability attached, a recorded steady state (flight recorder +
// ledger + windowed metrics history + watchdog — the overhead column is the
// recorder's steady-state cost against the baseline), a phase where one
// seller turns slow mid-run, and a phase where a relation's statistics go
// stale (the estimates claim one row while the data holds hundreds). The
// acceptance bar: every query lands as exactly one dossier, the slow phase's
// queries are flagged by the latency SLO trigger and its metrics window by
// the watchdog's p95 rule, and the stale-stats phase's dossiers are flagged
// as cardinality blowouts.

import (
	"fmt"
	"strings"
	"time"

	"qtrade/internal/core"
	"qtrade/internal/exec"
	"qtrade/internal/flight"
	"qtrade/internal/ledger"
	"qtrade/internal/netsim"
	"qtrade/internal/obs"
	"qtrade/internal/stats"
	"qtrade/internal/value"
	"qtrade/internal/workload"
)

// f19Opts is the shared federation shape: 3-relation chain, every fragment
// replicated twice over four nodes (buyer n0 included).
func f19Opts(seed int64) workload.ChainOptions {
	return workload.ChainOptions{
		Relations: 3, RowsPerRel: 120, Parts: 2, Nodes: 4, Replicas: 2,
		Seed: seed, SkipOracleData: true,
	}
}

// f19Run executes one batch of chain queries end to end and returns the
// batch's wall time in ms. Observability (metrics, ledger, recorder) rides
// cfg; nil values keep the batch unobserved.
func f19Run(f *workload.Federation, opts workload.ChainOptions, queries int,
	metrics *obs.Metrics, led *ledger.Ledger, rec *flight.Recorder) float64 {
	buyer := f.Nodes[f.Buyer]
	comm := f.Comm()
	t0 := time.Now()
	for q := 0; q < queries; q++ {
		sql := workload.ChainQuery(opts, 0.25+0.05*float64(q%10))
		cfg := core.Config{ID: f.Buyer, Schema: f.Schema, Self: buyer,
			Metrics: metrics, Ledger: led, Flight: rec}
		res, err := core.Optimize(cfg, comm, sql)
		if err != nil {
			panic(fmt.Sprintf("F19 optimize: %v", err))
		}
		if _, err := core.ExecuteResult(comm, &exec.Executor{Store: buyer.Store()}, res); err != nil {
			panic(fmt.Sprintf("F19 execute: %v", err))
		}
	}
	return float64(time.Since(t0).Microseconds()) / 1000
}

// f19Triggers summarizes the trigger flags on the batch's dossiers (the n
// most recent) as "name=count" pairs.
func f19Triggers(rec *flight.Recorder, n int) string {
	counts := map[string]int{}
	order := []string{}
	for _, d := range rec.Recent(n) {
		for _, tr := range d.Triggers {
			if counts[tr] == 0 {
				order = append(order, tr)
			}
			counts[tr]++
		}
	}
	if len(order) == 0 {
		return "-"
	}
	parts := make([]string, len(order))
	for i, tr := range order {
		parts[i] = fmt.Sprintf("%s=%d", tr, counts[tr])
	}
	return strings.Join(parts, ",")
}

// F19Flight runs the flight-recorder experiment: queriesPerPhase queries per
// phase, windows closed deterministically at phase boundaries (one batch =
// one metrics window), anomalies counted from the watchdog.
func F19Flight(queriesPerPhase int, seed int64) *Table {
	t := &Table{
		ID: "F19",
		Title: fmt.Sprintf("flight recorder + watchdog: %d queries/phase, slow seller and stale stats mid-run",
			queriesPerPhase),
		Header: []string{"phase", "queries", "wall_ms", "dossiers", "flagged", "triggers", "anomalies", "overhead_pct"},
	}
	opts := f19Opts(seed)

	// Baseline: identical federation and query mix, nothing attached. Two
	// batches to match the recorded steady state's sample count.
	base := workload.NewChain(opts)
	baseWall := f19Run(base, opts, 2*queriesPerPhase, nil, nil, nil)
	t.Rows = append(t.Rows, []string{"baseline", d(int64(2 * queriesPerPhase)),
		f2(baseWall), "0", "0", "-", "0", "-"})

	// Recorded federation: recorder + ledger + history + watchdog. Windows
	// close at phase boundaries via Sample, so each phase is one window.
	f := workload.NewChain(opts)
	metrics := obs.NewMetrics()
	led := ledger.New(0)
	rec := flight.NewRecorder(8 * queriesPerPhase)
	// The in-process simulation executes far cheaper than the cost model
	// quotes, so the default quoted-vs-measured band would flag every steady
	// query as a (low) cost outlier and drown the phase signal. Widen the
	// band: this experiment demonstrates the latency and cardinality
	// triggers; the cost trigger is pinned by the flight package's tests.
	trig0 := rec.Triggers()
	trig0.CostRatioFactor = 1e6
	rec.SetTriggers(trig0)
	hist := obs.NewHistory(metrics, time.Second, 16)
	wd := flight.NewWatchdog(flight.WatchdogConfig{}, led, metrics)
	wd.Attach(hist)

	phase := func(name string, wall, overhead float64, prevAdmitted, prevFlagged int64, anomalies int) {
		admitted, flagged := rec.Stats()
		over := "-"
		if overhead >= 0 {
			over = f2(overhead)
		}
		t.Rows = append(t.Rows, []string{name, d(int64(queriesPerPhase)), f2(wall),
			d(admitted - prevAdmitted), d(flagged - prevFlagged),
			f19Triggers(rec, queriesPerPhase), d(int64(anomalies)), over})
	}

	// Steady state: two batches, two windows — the first seeds the watchdog
	// baselines, the second confirms them. Overhead compares against the
	// baseline run of the same 2×queriesPerPhase batch.
	steadyWall := f19Run(f, opts, queriesPerPhase, metrics, led, rec)
	hist.Sample()
	steadyWall += f19Run(f, opts, queriesPerPhase, metrics, led, rec)
	hist.Sample()
	admitted, flagged := rec.Stats()
	overhead := 100 * (steadyWall - baseWall) / baseWall
	// The steady verdict leaves out p95_regression: its two windows hold a
	// few sub-millisecond queries each, so one scheduler or GC pause on the
	// host puts the second window's p95 past 3× the first's. The other
	// rules count events, not wall-clock, and must stay silent here.
	steadyAnoms := 0
	for _, a := range wd.Anomalies() {
		if a.Kind != flight.AnomalyP95 {
			steadyAnoms++
		}
	}
	t.Rows = append(t.Rows, []string{"steady", d(int64(2 * queriesPerPhase)), f2(steadyWall),
		d(admitted), d(flagged), f19Triggers(rec, 2*queriesPerPhase),
		d(int64(steadyAnoms)), f2(overhead)})

	// Slow seller: n1 answers every call 25ms late. The SLO trigger is armed
	// between the steady per-query wall and the straggler's, so exactly the
	// slow phase's queries are captured as outliers; the watchdog flags the
	// window against the steady baselines.
	steadyPerQuery := steadyWall / float64(2*queriesPerPhase)
	trig := rec.Triggers()
	trig.SlowMS = 2*steadyPerQuery + 10
	rec.SetTriggers(trig)
	f.Net.SetFaultPlan(&netsim.FaultPlan{Seed: seed, SlowNodeMS: map[string]float64{"n1": 25}})
	prevAnoms := len(wd.Anomalies())
	prevAdmitted, prevFlagged := rec.Stats()
	slowWall := f19Run(f, opts, queriesPerPhase, metrics, led, rec)
	hist.Sample()
	phase("slow_seller", slowWall, -1, prevAdmitted, prevFlagged, len(wd.Anomalies())-prevAnoms)

	// Stale statistics: every replica of r2 claims a single row while the
	// fragments hold dozens, so sellers quote tiny cardinalities and the
	// executed plans blow past them — the card_blowout trigger.
	f.Net.SetFaultPlan(nil)
	trig.SlowMS = 0
	rec.SetTriggers(trig)
	def, _ := f.Schema.Table("r2")
	for _, n := range f.Nodes {
		for _, pid := range n.Store().PartIDs("r2") {
			var first []value.Row
			if err := n.Store().Scan("r2", pid, nil, func(r value.Row) bool {
				first = append(first, r)
				return false
			}); err != nil {
				panic(err)
			}
			if err := n.Store().SetFragmentStats("r2", pid, stats.FromRows(def, first)); err != nil {
				panic(err)
			}
		}
	}
	prevAnoms = len(wd.Anomalies())
	prevAdmitted, prevFlagged = rec.Stats()
	staleWall := f19Run(f, opts, queriesPerPhase, metrics, led, rec)
	hist.Sample()
	phase("stale_stats", staleWall, -1, prevAdmitted, prevFlagged, len(wd.Anomalies())-prevAnoms)
	return t
}
