// Command qtbench regenerates the paper's evaluation: every table and
// figure (reconstructed per DESIGN.md) at quick or full scale.
//
// Usage:
//
//	qtbench                      # all experiments, quick scale
//	qtbench -full                # all experiments, paper scale (minutes)
//	qtbench -exp F3 -exp T1      # a subset
//	qtbench -seed 7
//	qtbench -exp F3 -trace f3.json -metrics  # Chrome trace + metrics dump
//	qtbench -exp F15 -clients 1,2,4,8        # throughput at a custom client sweep
//	qtbench -exp T1 -ledger                  # calibration report after the run
//
// -trace writes a Chrome trace_event file of every optimization the selected
// experiments ran (load it in chrome://tracing or https://ui.perfetto.dev);
// -metrics prints the buyer/seller metrics snapshot after the run;
// -clients overrides the closed-loop client counts the F15 throughput
// experiment sweeps; -ledger audits every negotiation in a trading ledger
// and prints the per-seller calibration report when done (F16 keeps its own
// per-variant ledgers, so its negotiations print in its table instead).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"qtrade/internal/experiments"
	"qtrade/internal/ledger"
	"qtrade/internal/obs"
)

type expFlags []string

func (e *expFlags) String() string { return strings.Join(*e, ",") }

// Set accepts one id or a comma-separated list, so -exp T1,F3 and
// -exp T1 -exp F3 select the same experiments.
func (e *expFlags) Set(v string) error {
	for _, id := range strings.Split(v, ",") {
		if id = strings.TrimSpace(id); id != "" {
			*e = append(*e, strings.ToUpper(id))
		}
	}
	return nil
}

func main() {
	var exps expFlags
	full := flag.Bool("full", false, "run at paper scale (minutes of runtime)")
	seed := flag.Int64("seed", 1, "workload seed")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON of the run to this file")
	metricsDump := flag.Bool("metrics", false, "print the metrics snapshot after the run")
	clients := flag.String("clients", "", "comma-separated closed-loop client counts for F15 (e.g. 1,2,4,8)")
	ledgerDump := flag.Bool("ledger", false, "audit every negotiation in a trading ledger and print the calibration report after the run")
	flag.Var(&exps, "exp", "experiment id to run (repeatable or comma-separated): T1, T2, F1..F19; default all")
	flag.Parse()

	if *clients != "" {
		var counts []int
		for _, part := range strings.Split(*clients, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "qtbench: -clients wants positive ints, got %q\n", part)
				os.Exit(1)
			}
			counts = append(counts, n)
		}
		experiments.SetF15Clients(counts)
	}

	var tracer *obs.Tracer
	var metrics *obs.Metrics
	if *tracePath != "" {
		tracer = obs.NewTracer()
	}
	if *metricsDump || *tracePath != "" {
		metrics = obs.NewMetrics()
	}
	if tracer != nil || metrics != nil {
		experiments.SetObs(tracer, metrics)
	}
	var led *ledger.Ledger
	if *ledgerDump {
		led = ledger.New(0)
		experiments.SetLedger(led)
	}

	var specs []experiments.Spec
	if *full {
		specs = experiments.FullSpecs(*seed)
	} else {
		specs = experiments.QuickSpecs(*seed)
	}
	want := map[string]bool{}
	for _, e := range exps {
		want[e] = true
	}
	ran := 0
	for _, s := range specs {
		if len(want) > 0 && !want[s.ID] {
			continue
		}
		s.Run().Fprint(os.Stdout)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "qtbench: no experiment matched %v (have T1, T2, F1..F19)\n", exps)
		os.Exit(1)
	}

	if tracer != nil {
		w, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qtbench: %v\n", err)
			os.Exit(1)
		}
		err = tracer.WriteChromeTrace(w)
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "qtbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "qtbench: wrote Chrome trace to %s\n", *tracePath)
	}
	if *metricsDump {
		fmt.Print(metrics.Snapshot())
	}
	if led != nil {
		fmt.Printf("-- trading ledger: %d negotiations audited --\n%s", led.Len(), led.Calibration().Text())
	}
}
