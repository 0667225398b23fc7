// Command bench is the repository's benchmark: five closed-loop query-trading
// workloads measured end to end through core.Optimize and core.ExecuteResult,
// every answer verified against the single-node oracle, and a traced pass
// that attributes a query's time to the layers it crosses. See README.md.
//
//	bench -workload telco_repeat -seed 1 -seconds 20 -trace 0
//	bench -compare a/results.jsonl b/results.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// run is one line of results.jsonl: a report with the settings it was
// measured under.
type run struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	GoVersion  string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	report
}

func main() {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	workloads := flag.String("workload", strings.Join(names, ","), "comma-separated workloads to run")
	seed := flag.Int64("seed", 1, "seed of the data sets and query lists")
	seconds := flag.Float64("seconds", 20, "length of the measured window of each workload")
	trace := flag.Int("trace", 0, "0: measure and print the end-to-end metrics; 1: run the traced pass and print the per-layer metrics")
	out := flag.String("out", "bench/out", "directory for results.jsonl and the traced pass's trace-<workload>.jsonl")
	compare := flag.Bool("compare", false, "compare two results.jsonl files given as arguments against the bounds in -spec")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition read by -compare")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two results.jsonl files"))
		}
		worse, err := compareFiles(os.Stdout, *specPath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}

	failed := false
	for _, name := range strings.Split(*workloads, ",") {
		s := specByName(name)
		if s == nil {
			fatal(fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", ")))
		}
		rep, err := runWorkload(s, options{seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
			traced: *trace == 1, outDir: *out,
			setupRepeats: setupRepeats, setupBudget: setupBudget, warmupCap: warmupCap})
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		r := run{Workload: name, Seed: *seed, Seconds: *seconds, Trace: *trace,
			GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), report: *rep}
		if err := emit(r, *out); err != nil {
			fatal(err)
		}
		failed = failed || !rep.Correct
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// options are the settings of one workload run. setupRepeats, setupBudget
// and warmupCap are the constants of measure.go everywhere but in the smoke
// test.
type options struct {
	seed         int64
	window       time.Duration
	traced       bool
	outDir       string
	setupRepeats int
	setupBudget  time.Duration
	warmupCap    int
}

// runWorkload sets the workload up, warms it and measures it. Untraced, the
// whole window yields the end-to-end metrics. Traced, the traced pass gets
// the middle half of the window and the quarters on either side of it run
// untraced as its reference.
func runWorkload(s *spec, o options) (*report, error) {
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	c, setupS, err := setUp(s, o.seed, tr, o.setupRepeats, o.setupBudget)
	if err != nil {
		return nil, err
	}
	defer c.fd.stop()
	if err := c.warmUp(o.warmupCap); err != nil {
		return nil, err
	}
	rep := &report{}
	if o.traced {
		err = runTraced(rep, c, o)
	} else {
		var w window
		if w, err = c.measure(o.window, 0); err == nil {
			endToEnd(rep, setupS, w)
		}
	}
	if err != nil {
		return nil, err
	}
	if err := c.finish(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", s.name, err)
		c.failed++
	}
	runtime.KeepAlive(c)
	rep.Attempted, rep.Failed = c.attempted, c.failed
	rep.Correct = c.failed == 0
	return rep, nil
}

func runTraced(rep *report, c *client, o options) error {
	before, err := c.measure(o.window/4, 0)
	if err != nil {
		return err
	}
	t, err := tracedPass(c, o.window/2)
	if err != nil {
		return err
	}
	after, err := c.measure(o.window/4, 0)
	if err != nil {
		return err
	}
	return perLayer(rep, c, before, after, t, o.outDir)
}

// emit prints the run's metrics by name and unit, appends the run to
// results.jsonl and prints the report as the last line of standard output.
func emit(r run, outDir string) error {
	fmt.Printf("# %s seed=%d seconds=%g trace=%d %s GOMAXPROCS=%d attempted=%d failed=%d failed_ratio=%g\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.GoVersion, r.GOMAXPROCS,
		r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted))
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Printf("%-14s %-32s %14.4f %s\n", r.Workload, name, m.Value, m.Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(outDir, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	last, err := json.Marshal(r.report)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}
