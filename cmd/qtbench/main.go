// Command qtbench regenerates the paper's evaluation: every table and
// figure (reconstructed per DESIGN.md) at quick or full scale.
//
// Usage:
//
//	qtbench                      # all experiments, quick scale
//	qtbench -full                # all experiments, paper scale (minutes)
//	qtbench -exp F3 -exp T1      # a subset
//	qtbench -seed 7
//
// Timings beyond these tables belong to the benchmark under bench/.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"qtrade/internal/experiments"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it prints the selected tables to stdout and returns
// the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qtbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var exps expFlags
	full := fs.Bool("full", false, "run at paper scale (minutes of runtime)")
	seed := fs.Int64("seed", 1, "workload seed")
	fs.Var(&exps, "exp", "experiment id to run (repeatable or comma-separated); default all")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	specs := experiments.QuickSpecs(*seed)
	if *full {
		specs = experiments.FullSpecs(*seed)
	}
	specs, err := selectSpecs(specs, exps)
	if err != nil {
		fmt.Fprintf(stderr, "qtbench: %v\n", err)
		return 1
	}
	for _, s := range specs {
		s.Run().Fprint(stdout)
	}
	return 0
}

// selectSpecs keeps the specs that ids name, in suite order; no ids keeps
// them all. Every id must name an experiment: the error names each one that
// does not and lists the ids there are.
func selectSpecs(specs []experiments.Spec, ids []string) ([]experiments.Spec, error) {
	if len(ids) == 0 {
		return specs, nil
	}
	want := map[string]bool{}
	for _, id := range ids {
		want[id] = true
	}
	var out []experiments.Spec
	have := make([]string, len(specs))
	for i, s := range specs {
		have[i] = s.ID
		if want[s.ID] {
			out = append(out, s)
			delete(want, s.ID)
		}
	}
	if len(want) == 0 {
		return out, nil
	}
	var unknown []string
	for _, id := range ids {
		if want[id] {
			unknown = append(unknown, id)
			delete(want, id)
		}
	}
	return nil, fmt.Errorf("unknown experiment %s (have %s)", strings.Join(unknown, ", "), strings.Join(have, ", "))
}
