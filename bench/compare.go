package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json that -compare and the smoke
// test read.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runSet is the end-to-end runs of one results.jsonl: values by workload and
// metric, and the workloads that had an incorrect run.
type runSet struct {
	values    map[string]map[string][]float64
	incorrect map[string]bool
}

func readRuns(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := &runSet{values: map[string]map[string][]float64{}, incorrect: map[string]bool{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r run
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace != 0 {
			continue
		}
		if !r.Correct {
			rs.incorrect[r.Workload] = true
		}
		if rs.values[r.Workload] == nil {
			rs.values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			rs.values[r.Workload][name] = append(rs.values[r.Workload][name], m.Value)
		}
	}
	return rs, sc.Err()
}

// quartileSpread returns the distance between the first and third quartile
// as a share of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4). Fewer than two values have no spread.
func quartileSpread(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	data := append([]float64(nil), vals...)
	sort.Float64s(data)
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	med := median(data)
	if med == 0 {
		return 0
	}
	return (quartile(3) - quartile(1)) / med
}

// verdict compares the medians of the runs b of one metric against those of
// the runs a. The metric is WORSE when b's median is worse than a's by more
// than the bound, as a share of a's; UNRESOLVED when either side's own runs
// spread wider than the bound, unless every run of b reads better than every
// run of a; PASS otherwise.
func verdict(m metricSpec, a, b []float64) (medA, medB float64, v string) {
	if len(a) == 0 || len(b) == 0 {
		return 0, 0, "UNRESOLVED"
	}
	a, b = append([]float64(nil), a...), append([]float64(nil), b...)
	medA, medB = median(a), median(b)
	if medA == 0 {
		return medA, medB, "UNRESOLVED"
	}
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	switch {
	case sign*(medB-medA)/medA > m.Bound:
		return medA, medB, "WORSE"
	case quartileSpread(a) <= m.Bound && quartileSpread(b) <= m.Bound:
		return medA, medB, "PASS"
	}
	// a and b are sorted by median.
	if (sign > 0 && b[len(b)-1] < a[0]) || (sign < 0 && b[0] > a[len(a)-1]) {
		return medA, medB, "PASS"
	}
	return medA, medB, "UNRESOLVED"
}

// compareFiles prints one row per workload and end-to-end metric and reports
// whether any is WORSE or any run was incorrect.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (bool, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	worse := false
	fmt.Fprintf(w, "%-14s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "a (median)", "b (median)", "b/a", "bound", "verdict")
	for _, wl := range spec.Workloads {
		if a.values[wl.Name] == nil && b.values[wl.Name] == nil {
			continue // a subset run: neither file measured this workload
		}
		for _, side := range []*runSet{a, b} {
			if side.incorrect[wl.Name] {
				fmt.Fprintf(w, "%-14s has a run with wrong answers\n", wl.Name)
				worse = true
			}
		}
		for _, m := range spec.EndToEnd {
			va, vb := a.values[wl.Name][m.Name], b.values[wl.Name][m.Name]
			medA, medB, v := verdict(m, va, vb)
			ratio := 0.0
			if medA != 0 {
				ratio = medB / medA
			}
			fmt.Fprintf(w, "%-14s %-22s %14.4f %14.4f %9.4f %6.0f%%  %s (n=%d,%d; %s is better)\n",
				wl.Name, m.Name, medA, medB, ratio, 100*m.Bound, v, len(va), len(vb), m.Better)
			worse = worse || v == "WORSE"
		}
	}
	return worse, nil
}
