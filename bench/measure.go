package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"qtrade/internal/core"
	"qtrade/internal/exec"
	"qtrade/internal/value"
)

// Run shape. The timed set-up is repeated and its median reported; the
// federation of the last repetition is kept, finishes the warm-up pass and is
// measured.
const (
	// A set-up is repeated at least setupRepeats times and until setupBudget
	// is spent: the cheap set-ups (35 ms on telco) need more repetitions for a
	// steady median than the dear ones (0.5 s on chain_parts).
	setupRepeats = 5
	setupBudget  = 1500 * time.Millisecond
	// setupQueries are the first queries of the list, run inside the timed
	// set-up: they pay the lazy statistics builds and fill the first cache
	// entries, so work moved from queries into set-up shows in setup_s.
	setupQueries = 3
	// warmupCap bounds the warm-up pass (one pass over the query list).
	warmupCap = 50
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run prints as its last line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	order []string // metric names in the order they were set
}

func (r *report) set(name, unit string, v float64) {
	if _, dup := r.Metrics[name]; dup {
		panic("metric emitted twice: " + name)
	}
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.order = append(r.order, name)
}

// sample is one query's buyer-side wall times.
type sample struct{ optimize, execute time.Duration }

// client is the closed-loop buyer of one federation: it asks the next query
// of the list only after the previous answer arrived and was verified.
type client struct {
	fd      *fed
	queries []query
	tr      *tracer
	next    int // queries issued so far, over warm-up, window and traced pass

	// expected answers: base is the oracle's answer to spec.baseSQL, want[i]
	// the digest of the rows of base that queries[i] keeps. Nil until
	// expectations ran; unverified queries count only errors.
	base []value.Row
	want []digest

	churnRng *rand.Rand
	inserts  int64

	attempted, failed int
	verify            time.Duration // time spent checking answers, not the system's
	onResult          func(*core.Result)
}

func newClient(fd *fed, seed int64, tr *tracer) *client {
	return &client{fd: fd, queries: fd.spec.queries(seed), tr: tr,
		churnRng: rand.New(rand.NewSource(seed + 101))}
}

// expectations computes the oracle answer of every query of the list: one
// oracle run of the base query, filtered per query. The first two queries
// are also run on the oracle directly, which checks the derivation.
func (c *client) expectations() error {
	resp, err := c.fd.f.GroundTruth(c.fd.spec.baseSQL)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	c.base = resp.Rows
	c.want = make([]digest, len(c.queries))
	c.derive()
	return c.crossCheck(2)
}

// derive recomputes every expected digest from the base answer.
func (c *client) derive() {
	for i, q := range c.queries {
		var d digest
		for _, r := range c.base {
			if q.keep(r) {
				d.add(r)
			}
		}
		c.want[i] = d
	}
}

// crossCheck runs the first n queries on the oracle itself and compares with
// the derived expectation.
func (c *client) crossCheck(n int) error {
	for i := 0; i < n && i < len(c.queries); i++ {
		resp, err := c.fd.f.GroundTruth(c.queries[i].sql)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		if !digestOf(resp.Rows).equal(c.want[i], c.fd.spec.ordered) {
			return fmt.Errorf("derived expectation differs from the oracle's answer to %q", c.queries[i].sql)
		}
	}
	return nil
}

// insert applies one churn insert to the replicas, the oracle and the
// expected answers: the base answer is per-office totals, so the insert adds
// its charge to one row. crossCheck after the run compares the maintained
// totals with the oracle's own.
func (c *client) insert() error {
	c.inserts++
	office, charge, err := c.fd.churnInsert(c.churnRng, c.inserts)
	if err != nil {
		return err
	}
	for _, r := range c.base {
		if r[0].S == office {
			r[1] = value.NewFloat(r[1].AsFloat() + charge)
		}
	}
	if c.want != nil {
		c.derive()
	}
	return nil
}

// one runs the next query of the list and reports its wall times and whether
// it returned the expected answer.
func (c *client) one() (sample, bool) {
	i := c.next
	c.next++
	if c.fd.spec.churn && i%churnEvery == churnEvery-1 {
		if err := c.insert(); err != nil {
			fmt.Fprintln(os.Stderr, "bench: churn insert:", err)
			c.attempted++
			c.failed++
			return sample{}, false
		}
	}
	qi := i % len(c.queries)
	sql := c.queries[qi].sql

	c.tr.beginQuery()
	c.tr.beginPhase(spanOptimize)
	t0 := time.Now()
	res, err := core.Optimize(c.fd.cfg, c.fd.comm, sql)
	t1 := time.Now()
	c.tr.endPhase()
	var out *exec.Result
	if err == nil {
		c.tr.beginPhase(spanExecute)
		out, err = core.ExecuteResult(c.fd.comm, c.fd.exec, res)
		c.tr.endPhase()
	}
	t2 := time.Now()
	c.tr.endQuery()

	ok := err == nil
	if ok && c.want != nil {
		ok = digestOf(out.Rows).equal(c.want[qi], c.fd.spec.ordered)
	}
	c.attempted++
	if !ok {
		c.failed++
		if c.failed == 1 {
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: query %d failed: %v\n  %s\n", c.fd.spec.name, i, err, sql)
			} else {
				fmt.Fprintf(os.Stderr, "bench: %s: query %d: %d rows differ from the oracle's %d\n  %s\n",
					c.fd.spec.name, i, len(out.Rows), c.want[qi].rows, sql)
			}
		}
	}
	if ok && c.onResult != nil {
		c.onResult(res)
	}
	c.verify += time.Since(t2)
	return sample{optimize: t1.Sub(t0), execute: t2.Sub(t1)}, ok
}

// setUp builds and warms the workload's federation at least repeats times
// and until budget is spent, and returns the last one with the median set-up
// time. A set-up is build, data load, listeners and dials, and the first
// setupQueries queries.
func setUp(s *spec, seed int64, tr *tracer, repeats int, budget time.Duration) (*client, float64, error) {
	var c *client
	var times []float64
	start := time.Now()
	for rep := 0; rep < repeats || time.Since(start) < budget; rep++ {
		if c != nil {
			c.fd.stop()
			c = nil
			runtime.GC()
		}
		t0 := time.Now()
		fd, err := s.start(seed, tr)
		if err != nil {
			return nil, 0, err
		}
		c = newClient(fd, seed, tr)
		for i := 0; i < setupQueries; i++ {
			if _, ok := c.one(); !ok {
				fd.stop()
				return nil, 0, fmt.Errorf("%s: set-up query failed", s.name)
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return c, median(times), nil
}

// warmUp finishes one pass over the query list, capped at warmupCap queries,
// verifying answers.
func (c *client) warmUp(cap int) error {
	if err := c.expectations(); err != nil {
		return err
	}
	n := len(c.queries)
	if n > cap {
		n = cap
	}
	for c.next < n {
		if _, ok := c.one(); !ok {
			return fmt.Errorf("%s: warm-up query failed", c.fd.spec.name)
		}
	}
	return nil
}

// window is the raw outcome of one measured stretch of the closed loop.
type window struct {
	samples         []sample
	elapsed, verify time.Duration
	attempted       int
	mallocs, bytes  uint64
	gcCycles        uint32
	cpu             time.Duration
	wireBytes       int64
}

// measure runs the closed loop for d, or for maxQueries queries if that is
// positive and comes first. At least one query runs.
func (c *client) measure(d time.Duration, maxQueries int) (window, error) {
	var w window
	w.samples = make([]sample, 0, 1<<14)
	runtime.GC()
	att0, verify0 := c.attempted, c.verify
	wire0, err := c.fd.wire()
	if err != nil {
		return w, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	for {
		s, ok := c.one()
		if ok {
			w.samples = append(w.samples, s)
		}
		if time.Since(start) >= d || (maxQueries > 0 && c.attempted-att0 >= maxQueries) {
			break
		}
	}
	w.elapsed = time.Since(start)
	w.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	wire1, err := c.fd.wire()
	if err != nil {
		return w, err
	}
	w.verify = c.verify - verify0
	w.attempted = c.attempted - att0
	w.mallocs, w.bytes, w.gcCycles = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC
	w.wireBytes = wire1 - wire0
	return w, nil
}

// finish cross-checks the churned expectations against the oracle.
func (c *client) finish() error {
	if !c.fd.spec.churn {
		return nil
	}
	return c.crossCheck(len(c.queries))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies splits the samples into per-query total, optimize and execute
// milliseconds.
func latencies(samples []sample) (total, optimize, execute []float64) {
	for _, s := range samples {
		total = append(total, ms(s.optimize+s.execute))
		optimize = append(optimize, ms(s.optimize))
		execute = append(execute, ms(s.execute))
	}
	return
}

// quietRun is the length of the stretch quietMedian looks for: the telco
// query list is 7 long, so 7 consecutive queries hold each of its queries
// once; the chain lists are homogeneous.
const quietRun = 7

// quietMedian returns the lowest median among all stretches of k consecutive
// values: the median latency while the machine left the program alone. The
// box slows the same binary by 20-40% for a minute at a time, but not every
// query of such a minute is hit, and this statistic moves half as much as
// the plain median does (12% against 19% over runs of chain_parts recorded
// in a bad quarter of an hour).
func quietMedian(vals []float64, k int) float64 {
	if len(vals) < k {
		return median(append([]float64(nil), vals...))
	}
	best := math.Inf(1)
	stretch := make([]float64, k)
	for i := 0; i+k <= len(vals); i++ {
		copy(stretch, vals[i:i+k])
		if m := median(stretch); m < best {
			best = m
		}
	}
	return best
}

// endToEnd fills the report with the end-to-end metrics of a measured window.
func endToEnd(r *report, setupS float64, w window) {
	total, _, _ := latencies(w.samples)
	q := float64(w.attempted)
	var live runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&live)
	r.set("setup_s", "s", setupS)
	r.set("query_quiet_p50_ms", "ms", quietMedian(total, quietRun))
	r.set("allocs_per_query", "count", float64(w.mallocs)/q)
	r.set("alloc_kb_per_query", "KiB", float64(w.bytes)/1024/q)
	r.set("heap_live_mb", "MiB", float64(live.HeapAlloc)/(1<<20))
	r.set("wire_bytes_per_query", "B", float64(w.wireBytes)/q)
}

// wire reads the bytes sent so far: the bus's exact accounting, or on
// telco_tcp the loopback interface's received bytes, which include TCP/IP
// headers and acknowledgements.
func (fd *fed) wire() (int64, error) {
	if !fd.spec.tcp {
		_, b := fd.f.Net.Stats()
		return b, nil
	}
	data, err := os.ReadFile("/proc/net/dev")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "lo" {
			continue
		}
		var rxBytes int64
		if _, err := fmt.Sscan(rest, &rxBytes); err != nil {
			return 0, fmt.Errorf("/proc/net/dev: %w", err)
		}
		return rxBytes, nil
	}
	return 0, fmt.Errorf("/proc/net/dev: no loopback interface")
}
