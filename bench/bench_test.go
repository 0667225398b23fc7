package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"qtrade/internal/value"
)

// TestSmoke runs every workload through both modes with a 300 ms window and
// checks the contract between the program and BENCHMARK.json: every metric
// the file lists is emitted exactly once with the listed unit (report.set
// panics on a second emission), no answer differs from the oracle's, and the
// trace is well formed (perLayer fails on a span outside its parent or a
// negative self time).
func TestSmoke(t *testing.T) {
	bm, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bm.Workloads), len(specs))
	}
	for i, wl := range bm.Workloads {
		s := specs[i]
		if wl.Name != s.name {
			t.Fatalf("workload %d: BENCHMARK.json says %q, the program %q", i, wl.Name, s.name)
		}
		for _, mode := range []struct {
			traced bool
			want   []metricSpec
		}{{false, bm.EndToEnd}, {true, bm.PerLayer}} {
			rep, err := runWorkload(s, options{seed: 3, window: 300 * time.Millisecond, traced: mode.traced,
				outDir: t.TempDir(), setupRepeats: 1, warmupCap: setupQueries})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.name, mode.traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", s.name, mode.traced, rep.Correct, rep.Failed, rep.Attempted)
			}
			if len(rep.Metrics) != len(mode.want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json lists %d", s.name, mode.traced, len(rep.Metrics), len(mode.want))
			}
			for _, m := range mode.want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not emitted", s.name, mode.traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", s.name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s = %v", s.name, m.Name, got.Value)
				case !mode.traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", s.name, m.Name, got.Value)
				}
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}, {0.25, 2}} {
		if got := percentile(vals, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{1, 2}); got != 1.5 {
		t.Errorf("median(1,2) = %v", got)
	}
}

func TestQuartileSpread(t *testing.T) {
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vals := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(vals), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v", got)
	}
}

func TestUnionLen(t *testing.T) {
	for _, tc := range []struct {
		ivs  []interval
		want int64
	}{
		{nil, 0},
		{[]interval{{0, 10}}, 10},
		{[]interval{{0, 10}, {20, 30}}, 20},
		{[]interval{{20, 30}, {0, 10}, {5, 25}}, 30},
		{[]interval{{0, 10}, {2, 3}, {4, 5}}, 10},
		{[]interval{{0, 10}, {10, 12}, {7, 7}}, 12},
	} {
		if got := unionLen(tc.ivs); got != tc.want {
			t.Errorf("unionLen(%v) = %d, want %d", tc.ivs, got, tc.want)
		}
	}
}

func TestDigest(t *testing.T) {
	row := func(i int64, f float64, s string) value.Row {
		return value.Row{value.NewInt(i), value.NewFloat(f), value.NewStr(s)}
	}
	rows := []value.Row{row(1, 1.5, "a"), row(2, 2.5, "b"), row(2, 2.5, "b"), row(3, 0, "")}
	shuffled := append([]value.Row(nil), rows...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	sort.SliceStable(shuffled, func(i, j int) bool { return shuffled[i][0].I > shuffled[j][0].I })

	a, b := digestOf(rows), digestOf(shuffled)
	if !a.equal(b, false) {
		t.Error("the same multiset in another order must compare equal unordered")
	}
	if a.equal(b, true) {
		t.Error("another order must differ in an ordered comparison")
	}
	if !a.equal(digestOf(rows), true) {
		t.Error("the same rows in the same order must compare equal")
	}
	if a.equal(digestOf(rows[:3]), false) || a.equal(digestOf(append(rows[:3:3], rows[2])), false) {
		t.Error("a missing row or another multiplicity must differ")
	}
	// SUM merged from partials may come back as a float where the oracle has
	// an int of the same value, or the other way round.
	if !digestOf([]value.Row{{value.NewInt(7)}}).equal(digestOf([]value.Row{{value.NewFloat(7)}}), true) {
		t.Error("7 and 7.0 are the same SQL value")
	}
	if digestOf([]value.Row{{value.NewNull()}}).equal(digestOf([]value.Row{{value.NewInt(0)}}), false) {
		t.Error("NULL is not 0")
	}
	if digestOf([]value.Row{{value.NewStr("ab"), value.NewStr("c")}}).equal(digestOf([]value.Row{{value.NewStr("a"), value.NewStr("bc")}}), false) {
		t.Error("column boundaries must matter")
	}
}

func TestSummarize(t *testing.T) {
	spans := []span{
		{Query: 1, ID: 0, Parent: -1, Name: spanQuery, Start: 0, End: 100},
		{Query: 1, ID: 1, Parent: 0, Name: spanOptimize, Start: 10, End: 60},
		{Query: 1, ID: 2, Parent: 1, Name: spanPeerRFB, Start: 20, End: 40},
		{Query: 1, ID: 3, Parent: 1, Name: spanPeerRFB, Start: 30, End: 50},
		{Query: 1, ID: 4, Parent: 2, Name: spanNodeRFB, Start: 22, End: 38},
		{Query: 2, ID: 5, Parent: -1, Name: spanQuery, Start: 100, End: 130},
		{Query: 2, ID: 6, Parent: 5, Name: spanPeerRFB, Start: 110, End: 120},
	}
	st, err := summarize(spans)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.self[spanOptimize]; got != 50-30 {
		t.Errorf("optimize self = %d, want 20: overlapping children count once", got)
	}
	if got := st.sum[spanPeerRFB]; got != 20+20+10 {
		t.Errorf("peer sum = %d, want 50", got)
	}
	if got := st.self[spanPeerRFB]; got != 50-16 {
		t.Errorf("peer self = %d, want 34", got)
	}
	if got := st.unionOf(spanPeerRFB); got != 30+10 {
		t.Errorf("peer union = %d, want 40: unions are per query", got)
	}
	if st.count[spanQuery] != 2 {
		t.Errorf("query count = %d", st.count[spanQuery])
	}

	outside := append([]span(nil), spans...)
	outside[4].End = 45
	if _, err := summarize(outside); err == nil {
		t.Error("a child ending after its parent must be reported")
	}
	open := append([]span(nil), spans...)
	open[6].End = 0
	if _, err := summarize(open); err == nil {
		t.Error("a span that never ended must be reported")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "query_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "qps", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, []float64{3}, []float64{3.1}, "PASS"},
		{"slower", lower, []float64{3}, []float64{3.4}, "WORSE"},
		{"faster", lower, []float64{3}, []float64{2}, "PASS"},
		{"less throughput", higher, []float64{300}, []float64{250}, "WORSE"},
		{"more throughput", higher, []float64{300}, []float64{400}, "PASS"},
		{"missing", lower, []float64{3}, nil, "UNRESOLVED"},
		{"noisy", lower, []float64{2, 3, 4, 5}, []float64{2.1, 3.1, 4, 5.2}, "UNRESOLVED"},
		{"noisy but every run better", lower, []float64{4, 5, 6, 7}, []float64{1, 2, 3, 3.5}, "PASS"},
	} {
		if _, _, got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestQuietMedian(t *testing.T) {
	// The quietest stretch of 3 is {2, 1, 2}; a single fast value among slow
	// ones does not make a quiet stretch.
	vals := []float64{9, 1, 9, 8, 2, 1, 2, 9}
	if got := quietMedian(vals, 3); got != 2 {
		t.Errorf("quietMedian = %v, want 2", got)
	}
	if got := quietMedian([]float64{5, 3}, 7); got != 4 {
		t.Errorf("fewer values than a stretch: %v, want their median 4", got)
	}
	if vals[0] != 9 || vals[7] != 9 {
		t.Error("quietMedian must not reorder its input")
	}
}
