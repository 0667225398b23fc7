package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metrics is a registry of named counters, gauges and histograms. Lookup
// (Counter/Gauge/Histogram) interns the instrument on first use; updates on
// the returned handles are single atomic operations, so instrumented code
// should resolve handles once and reuse them on hot paths. A nil *Metrics
// registry hands out nil handles whose update methods are no-ops.
type Metrics struct {
	m sync.Map // name -> *Counter | *Gauge | *Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

// Counter returns the counter registered under name, creating it if absent.
// Returns nil (a valid no-op handle) on a nil registry or if the name is
// already taken by a different instrument kind.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	if v, ok := m.m.Load(name); ok {
		c, _ := v.(*Counter)
		return c
	}
	v, _ := m.m.LoadOrStore(name, &Counter{})
	c, _ := v.(*Counter)
	return c
}

// Gauge returns the gauge registered under name, creating it if absent.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	if v, ok := m.m.Load(name); ok {
		g, _ := v.(*Gauge)
		return g
	}
	v, _ := m.m.LoadOrStore(name, &Gauge{})
	g, _ := v.(*Gauge)
	return g
}

// Histogram returns the histogram registered under name, creating it if
// absent.
func (m *Metrics) Histogram(name string) *Histogram {
	if m == nil {
		return nil
	}
	if v, ok := m.m.Load(name); ok {
		h, _ := v.(*Histogram)
		return h
	}
	v, _ := m.m.LoadOrStore(name, &Histogram{})
	h, _ := v.(*Histogram)
	return h
}

// Counter is a monotonically increasing integer.
type Counter struct{ v atomic.Int64 }

// Add increments the counter. No-op on nil.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on nil.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value float64, stored as raw bits for atomic access.
type Gauge struct{ bits atomic.Uint64 }

// Set records the current value. No-op on nil.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last value set (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the number of exponential buckets. Bucket i collects
// observations in (base·2^(i-1), base·2^i]; with base = 1µs (0.001 ms) the
// top bucket starts around 67 s, wide enough for any phase this system times.
const histBuckets = 28

// histBase is the upper bound of bucket 0, in the histogram's own unit.
// Observations are conventionally milliseconds, so this is one microsecond.
const histBase = 0.001

// Histogram accumulates a distribution in exponential buckets. Observe is a
// handful of atomic operations and allocation-free. Quantiles are estimated
// by linear interpolation inside the bucket holding the rank (accurate to a
// fraction of the 2× bucket width, exact when a bucket holds one value).
type Histogram struct {
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	minBits atomic.Uint64
	maxBits atomic.Uint64
	buckets [histBuckets]atomic.Int64
}

// Observe records one sample. No-op on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	atomicAddFloat(&h.sumBits, v)
	atomicMinFloat(&h.minBits, v)
	atomicMaxFloat(&h.maxBits, v)
	h.buckets[bucketOf(v)].Add(1)
}

func bucketOf(v float64) int {
	i := 0
	for bound := histBase; i < histBuckets-1 && v > bound; i++ {
		bound *= 2
	}
	return i
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Min and Max return the observed extremes (0 for nil or empty).
func (h *Histogram) Min() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.minBits.Load())
}

func (h *Histogram) Max() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Mean returns the arithmetic mean (0 for nil or empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile estimates the q-quantile (q in [0,1]) by locating the exponential
// bucket holding that rank and interpolating linearly inside it, clamped to
// the observed min/max so single-bucket distributions report exact values.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	var counts [histBuckets]int64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
	}
	return quantileFromBuckets(&counts, n, q, h.Min(), h.Max())
}

// quantileFromBuckets interpolates the q-quantile over one set of exponential
// bucket counts (the registry-wide bounds: bucket i covers
// (histBase·2^(i-1), histBase·2^i]). Shared by cumulative histograms and the
// windowed history's per-window deltas, which is why it takes plain counts.
// min/max clamp the interpolated value when known; pass 0,0 when they aren't.
func quantileFromBuckets(counts *[histBuckets]int64, n int64, q, min, max float64) float64 {
	if n <= 0 {
		return 0
	}
	rank := math.Ceil(q * float64(n))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	lower, upper := 0.0, histBase
	for i := 0; i < histBuckets; i++ {
		cnt := counts[i]
		if cnt > 0 && float64(seen+cnt) >= rank {
			lo, hi := lower, upper
			if max > 0 {
				if i == histBuckets-1 || hi > max {
					hi = max
				}
				if lo > max {
					lo = max
				}
			}
			if min > 0 && lo < min {
				lo = min
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - float64(seen)) / float64(cnt)
			return lo + frac*(hi-lo)
		}
		seen += cnt
		lower = upper
		upper *= 2
	}
	if max > 0 {
		return max
	}
	return lower
}

func atomicAddFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func atomicMinFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		cur := math.Float64frombits(old)
		// The zero value decodes to 0.0; treat a never-written min as +inf
		// by letting the first CAS from an empty histogram pass through
		// count==1 semantics: callers Observe count before min, so a stale
		// 0 min only matters if a real 0 was never observed. Guard by
		// comparing against the first value explicitly.
		if old != 0 && cur <= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func atomicMaxFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if old != 0 && math.Float64frombits(old) >= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Snapshot renders every registered instrument as sorted "name value" lines:
// counters as integers, gauges as floats, histograms as
// count/sum/mean/p50/p95/p99/max. The output is stable across runs (sorted by
// name) so it can be diffed.
func (m *Metrics) Snapshot() string {
	if m == nil {
		return ""
	}
	type line struct{ name, text string }
	var lines []line
	m.m.Range(func(k, v any) bool {
		name := k.(string)
		switch inst := v.(type) {
		case *Counter:
			lines = append(lines, line{name, fmt.Sprintf("%-46s %d", name, inst.Value())})
		case *Gauge:
			lines = append(lines, line{name, fmt.Sprintf("%-46s %g", name, inst.Value())})
		case *Histogram:
			lines = append(lines, line{name, fmt.Sprintf("%-46s count=%d sum=%.3f mean=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f",
				name, inst.Count(), inst.Sum(), inst.Mean(), inst.Quantile(0.50), inst.Quantile(0.95), inst.Quantile(0.99), inst.Max())})
		}
		return true
	})
	sort.Slice(lines, func(i, j int) bool { return lines[i].name < lines[j].name })
	var b strings.Builder
	for _, l := range lines {
		b.WriteString(l.text)
		b.WriteByte('\n')
	}
	return b.String()
}

// Each calls fn for every registered instrument, in name order. The value is
// a *Counter, *Gauge, or *Histogram.
func (m *Metrics) Each(fn func(name string, instrument any)) {
	if m == nil {
		return
	}
	var names []string
	m.m.Range(func(k, _ any) bool {
		names = append(names, k.(string))
		return true
	})
	sort.Strings(names)
	for _, n := range names {
		if v, ok := m.m.Load(n); ok {
			fn(n, v)
		}
	}
}
