package obs

// Windowed metrics history: a sampler that snapshots every registered
// instrument into fixed-width window rollups — counter deltas, gauge
// last-values, and per-window histogram deltas with interpolated quantiles —
// retained in a ring of the last DefaultHistoryKeep windows and served as JSON
// at /metrics/history. The cumulative registry answers "how much, ever"; the
// history answers "what changed in the last few seconds", which is what the
// anomaly watchdog (internal/flight, the one owner of a History) compares
// against a trailing baseline.
//
// Each Sample builds a fresh window from the cumulative values the previous
// one saw; a closed window is never written again, so readers share it.

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// CounterWindow is one counter's activity inside a window.
type CounterWindow struct {
	Name  string `json:"name"`
	Delta int64  `json:"delta"`
	Total int64  `json:"total"`
}

// GaugeWindow is one gauge's value at the window's close.
type GaugeWindow struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistWindow is one histogram's delta inside a window: how many observations
// landed, their sum, and quantiles interpolated from the bucket deltas alone
// (not the cumulative distribution), so a slow window stands out even after
// days of fast ones.
type HistWindow struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Window is one fixed-width rollup of the whole registry.
type Window struct {
	Seq      int64           `json:"seq"`
	StartMS  int64           `json:"start_unix_ms"`
	EndMS    int64           `json:"end_unix_ms"`
	Counters []CounterWindow `json:"counters,omitempty"`
	Gauges   []GaugeWindow   `json:"gauges,omitempty"`
	Hists    []HistWindow    `json:"histograms,omitempty"`
}

// CounterDelta returns the named counter's delta in this window.
func (w *Window) CounterDelta(name string) (int64, bool) {
	for i := range w.Counters {
		if w.Counters[i].Name == name {
			return w.Counters[i].Delta, true
		}
	}
	return 0, false
}

// cumulative is one instrument's cumulative state at the previous sample: a
// counter's total in count, a histogram's count, sum and bucket counts.
type cumulative struct {
	count   int64
	sum     float64
	buckets [histBuckets]int64
}

// History samples a Metrics registry into a ring of fixed-width windows, one
// per Sample call; the watchdog that owns it runs the ticker. A nil *History
// is a no-op everywhere, mirroring the rest of the obs layer's off switches.
type History struct {
	m      *Metrics
	window time.Duration

	mu     sync.Mutex
	prev   map[string]cumulative // by instrument name
	ring   []*Window             // oldest first, at most DefaultHistoryKeep
	seq    int64                 // windows sampled so far
	lastMS int64                 // close time of the previous window
}

// DefaultHistoryWindow is the window width when none is given; the ring keeps
// the last DefaultHistoryKeep windows (two minutes of history at the default).
const (
	DefaultHistoryWindow = 5 * time.Second
	DefaultHistoryKeep   = 24
)

// NewHistory builds a history over m whose windows are window wide.
func NewHistory(m *Metrics, window time.Duration) *History {
	return &History{m: m, window: window, prev: make(map[string]cumulative)}
}

// Sample closes one window now, holding every instrument's activity since
// the previous sample, and returns it.
func (h *History) Sample() *Window {
	if h == nil {
		return nil
	}
	now := time.Now().UnixMilli()
	h.mu.Lock()
	defer h.mu.Unlock()
	w := &Window{Seq: h.seq, StartMS: h.lastMS, EndMS: now}
	if w.StartMS == 0 {
		w.StartMS = now - h.window.Milliseconds()
	}
	h.m.Each(func(name string, instrument any) {
		prev := h.prev[name]
		switch inst := instrument.(type) {
		case *Counter:
			total := inst.Value()
			w.Counters = append(w.Counters, CounterWindow{Name: name, Delta: total - prev.count, Total: total})
			prev.count = total
			h.prev[name] = prev
		case *Gauge:
			w.Gauges = append(w.Gauges, GaugeWindow{Name: name, Value: inst.Value()})
		case *Histogram:
			count, sum := inst.Count(), inst.Sum()
			hw := HistWindow{Name: name, Count: count - prev.count, Sum: sum - prev.sum}
			if hw.Count > 0 {
				var delta [histBuckets]int64
				for b := range delta {
					cur := inst.buckets[b].Load()
					delta[b] = cur - prev.buckets[b]
					prev.buckets[b] = cur
				}
				// Clamp to the cumulative max: a window's values cannot
				// exceed the all-time extreme, and the clamp keeps
				// one-observation windows exact at the top bucket.
				hw.P50 = quantileFromBuckets(&delta, hw.Count, 0.50, 0, inst.Max())
				hw.P95 = quantileFromBuckets(&delta, hw.Count, 0.95, 0, inst.Max())
				hw.P99 = quantileFromBuckets(&delta, hw.Count, 0.99, 0, inst.Max())
			}
			prev.count, prev.sum = count, sum
			h.prev[name] = prev
			w.Hists = append(w.Hists, hw)
		}
	})
	h.ring = append(h.ring, w)
	if len(h.ring) > DefaultHistoryKeep {
		h.ring = h.ring[len(h.ring)-DefaultHistoryKeep:]
	}
	h.seq++
	h.lastMS = now
	return w
}

// Windows returns up to n retained windows, newest first (all retained when
// n <= 0).
func (h *History) Windows(n int) []Window {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	k := len(h.ring)
	if n > 0 && n < k {
		k = n
	}
	out := make([]Window, k)
	for i := range out {
		out[i] = *h.ring[len(h.ring)-1-i]
	}
	return out
}

// historyPayload is the /metrics/history JSON envelope.
type historyPayload struct {
	WindowMS int64    `json:"window_ms"`
	Keep     int      `json:"keep"`
	Taken    int64    `json:"windows_taken"`
	Windows  []Window `json:"windows"`
}

// ServeHTTP serves the retained windows as JSON, newest first; ?n=k limits
// the count. 404 until at least one window has closed, mirroring /trace/last.
func (h *History) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h == nil {
		http.Error(w, "metrics history disabled", http.StatusNotFound)
		return
	}
	n, ok := CountParam(w, r, 0)
	if !ok {
		return
	}
	windows := h.Windows(n)
	if len(windows) == 0 {
		http.Error(w, "no windows sampled yet", http.StatusNotFound)
		return
	}
	h.mu.Lock()
	payload := historyPayload{
		WindowMS: h.window.Milliseconds(),
		Keep:     DefaultHistoryKeep,
		Taken:    h.seq,
		Windows:  windows,
	}
	h.mu.Unlock()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(payload)
}
