package obs

// Windowed metrics history: a sampler that periodically snapshots every
// registered instrument into fixed-width window rollups — counter deltas,
// gauge last-values, and per-window histogram deltas with interpolated
// quantiles — retained in a ring of the last N windows and served as JSON at
// /metrics/history. The cumulative registry answers "how much, ever"; the
// history answers "what changed in the last few seconds", which is what the
// anomaly watchdog needs to compare the newest window against a trailing
// baseline.
//
// Sampling is allocation-free once the instrument set is stable: per-slot
// entry slices are reused across laps of the ring, tracker state lives in a
// flat slice, and histogram bucket deltas are computed into a stack array.
// Only registry growth (new instruments) re-allocates the tracker table.

import (
	"encoding/json"
	"net/http"
	"sort"
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

// GaugeValue returns the named gauge's value at the window's close.
func (w *Window) GaugeValue(name string) (float64, bool) {
	for i := range w.Gauges {
		if w.Gauges[i].Name == name {
			return w.Gauges[i].Value, true
		}
	}
	return 0, false
}

// Hist returns the named histogram's windowed delta.
func (w *Window) Hist(name string) (HistWindow, bool) {
	for i := range w.Hists {
		if w.Hists[i].Name == name {
			return w.Hists[i], true
		}
	}
	return HistWindow{}, false
}

// tracker carries one instrument's previous cumulative state between samples.
type tracker struct {
	name        string
	c           *Counter
	g           *Gauge
	h           *Histogram
	prevC       int64
	prevHCount  int64
	prevHSum    float64
	prevBuckets [histBuckets]int64
}

// History samples a Metrics registry into a ring of fixed-width windows.
// Construct with NewHistory, then either Start a sampler goroutine or call
// Sample manually (experiments and tests drive windows deterministically
// that way). A nil *History is a no-op everywhere, mirroring the rest of the
// obs layer's off switches.
type History struct {
	m      *Metrics
	window time.Duration

	mu       sync.Mutex
	trk      []tracker
	ring     []Window // slot storage reused every lap
	seq      int64    // windows sampled so far
	lastMS   int64    // close time of the previous window
	onWindow func(*Window)

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// DefaultHistoryWindow and DefaultHistoryKeep shape a NewHistory ring when
// the caller passes zero values: 5-second windows, the last 24 retained
// (two minutes of history).
const (
	DefaultHistoryWindow = 5 * time.Second
	DefaultHistoryKeep   = 24
)

// NewHistory builds a history over m with the given window width and ring
// capacity (zero values take the defaults). The sampler does not run until
// Start; Sample can always be called directly.
func NewHistory(m *Metrics, window time.Duration, keep int) *History {
	if window <= 0 {
		window = DefaultHistoryWindow
	}
	if keep < 1 {
		keep = DefaultHistoryKeep
	}
	return &History{
		m:      m,
		window: window,
		ring:   make([]Window, keep),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Window reports the configured window width (0 for nil).
func (h *History) Window() time.Duration {
	if h == nil {
		return 0
	}
	return h.window
}

// OnWindow registers fn to run synchronously after each sample with the
// freshly closed window — the watchdog's attachment point. fn runs under the
// history lock and must not retain the *Window (its storage is reused) nor
// call back into this History.
func (h *History) OnWindow(fn func(*Window)) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.onWindow = fn
	h.mu.Unlock()
}

// refreshTrackers rebuilds the tracker table from the registry, keeping
// accumulated prev state for instruments that survive. Callers hold h.mu.
func (h *History) refreshTrackers() {
	old := make(map[string]*tracker, len(h.trk))
	for i := range h.trk {
		old[h.trk[i].name] = &h.trk[i]
	}
	var next []tracker
	h.m.Each(func(name string, instrument any) {
		t := tracker{name: name}
		if prev, ok := old[name]; ok {
			t = *prev
		}
		switch inst := instrument.(type) {
		case *Counter:
			t.c = inst
		case *Gauge:
			t.g = inst
		case *Histogram:
			t.h = inst
		default:
			return
		}
		next = append(next, t)
	})
	sort.Slice(next, func(i, j int) bool { return next[i].name < next[j].name })
	h.trk = next
}

// Sample closes one window now: every instrument's activity since the
// previous sample is rolled into the next ring slot, and the OnWindow hook
// (if any) runs with the result. Allocation-free when the instrument set has
// not grown since the last call.
func (h *History) Sample() {
	if h == nil {
		return
	}
	now := time.Now().UnixMilli()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.m.Size() != len(h.trk) {
		h.refreshTrackers()
	}
	w := &h.ring[h.seq%int64(len(h.ring))]
	w.Seq = h.seq
	w.StartMS = h.lastMS
	if w.StartMS == 0 {
		w.StartMS = now - h.window.Milliseconds()
	}
	w.EndMS = now
	w.Counters = w.Counters[:0]
	w.Gauges = w.Gauges[:0]
	w.Hists = w.Hists[:0]
	for i := range h.trk {
		t := &h.trk[i]
		switch {
		case t.c != nil:
			total := t.c.Value()
			w.Counters = append(w.Counters, CounterWindow{Name: t.name, Delta: total - t.prevC, Total: total})
			t.prevC = total
		case t.g != nil:
			w.Gauges = append(w.Gauges, GaugeWindow{Name: t.name, Value: t.g.Value()})
		case t.h != nil:
			count := t.h.Count()
			sum := t.h.Sum()
			hw := HistWindow{Name: t.name, Count: count - t.prevHCount, Sum: sum - t.prevHSum}
			if hw.Count > 0 {
				var delta [histBuckets]int64
				for b := 0; b < histBuckets; b++ {
					cur := t.h.buckets[b].Load()
					delta[b] = cur - t.prevBuckets[b]
					t.prevBuckets[b] = cur
				}
				// Clamp to the cumulative max: a window's values cannot
				// exceed the all-time extreme, and the clamp keeps
				// one-observation windows exact at the top bucket.
				hw.P50 = quantileFromBuckets(&delta, hw.Count, 0.50, 0, t.h.Max())
				hw.P95 = quantileFromBuckets(&delta, hw.Count, 0.95, 0, t.h.Max())
				hw.P99 = quantileFromBuckets(&delta, hw.Count, 0.99, 0, t.h.Max())
			}
			t.prevHCount, t.prevHSum = count, sum
			w.Hists = append(w.Hists, hw)
		}
	}
	h.seq++
	h.lastMS = now
	if h.onWindow != nil {
		h.onWindow(w)
	}
}

// Start launches the sampler goroutine, closing a window every window width
// until Stop. Idempotent; no-op on nil.
func (h *History) Start() {
	if h == nil {
		return
	}
	h.startOnce.Do(func() {
		go func() {
			defer close(h.done)
			tick := time.NewTicker(h.window)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					h.Sample()
				case <-h.stop:
					return
				}
			}
		}()
	})
}

// Stop halts the sampler goroutine (if Start ran) and waits for it to exit.
// Safe to call multiple times and on a history that never started.
func (h *History) Stop() {
	if h == nil {
		return
	}
	h.stopOnce.Do(func() { close(h.stop) })
	h.startOnce.Do(func() { close(h.done) }) // never started: unblock the wait
	<-h.done
}

// Len reports how many windows have been closed so far (0 for nil).
func (h *History) Len() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	n := int(h.seq)
	if n > len(h.ring) {
		n = len(h.ring)
	}
	return n
}

// Windows returns deep copies of up to n retained windows, newest first
// (all retained when n <= 0). The copies are safe to hold across samples.
func (h *History) Windows(n int) []Window {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	k := int(h.seq)
	if k > len(h.ring) {
		k = len(h.ring)
	}
	if n > 0 && n < k {
		k = n
	}
	out := make([]Window, 0, k)
	for i := 0; i < k; i++ {
		slot := &h.ring[(h.seq-1-int64(i))%int64(len(h.ring))]
		cp := *slot
		cp.Counters = append([]CounterWindow(nil), slot.Counters...)
		cp.Gauges = append([]GaugeWindow(nil), slot.Gauges...)
		cp.Hists = append([]HistWindow(nil), slot.Hists...)
		out = append(out, cp)
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
		Keep:     len(h.ring),
		Taken:    h.seq,
		Windows:  windows,
	}
	h.mu.Unlock()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(payload)
}
