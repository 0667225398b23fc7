package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestHistogramQuantileInterpolation pins that quantiles interpolate inside
// the bucket holding the rank instead of snapping to bucket upper bounds,
// and that single-valued buckets clamp to exact observed values.
func TestHistogramQuantileInterpolation(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 100; i++ {
		h.Observe(0.6) // all in bucket (0.512, 1.024]
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got := h.Quantile(q); got != 0.6 {
			t.Fatalf("uniform histogram q=%g: got %g, want exactly 0.6", q, got)
		}
	}

	two := &Histogram{}
	for i := 0; i < 50; i++ {
		two.Observe(0.3) // bucket (0.256, 0.512]
	}
	for i := 0; i < 50; i++ {
		two.Observe(0.9) // bucket (0.512, 1.024]
	}
	p95 := two.Quantile(0.95)
	if p95 <= 0.512 || p95 >= 0.9 {
		t.Fatalf("p95 must interpolate inside (0.512, 0.9): got %g", p95)
	}
	p99 := two.Quantile(0.99)
	if p99 < p95 || p99 > 0.9 {
		t.Fatalf("p99 %g must be in [p95 %g, max 0.9]", p99, p95)
	}
	if p50 := two.Quantile(0.5); p50 < 0.3 || p50 > 0.512 {
		t.Fatalf("p50 must land in the first occupied bucket: got %g", p50)
	}
}

// TestSnapshotQuantileGolden pins the exact histogram Snapshot line —
// including the new p99 column — for a deterministic single observation.
func TestSnapshotQuantileGolden(t *testing.T) {
	m := NewMetrics()
	m.Histogram("buyer.hq.wall_ms").Observe(2.0)
	want := "buyer.hq.wall_ms                               count=1 sum=2.000 mean=2.000 p50=2.000 p95=2.000 p99=2.000 max=2.000\n"
	if got := m.Snapshot(); got != want {
		t.Fatalf("snapshot drifted:\n--- got ---\n%q\n--- want ---\n%q", got, want)
	}
}

// TestPrometheusQuantileGolden pins the _p50/_p95/_p99 companion gauges in
// the exposition text.
func TestPrometheusQuantileGolden(t *testing.T) {
	m := NewMetrics()
	m.Histogram("buyer.hq.wall_ms").Observe(2.0)
	var b strings.Builder
	if err := m.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE buyer_hq_wall_ms_p50 gauge\nbuyer_hq_wall_ms_p50 2\n",
		"# TYPE buyer_hq_wall_ms_p95 gauge\nbuyer_hq_wall_ms_p95 2\n",
		"# TYPE buyer_hq_wall_ms_p99 gauge\nbuyer_hq_wall_ms_p99 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTraceLogNCapacity(t *testing.T) {
	tl := NewTraceLogN(3)
	for i := 0; i < 10; i++ {
		tl.Record(&SpanPayload{Name: "t"})
	}
	if got := len(tl.Recent(0)); got != 3 {
		t.Fatalf("NewTraceLogN(3) retained %d", got)
	}
	tl = NewTraceLogN(0)
	for i := 0; i < 2*traceLogKeep; i++ {
		tl.Record(&SpanPayload{Name: "t"})
	}
	if got := len(tl.Recent(0)); got != traceLogKeep {
		t.Fatalf("n<1 must fall back to the default capacity: retained %d", got)
	}
}

// TestHistoryWindows drives the sampler manually and checks counter deltas,
// gauge last-values, histogram window quantiles, and ring retention.
func TestHistoryWindows(t *testing.T) {
	m := NewMetrics()
	c := m.Counter("buyer.hq.queries")
	g := m.Gauge("node.n1.rfb_queue_depth")
	hist := m.Histogram("buyer.hq.wall_ms")
	h := NewHistory(m, time.Second)

	c.Add(5)
	g.Set(2)
	hist.Observe(10)
	h.Sample()

	c.Add(7)
	g.Set(9)
	h.Sample()

	wins := h.Windows(0)
	if len(wins) != 2 {
		t.Fatalf("windows: %d", len(wins))
	}
	newest, prev := wins[0], wins[1]
	if d, ok := newest.CounterDelta("buyer.hq.queries"); !ok || d != 7 {
		t.Fatalf("newest counter delta: %d %v", d, ok)
	}
	if d, _ := prev.CounterDelta("buyer.hq.queries"); d != 5 {
		t.Fatalf("first window must hold activity since start: %d", d)
	}
	if g := newest.Gauges; len(g) != 1 || g[0].Value != 9 {
		t.Fatalf("gauge last-value: %+v", g)
	}
	if hw := newest.Hists; len(hw) != 1 || hw[0].Count != 0 {
		t.Fatalf("idle histogram window must show zero delta: %+v", hw)
	}
	if hw := prev.Hists[0]; hw.Count != 1 || hw.P95 != 10 {
		t.Fatalf("windowed quantiles must reflect only that window: %+v", hw)
	}

	// Ring retention: the newest DefaultHistoryKeep windows stay.
	for i := 0; i < DefaultHistoryKeep+1; i++ {
		h.Sample()
	}
	last := int64(DefaultHistoryKeep + 2)
	wins = h.Windows(0)
	if len(wins) != DefaultHistoryKeep || wins[0].Seq != last || wins[DefaultHistoryKeep-1].Seq != last-DefaultHistoryKeep+1 {
		t.Fatalf("ring retention: %d windows, newest %d", len(wins), wins[0].Seq)
	}
	if got := h.Windows(1); len(got) != 1 || got[0].Seq != last {
		t.Fatalf("Windows(1): %+v", got)
	}
}

// TestHistoryNewInstrument checks an instrument registered between samples
// shows up in the next window with all its activity so far.
func TestHistoryNewInstrument(t *testing.T) {
	m := NewMetrics()
	m.Counter("a").Inc()
	h := NewHistory(m, time.Second)
	h.Sample()
	m.Counter("b").Add(3)
	h.Sample()
	newest := h.Windows(1)[0]
	if d, ok := newest.CounterDelta("b"); !ok || d != 3 {
		t.Fatalf("late-registered counter missing from window: %d %v", d, ok)
	}
}

func TestHistoryNil(t *testing.T) {
	var h *History
	if h.Sample() != nil || h.Windows(0) != nil {
		t.Fatal("nil history must be empty")
	}
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/metrics/history", nil))
	if rw.Code != 404 {
		t.Fatalf("nil history must 404: %d", rw.Code)
	}
}

// TestHistoryOnWindow: Sample hands back each window as it closes — what the
// watchdog judges — and a closed window is never written again.
func TestHistoryOnWindow(t *testing.T) {
	m := NewMetrics()
	c := m.Counter("x")
	h := NewHistory(m, time.Second)
	c.Add(4)
	first := h.Sample()
	c.Add(1)
	second := h.Sample()
	d1, _ := first.CounterDelta("x")
	d2, _ := second.CounterDelta("x")
	if d1 != 4 || d2 != 1 || first.Seq != 0 || second.Seq != 1 {
		t.Fatalf("window deltas: %d (seq %d), %d (seq %d)", d1, first.Seq, d2, second.Seq)
	}
	if wins := h.Windows(0); wins[0].Seq != second.Seq || wins[1].Counters[0].Delta != 4 {
		t.Fatalf("retained windows: %+v", wins)
	}
}

func TestHistoryServeHTTP(t *testing.T) {
	m := NewMetrics()
	c := m.Counter("buyer.hq.queries")
	h := NewHistory(m, 250*time.Millisecond)

	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/metrics/history", nil))
	if rw.Code != 404 {
		t.Fatalf("before any window: %d, want 404", rw.Code)
	}

	c.Add(3)
	h.Sample()
	c.Add(2)
	h.Sample()

	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/metrics/history", nil))
	if rw.Code != 200 || !strings.Contains(rw.Header().Get("Content-Type"), "application/json") {
		t.Fatalf("history: %d %q", rw.Code, rw.Header().Get("Content-Type"))
	}
	var payload struct {
		WindowMS int64    `json:"window_ms"`
		Keep     int      `json:"keep"`
		Taken    int64    `json:"windows_taken"`
		Windows  []Window `json:"windows"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &payload); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rw.Body.String())
	}
	if payload.WindowMS != 250 || payload.Keep != DefaultHistoryKeep || payload.Taken != 2 || len(payload.Windows) != 2 {
		t.Fatalf("payload: %+v", payload)
	}
	if payload.Windows[0].Seq != 1 {
		t.Fatalf("newest first: %+v", payload.Windows[0])
	}
	if d, ok := payload.Windows[0].CounterDelta("buyer.hq.queries"); !ok || d != 2 {
		t.Fatalf("counter delta through JSON: %d %v", d, ok)
	}

	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/metrics/history?n=1", nil))
	if rw.Code != 200 || strings.Count(rw.Body.String(), `"seq"`) != 1 {
		t.Fatalf("?n=1: %d\n%s", rw.Code, rw.Body.String())
	}
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/metrics/history?n=bogus", nil))
	if rw.Code != 400 {
		t.Fatalf("bad n: %d", rw.Code)
	}
}
