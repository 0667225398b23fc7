package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeShape(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("buyer", "optimize")
	root.Set("sql", "SELECT 1")
	it1 := root.Child("iteration 1")
	neg := it1.Child("negotiate")
	now := time.Now()
	neg.Graft(shipped("s1", "seller s1"), now, now)
	neg.Graft(shipped("s2", "seller s2"), now, now)
	neg.End()
	it1.Child("plangen").End()
	it1.End()
	it2 := root.Child("iteration 2")
	it2.End()
	root.End()

	roots := tr.Roots()
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}
	r := roots[0]
	if r.Name() != "optimize" || r.Source() != "buyer" {
		t.Fatalf("root = %q @%q", r.Name(), r.Source())
	}
	kids := r.Children()
	if len(kids) != 2 || kids[0].Name() != "iteration 1" || kids[1].Name() != "iteration 2" {
		t.Fatalf("children = %v", names(kids))
	}
	negKids := kids[0].Children()[0].Children()
	if len(negKids) != 2 || negKids[0].Source() != "s1" || negKids[1].Source() != "s2" {
		t.Fatalf("seller spans = %v", names(negKids))
	}
	if got := r.Attrs(); len(got) != 1 || got[0].Key != "sql" || got[0].Val != "SELECT 1" {
		t.Fatalf("attrs = %v", got)
	}
	if r.Duration() <= 0 {
		t.Fatalf("duration = %v", r.Duration())
	}
}

// shipped is the subtree a seller ships back: one finished span recorded on
// the seller's own tracer. Grafting it is how a second source gets into a tree.
func shipped(source, name string) *SpanPayload {
	sp := NewTracer().Start(source, name)
	sp.End()
	return sp.Payload()
}

func names(spans []*Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name()
	}
	return out
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	s := tr.Start("x", "y")
	if s != nil {
		t.Fatal("nil tracer must produce nil span")
	}
	c := s.Child("z")
	c.Set("k", 1)
	c.End()
	s.End()
	if s.Duration() != 0 || s.Name() != "" || len(s.Children()) != 0 {
		t.Fatal("nil span accessors must be zero-valued")
	}
	if err := tr.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil-tracer chrome export is not valid JSON: %v", err)
	}

	var m *Metrics
	m.Counter("a").Inc()
	m.Gauge("b").Set(1)
	m.Histogram("c").Observe(1)
	if m.Snapshot() != "" {
		t.Fatal("nil metrics snapshot must be empty")
	}
}

// TestDisabledPathAllocs pins the zero-overhead guarantee: every operation
// on the disabled (nil) path must be allocation-free.
func TestDisabledPathAllocs(t *testing.T) {
	var tr *Tracer
	var m *Metrics
	cnt := m.Counter("x")
	h := m.Histogram("y")
	g := m.Gauge("z")
	allocs := testing.AllocsPerRun(1000, func() {
		s := tr.Start("src", "op")
		c := s.Child("child")
		c.Set("k", "v")
		c.End()
		s.End()
		cnt.Inc()
		g.Set(3)
		h.Observe(1.5)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %v per op, want 0", allocs)
	}
}

func TestChromeTraceValidity(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("buyer", "optimize")
	root.Set("sql", "SELECT 1")
	it := root.Child("iteration 1")
	now := time.Now()
	it.Graft(shipped("seller-a", "pricing"), now, now)
	it.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			PID  int               `json:"pid"`
			TID  int               `json:"tid"`
			Dur  int64             `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var complete, meta int
	tids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
			if ev.Dur <= 0 {
				t.Fatalf("complete event %q has dur %d", ev.Name, ev.Dur)
			}
			tids[ev.TID] = true
		case "M":
			meta++
			if ev.Name != "thread_name" || ev.Args["name"] == "" {
				t.Fatalf("bad metadata event: %+v", ev)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if complete != 3 {
		t.Fatalf("complete events = %d, want 3", complete)
	}
	if len(tids) != 2 || meta != 2 {
		t.Fatalf("tracks = %d (meta %d), want 2 sources", len(tids), meta)
	}
}

func TestJSONLExport(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("buyer", "optimize")
	root.Child("iteration 1").End()
	root.End()
	tr.Start("buyer", "execute").End()

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3", len(lines))
	}
	var recs []jsonlSpan
	for _, l := range lines {
		var r jsonlSpan
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatalf("line %q: %v", l, err)
		}
		recs = append(recs, r)
	}
	if recs[0].Path != "optimize" || recs[1].Path != "optimize/iteration 1" {
		t.Fatalf("paths = %q, %q", recs[0].Path, recs[1].Path)
	}
	if recs[2].Trace != 1 {
		t.Fatalf("second root trace index = %d, want 1", recs[2].Trace)
	}
}

func TestRenderText(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("buyer", "optimize")
	root.Set("pool", 7)
	root.Child("plangen").End()
	root.End()
	out := tr.RenderText()
	if !strings.Contains(out, "optimize @buyer") || !strings.Contains(out, "pool=7") {
		t.Fatalf("render = %q", out)
	}
	if !strings.Contains(out, "\n  plangen") {
		t.Fatalf("child not indented: %q", out)
	}
}

func TestMetricsBasics(t *testing.T) {
	m := NewMetrics()
	m.Counter("rfbs").Add(3)
	m.Counter("rfbs").Inc()
	if got := m.Counter("rfbs").Value(); got != 4 {
		t.Fatalf("counter = %d", got)
	}
	m.Gauge("pool").Set(11)
	if got := m.Gauge("pool").Value(); got != 11 {
		t.Fatalf("gauge = %g", got)
	}
	h := m.Histogram("dp_ms")
	for _, v := range []float64{0.5, 1, 2, 4, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 107.5 {
		t.Fatalf("hist count=%d sum=%g", h.Count(), h.Sum())
	}
	if h.Min() != 0.5 || h.Max() != 100 {
		t.Fatalf("min=%g max=%g", h.Min(), h.Max())
	}
	if p50 := h.Quantile(0.5); p50 < 1 || p50 > 4 {
		t.Fatalf("p50 = %g", p50)
	}
	snap := m.Snapshot()
	for _, want := range []string{"rfbs", "pool", "dp_ms", "count=5"} {
		if !strings.Contains(snap, want) {
			t.Fatalf("snapshot missing %q:\n%s", want, snap)
		}
	}
	// Sorted output.
	if strings.Index(snap, "dp_ms") > strings.Index(snap, "rfbs") {
		t.Fatalf("snapshot not sorted:\n%s", snap)
	}
	// Kind mismatch hands out a nil no-op handle rather than panicking.
	if g := m.Gauge("rfbs"); g != nil {
		t.Fatal("kind mismatch should return nil")
	}
	m.Gauge("rfbs").Set(1) // must not panic
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	const workers, iters = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m.Counter("c").Inc()
				m.Gauge("g").Set(float64(i))
				m.Histogram("h").Observe(float64(i % 13))
				_ = m.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := m.Counter("c").Value(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if got := m.Histogram("h").Count(); got != workers*iters {
		t.Fatalf("hist count = %d, want %d", got, workers*iters)
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("buyer", "fanout")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := root.Child("seller")
			c.Set("k", "v")
			c.End()
		}()
	}
	wg.Wait()
	root.End()
	if got := len(root.Children()); got != 16 {
		t.Fatalf("children = %d, want 16", got)
	}
}

func TestUnendedSpanDuration(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("b", "outer")
	c := root.Child("inner")
	time.Sleep(2 * time.Millisecond)
	c.End()
	// root never ended: its duration must cover the child.
	if root.Duration() < c.Duration() {
		t.Fatalf("root %v < child %v", root.Duration(), c.Duration())
	}
}
