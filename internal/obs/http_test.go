package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestPrometheusGolden pins the exact exposition text for counters and
// gauges, including name sanitization — the format third-party scrapers
// parse, so any change here is a breaking change.
func TestPrometheusGolden(t *testing.T) {
	m := NewMetrics()
	m.Counter("node.n1.rfbs").Add(7)
	m.Gauge("fault.breaker.n1-open").Set(1)
	m.Counter("buyer.hq.iterations").Add(3)

	var b strings.Builder
	if err := m.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# TYPE buyer_hq_iterations counter",
		"buyer_hq_iterations 3",
		"# TYPE fault_breaker_n1_open gauge",
		"fault_breaker_n1_open 1",
		"# TYPE node_n1_rfbs counter",
		"node_n1_rfbs 7",
		"",
	}, "\n")
	if b.String() != want {
		t.Fatalf("prometheus text drifted:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestPrometheusHistogram checks the histogram series: cumulative buckets
// over the registry's exponential bounds, +Inf last, _sum and _count.
func TestPrometheusHistogram(t *testing.T) {
	m := NewMetrics()
	h := m.Histogram("buyer.hq.price_ms")
	h.Observe(0.0005) // bucket 0 (le=0.001)
	h.Observe(0.5)
	h.Observe(1e9) // beyond every finite bound → +Inf only

	var b strings.Builder
	if err := m.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "# TYPE buyer_hq_price_ms histogram\n") {
		t.Fatalf("missing TYPE line:\n%s", out)
	}
	lineRe := regexp.MustCompile(`^(#.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? [0-9eE.+-]+|[a-zA-Z_:][a-zA-Z0-9_:]*(_sum|_count) [0-9eE.+-]+)$`)
	bucketRe := regexp.MustCompile(`^buyer_hq_price_ms_bucket\{le="([^"]+)"\} (\d+)$`)
	var bounds []string
	var counts []int64
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !lineRe.MatchString(line) {
			t.Fatalf("malformed exposition line %q", line)
		}
		if mm := bucketRe.FindStringSubmatch(line); mm != nil {
			bounds = append(bounds, mm[1])
			n, _ := strconv.ParseInt(mm[2], 10, 64)
			counts = append(counts, n)
		}
	}
	if len(bounds) != histBuckets {
		t.Fatalf("bucket lines: %d, want %d", len(bounds), histBuckets)
	}
	if bounds[0] != "0.001" || bounds[len(bounds)-1] != "+Inf" {
		t.Fatalf("bucket bounds: first %q last %q", bounds[0], bounds[len(bounds)-1])
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] < counts[i-1] {
			t.Fatalf("buckets must be cumulative: %v", counts)
		}
	}
	if counts[0] != 1 {
		t.Fatalf("le=0.001 must hold the 0.0005 observation: %d", counts[0])
	}
	if counts[len(counts)-1] != 3 {
		t.Fatalf("+Inf bucket must hold every observation: %d", counts[len(counts)-1])
	}
	if !strings.Contains(out, "buyer_hq_price_ms_count 3") {
		t.Fatalf("missing _count:\n%s", out)
	}
}

func TestPromNameSanitization(t *testing.T) {
	cases := map[string]string{
		"node.n0.rfbs":   "node_n0_rfbs",
		"net.a->b":       "net_a__b",
		"9lives":         "_9lives",
		"ok_name:colons": "ok_name:colons",
		"":               "_",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Fatalf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHandlerEndpoints(t *testing.T) {
	m := NewMetrics()
	m.Counter("node.n1.rfbs").Inc()
	tl := NewTraceLogN(0)
	srv := httptest.NewServer(Handler(m, tl))
	defer srv.Close()

	get := func(path string) (int, string, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), b.String()
	}

	code, ctype, body := get("/metrics")
	if code != 200 || !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics: %d %q", code, ctype)
	}
	if !strings.Contains(body, "node_n1_rfbs 1") {
		t.Fatalf("/metrics body:\n%s", body)
	}

	if code, _, _ := get("/trace/last"); code != 404 {
		t.Fatalf("/trace/last before any sample: %d, want 404", code)
	}
	tr := NewTracer()
	sp := tr.Start("corfu", "request-bids")
	sp.Child("dp-pricing").End()
	sp.End()
	tl.Record(sp.Payload())
	code, _, body = get("/trace/last")
	if code != 200 || !strings.Contains(body, `"request-bids"`) || !strings.Contains(body, `"dp-pricing"`) {
		t.Fatalf("/trace/last: %d\n%s", code, body)
	}

	if code, _, _ := get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/: %d", code)
	}
	if code, _, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline: %d", code)
	}

	// Unknown paths must 404, not fall through to some handler.
	if code, _, _ := get("/nope"); code != 404 {
		t.Fatalf("unknown path: %d, want 404", code)
	}
}

// TestTraceLogRing pins the last-8 retention and the /trace/last?n=k view:
// newest first, n unset = single most recent, bad n = 400.
func TestTraceLogRing(t *testing.T) {
	tl := NewTraceLogN(0)
	for i := 0; i < 12; i++ {
		tl.Record(&SpanPayload{Name: "t" + strconv.Itoa(i)})
	}
	rec := tl.Recent(0)
	if len(rec) != 8 || rec[0].Name != "t11" || rec[7].Name != "t4" {
		t.Fatalf("ring retention: %d traces, first %s last %s", len(rec), rec[0].Name, rec[len(rec)-1].Name)
	}
	if got := tl.Recent(3); len(got) != 3 || got[2].Name != "t9" {
		t.Fatalf("Recent(3): %+v", got)
	}

	serve := func(path string) (int, string) {
		rw := httptest.NewRecorder()
		req := httptest.NewRequest("GET", path, nil)
		tl.ServeHTTP(rw, req)
		return rw.Code, rw.Body.String()
	}
	code, body := serve("/trace/last")
	if code != 200 || strings.Count(body, `"name"`) < 1 || strings.Contains(body, "t10") {
		t.Fatalf("default must serve only the newest: %d\n%s", code, body)
	}
	code, body = serve("/trace/last?n=3")
	if code != 200 {
		t.Fatalf("?n=3: %d", code)
	}
	for _, want := range []string{"t11", "t10", "t9"} {
		if !strings.Contains(body, want) {
			t.Fatalf("?n=3 missing %s:\n%s", want, body)
		}
	}
	if strings.Contains(body, "t8\"") {
		t.Fatalf("?n=3 served more than 3:\n%s", body)
	}
	if code, _ := serve("/trace/last?n=0"); code != 400 {
		t.Fatalf("n=0 should 400, got %d", code)
	}
	if code, _ := serve("/trace/last?n=x"); code != 400 {
		t.Fatalf("n=x should 400, got %d", code)
	}
}

// TestHandlerExtraEndpoints checks the variadic endpoint mounting used by
// the trading ledger's /ledger and /calibration.
func TestHandlerExtraEndpoints(t *testing.T) {
	hit := ""
	mk := func(name string) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			hit = name
			w.WriteHeader(200)
		})
	}
	h := Handler(nil, nil,
		Endpoint{Path: "/ledger", Handler: mk("ledger")},
		Endpoint{Path: "/calibration", Handler: mk("calibration")},
		Endpoint{Path: "/nil", Handler: nil})
	srv := httptest.NewServer(h)
	defer srv.Close()
	for _, path := range []string{"/ledger", "/calibration"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 || hit != strings.TrimPrefix(path, "/") {
			t.Fatalf("%s: %d (hit=%q)", path, resp.StatusCode, hit)
		}
	}
	resp, err := srv.Client().Get(srv.URL + "/nil")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("nil-handler endpoint must stay unmounted: %d", resp.StatusCode)
	}
	// Without a metrics registry or trace log those paths 404 too.
	for _, path := range []string{"/metrics", "/trace/last"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Fatalf("%s with nil backends: %d", path, resp.StatusCode)
		}
	}
}

func TestTraceLogNilSafety(t *testing.T) {
	var tl *TraceLog
	tl.Record(&SpanPayload{Name: "x"})
	if tl.Recent(0) != nil {
		t.Fatal("nil trace log must stay empty")
	}
	live := NewTraceLogN(0)
	live.Record(nil)
	if len(live.Recent(0)) != 0 {
		t.Fatal("nil payload must not be recorded")
	}
	live.Record(&SpanPayload{Name: "a"})
	live.Record(&SpanPayload{Name: "b"})
	if got := live.Recent(0); len(got) != 2 || got[0].Name != "b" {
		t.Fatalf("recent: %+v", got)
	}
}

// TestSnapshotDeterministic pins that Snapshot and Each render instruments in
// sorted name order regardless of registration order — scrapers and golden
// tests depend on a stable exposition order.
func TestSnapshotDeterministic(t *testing.T) {
	build := func(names []string) *Metrics {
		m := NewMetrics()
		for _, n := range names {
			m.Counter(n).Inc()
		}
		m.Gauge("zz.gauge").Set(2)
		m.Histogram("aa.hist").Observe(time.Millisecond.Seconds())
		return m
	}
	a := build([]string{"c.one", "b.two", "a.three"})
	b := build([]string{"a.three", "c.one", "b.two"})
	if a.Snapshot() != b.Snapshot() {
		t.Fatalf("snapshot depends on registration order:\n%s\nvs\n%s", a.Snapshot(), b.Snapshot())
	}
	var order []string
	a.Each(func(name string, _ any) { order = append(order, name) })
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Fatalf("Each not sorted: %v", order)
		}
	}
	var prom1, prom2 strings.Builder
	_ = a.WritePrometheus(&prom1)
	_ = b.WritePrometheus(&prom2)
	if prom1.String() != prom2.String() {
		t.Fatal("prometheus output depends on registration order")
	}
}

// /healthz is the readiness surface: the default mount answers
// {"ready":true} with 200, a custom status provider overrides the default,
// and a body reporting "ready":false flips the HTTP code to 503 so probes
// can gate on status alone.
func TestHealthEndpoint(t *testing.T) {
	// Default mount: no extra endpoint claims /healthz.
	srv := httptest.NewServer(Handler(nil, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"ready":true`) {
		t.Fatalf("default /healthz: %d %q", resp.StatusCode, body)
	}

	// A status provider overrides the default and controls the code.
	ready := true
	srv2 := httptest.NewServer(Handler(nil, nil, HealthEndpoint(func() any {
		return map[string]any{"id": "corfu", "state": "active", "ready": ready}
	})))
	defer srv2.Close()
	resp, err = http.Get(srv2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body = readBody(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"id":"corfu"`) {
		t.Fatalf("custom /healthz: %d %q", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("content type: %q", ct)
	}

	ready = false
	resp, err = http.Get(srv2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body = readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, `"ready":false`) {
		t.Fatalf("draining /healthz must be 503: %d %q", resp.StatusCode, body)
	}
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
