package obs

// Live exposition over HTTP, stdlib only: /metrics in Prometheus text
// format, /debug/pprof/* via net/http/pprof, and /trace/last serving the
// most recent sampled negotiation as span JSONL. qtnode mounts this on
// -obs-addr so a running federation can be scraped and profiled without
// stopping it.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
)

// promName sanitizes an instrument name into a valid Prometheus metric name:
// every character outside [a-zA-Z0-9_:] becomes '_' (so "node.n0.rfbs" is
// exposed as "node_n0_rfbs"), and a leading digit gains a '_' prefix.
func promName(name string) string {
	b := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b = append(b, c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b = append(b, '_')
			}
			b = append(b, c)
		default:
			b = append(b, '_')
		}
	}
	if len(b) == 0 {
		return "_"
	}
	return string(b)
}

// promFloat renders a float the way Prometheus expects, mapping +Inf/-Inf.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return fmt.Sprintf("%g", v)
	}
}

// WritePrometheus writes every registered instrument in Prometheus text
// exposition format (version 0.0.4), sorted by name. Counters and gauges
// are single samples; histograms expose cumulative _bucket{le="..."} series
// over the registry's exponential bounds plus _sum and _count.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	if m == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	m.Each(func(name string, instrument any) {
		pn := promName(name)
		switch inst := instrument.(type) {
		case *Counter:
			fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", pn, pn, inst.Value())
		case *Gauge:
			fmt.Fprintf(bw, "# TYPE %s gauge\n%s %s\n", pn, pn, promFloat(inst.Value()))
		case *Histogram:
			fmt.Fprintf(bw, "# TYPE %s histogram\n", pn)
			var cum int64
			bound := histBase
			for i := 0; i < histBuckets; i++ {
				cum += inst.buckets[i].Load()
				le := promFloat(bound)
				if i == histBuckets-1 {
					le = "+Inf"
				}
				fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", pn, le, cum)
				bound *= 2
			}
			fmt.Fprintf(bw, "%s_sum %s\n", pn, promFloat(inst.Sum()))
			fmt.Fprintf(bw, "%s_count %d\n", pn, inst.Count())
			// Estimated quantiles as companion gauges (summary-style
			// {quantile=...} labels would collide with the histogram type, so
			// they ride as _p50/_p95/_p99 gauges scrapers can alert on
			// without doing histogram_quantile math).
			for _, q := range [...]struct {
				suffix string
				q      float64
			}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}} {
				fmt.Fprintf(bw, "# TYPE %s_%s gauge\n%s_%s %s\n",
					pn, q.suffix, pn, q.suffix, promFloat(inst.Quantile(q.q)))
			}
		}
	})
	return bw.Flush()
}

// ServeHTTP makes the registry an http.Handler serving /metrics scrapes.
func (m *Metrics) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = m.WritePrometheus(w)
}

// traceLogKeep is how many recent sampled traces a TraceLog retains when
// NewTraceLogN is given no capacity.
const traceLogKeep = 8

// TraceLog retains a small ring of the most recently sampled negotiations'
// span payloads so a live node can serve them at /trace/last. Writers call
// Record with the payload they are about to ship (seller side) or just
// rendered (buyer side); readers get JSONL identical in shape to
// Tracer.WriteJSONL.
type TraceLog struct {
	mu     sync.Mutex
	keep   int            // ring capacity
	recent []*SpanPayload // newest last, at most keep
}

// NewTraceLogN returns an empty trace log retaining the last n traces
// (traceLogKeep when n < 1).
func NewTraceLogN(n int) *TraceLog {
	if n < 1 {
		n = traceLogKeep
	}
	return &TraceLog{keep: n}
}

// Record stores p as the most recent trace, evicting the oldest once the
// ring is at capacity. Nil-safe on both sides.
func (l *TraceLog) Record(p *SpanPayload) {
	if l == nil || p == nil {
		return
	}
	l.mu.Lock()
	l.recent = append(l.recent, p)
	if len(l.recent) > l.keep {
		l.recent = l.recent[len(l.recent)-l.keep:]
	}
	l.mu.Unlock()
}

// Recent returns up to n retained payloads, newest first (all retained when
// n <= 0).
func (l *TraceLog) Recent(n int) []*SpanPayload {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	k := len(l.recent)
	if n > 0 && n < k {
		k = n
	}
	out := make([]*SpanPayload, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, l.recent[len(l.recent)-1-i])
	}
	return out
}

// ServeHTTP serves sampled traces as span JSONL: the most recent one by
// default, the last k (newest first) with ?n=k. 404 when none has been
// recorded yet.
func (l *TraceLog) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n, ok := CountParam(w, r, 1)
	if !ok {
		return
	}
	ps := l.Recent(n)
	if len(ps) == 0 {
		http.Error(w, "no sampled trace recorded yet", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	for _, p := range ps {
		_ = WritePayloadJSONL(w, p)
	}
}

// CountParam reads a list endpoint's ?n=k limit, def when absent. Anything
// but a positive integer is answered 400 "bad n", with ok false.
func CountParam(w http.ResponseWriter, r *http.Request, def int) (n int, ok bool) {
	s := r.URL.Query().Get("n")
	if s == "" {
		return def, true
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		http.Error(w, "bad n", http.StatusBadRequest)
		return 0, false
	}
	return n, true
}

// Endpoint mounts one extra handler on the exposition mux — how packages
// the obs layer must not depend on (e.g. the trading ledger) join a node's
// observability surface.
type Endpoint struct {
	Path    string
	Handler http.Handler
}

// HealthEndpoint builds a /healthz Endpoint from a status provider: each
// request JSON-encodes status() (drain state, admission queue depth, breaker
// summary — whatever the process knows about itself). When status reports a
// field "ready": false the response is 503, so load balancers and readiness
// probes can gate on the HTTP code alone.
func HealthEndpoint(status func() any) Endpoint {
	return Endpoint{Path: "/healthz", Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		body, err := json.Marshal(status())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if bytes.Contains(body, []byte(`"ready":false`)) {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_, _ = w.Write(body)
	})}
}

// Handler mounts the exposition surface on a fresh mux: /metrics (when m is
// non-nil), /trace/last (when tl is non-nil), /debug/pprof/*, plus any
// extra endpoints (skipping nil handlers). Unless an extra endpoint claims
// /healthz itself, a default liveness probe answering {"ready":true} is
// mounted there, so every exposition surface is pollable for readiness.
func Handler(m *Metrics, tl *TraceLog, extra ...Endpoint) http.Handler {
	mux := http.NewServeMux()
	if m != nil {
		mux.Handle("/metrics", m)
	}
	if tl != nil {
		mux.Handle("/trace/last", tl)
	}
	healthMounted := false
	for _, e := range extra {
		if e.Handler != nil {
			mux.Handle(e.Path, e.Handler)
			if e.Path == "/healthz" {
				healthMounted = true
			}
		}
	}
	if !healthMounted {
		h := HealthEndpoint(func() any { return map[string]any{"ready": true} })
		mux.Handle(h.Path, h.Handler)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
