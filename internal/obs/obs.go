// Package obs is the federation's observability layer: a hierarchical span
// tracer, a registry of counters/gauges/histograms, and exporters (JSONL,
// Chrome trace_event JSON, plain text). It is built exclusively on the
// standard library and is designed around two rules:
//
//   - Nil safety. Every method works on a nil receiver: a nil *Tracer
//     produces nil *Spans, and every Span/Counter/Gauge/Histogram operation
//     on nil is a no-op that allocates nothing. Instrumented code therefore
//     never branches on "is tracing on?" — it just calls through, and the
//     disabled path costs one nil check.
//
//   - Lock-free hot paths. Metric updates are single atomic operations;
//     span construction takes one short mutex on its parent only when
//     tracing is actually enabled.
//
// The paper's evaluation (EXPERIMENTS.md F1–F11) is entirely about observing
// the trading protocol — wall time, messages, convergence — and this package
// is how those observations are attributed to phases (iterations, RFB
// fan-out, per-seller pricing, protocol rounds, plan generation) and to
// nodes, instead of being reported as opaque totals.
package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span. Values are stored rendered so
// exporters never re-inspect live objects.
type Attr struct {
	Key string
	Val string
}

// Tracer records a forest of span trees. One Tracer is typically scoped to
// one optimization (see qtrade.WithTrace) or shared across a federation for
// a whole benchmark run. A nil Tracer is valid and records nothing.
type Tracer struct {
	epoch time.Time

	mu    sync.Mutex
	roots []*Span
}

// NewTracer returns an empty tracer. Its epoch (the zero timestamp of all
// exported spans) is the moment of creation.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Start opens a new root span attributed to source (a node id — exported as
// the span's thread/track). Nil-safe: a nil tracer returns a nil span.
func (t *Tracer) Start(source, name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{tracer: t, source: source, name: name, id: spanSeq.Add(1), start: time.Now()}
	t.mu.Lock()
	t.roots = append(t.roots, s)
	t.mu.Unlock()
	return s
}

// Roots returns a snapshot of the recorded root spans in creation order.
func (t *Tracer) Roots() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.roots...)
}

// spanSeq issues process-unique span IDs. IDs exist so a remote parent can be
// named in a TraceContext; 0 is reserved for "no span" (the nil receiver).
var spanSeq atomic.Uint64

// Span is one timed region of a span tree. All methods are safe on a nil
// receiver and safe for concurrent use (children may be added from several
// goroutines, e.g. during RFB fan-out).
type Span struct {
	tracer *Tracer
	source string
	name   string
	id     uint64
	start  time.Time

	mu       sync.Mutex
	end      time.Time
	attrs    []Attr
	children []*Span
}

// ID returns the span's process-unique identifier (0 for nil). Carried as
// TraceContext.Parent so a remote subtree can be grafted under this span.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Child opens a sub-span. Nil-safe: a nil parent returns a nil child, so an
// entire call tree short-circuits to no-ops when tracing is off.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tracer: s.tracer, source: s.source, name: name, id: spanSeq.Add(1), start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Set annotates the span. The value is rendered immediately with fmt.Sprint.
func (s *Span) Set(key string, val any) {
	if s == nil {
		return
	}
	v := fmt.Sprint(val)
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Val: v})
	s.mu.Unlock()
}

// End closes the span. The first End wins; later calls are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = now
	}
	s.mu.Unlock()
}

// Ended reports whether End has been called. Exporters use it to mark spans
// caught mid-flight (e.g. stragglers cut by a round deadline) as unfinished
// instead of rendering a bogus zero duration.
func (s *Span) Ended() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.end.IsZero()
}

// Name returns the span name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Source returns the span's source/track ("" for nil).
func (s *Span) Source() string {
	if s == nil {
		return ""
	}
	return s.source
}

// Attrs returns a snapshot of the span's annotations.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Children returns a snapshot of the sub-spans in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Duration returns the span's length. An unended span extends to the latest
// end among its descendants (or zero if none ended yet).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return s.effectiveEnd().Sub(s.start)
}

// effectiveEnd is End, or the max descendant end for spans never closed
// (e.g. when an export races an in-flight optimization).
func (s *Span) effectiveEnd() time.Time {
	s.mu.Lock()
	end := s.end
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	if !end.IsZero() {
		return end
	}
	end = s.start
	for _, c := range children {
		if ce := c.effectiveEnd(); ce.After(end) {
			end = ce
		}
	}
	return end
}
