package qtrade

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"qtrade/internal/core"
	"qtrade/internal/exec"
	"qtrade/internal/obs"
)

// WithTrace records one span tree for the optimization: the buyer's
// iterations, the negotiation rounds with one sub-span per seller RFB, every
// seller's rewrite/DP pricing, plan generation, the predicates analyser, and
// the final awards. Retrieve it with Plan.Trace(). Tracing is strictly
// opt-in; without this option the instrumented paths reduce to nil checks.
//
// The trace is federation-wide: each RFB carries a trace context, sellers
// record their pricing (and any Depth-1 subcontract negotiation) into a span
// subtree shipped back with their offers, and the buyer grafts those
// subtrees under the matching "RequestBids <seller>" span with a
// Cristian-style clock-offset correction — so one negotiation renders as one
// tree even when the sellers are separate processes (see netsim.RPCPeer).
func WithTrace() OptimizeOption {
	return func(c *core.Config) { c.Tracer = obs.NewTracer() }
}

// Trace is the recorded span forest of one traced optimization (and, if the
// plan was executed, its execution). The zero Trace of an untraced plan is
// valid and renders empty.
type Trace struct{ tr *obs.Tracer }

// WriteChromeTrace exports the trace in Chrome trace_event JSON, loadable
// in chrome://tracing or https://ui.perfetto.dev: each node becomes its own
// named track on a shared microsecond timeline.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return (*obs.Tracer)(nil).WriteChromeTrace(w)
	}
	return t.tr.WriteChromeTrace(w)
}

// WriteJSONL exports the trace as one JSON object per span, depth-first,
// each line carrying the span's path, source node, start and duration.
func (t *Trace) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	return t.tr.WriteJSONL(w)
}

// Text renders the trace as an indented tree with durations and attributes.
func (t *Trace) Text() string {
	if t == nil {
		return ""
	}
	return t.tr.RenderText()
}

// Trace returns the spans recorded for this plan. Empty unless the plan was
// optimized with WithTrace.
func (p *Plan) Trace() *Trace { return &Trace{tr: p.tracer} }

// execTracer is where executing the plan records: the plan's tracer when its
// negotiation was traced, nowhere otherwise — one negotiation is one trace
// end to end, or none.
func (p *Plan) execTracer() *obs.Tracer {
	if p.res.TraceCtx.Sampled {
		return p.tracer
	}
	return nil
}

// ExplainAnalyze executes the plan with per-operator profiling and renders
// the tree with actual rows, input rows and wall time next to the plan
// generator's estimates — the federation's EXPLAIN ANALYZE. Like its
// namesake, it really runs the query (purchased answers are fetched from
// their sellers).
func (p *Plan) ExplainAnalyze() (string, error) {
	st := exec.NewRunStats()
	if _, err := p.execute(st); err != nil {
		return "", err
	}
	return core.ExplainAnalyze(p.res, st), nil
}

// Stats reports what the optimization cost, including the seller-side
// counters (offers priced, view-derived offers, empty bid responses).
func (p *Plan) Stats() core.Stats { return p.res.Stats }

// MetricsSnapshot renders every federation metric as sorted "name value"
// lines: per-buyer counters and timing histograms ("buyer.<id>.*"),
// per-seller pricing counters ("node.<id>.*"), fault-tolerance counters and
// breaker gauges ("fault.*", present once EnableFaultTolerance is on), and
// the per-link network traffic ("net.<from>-><to>"). With a chaos plan
// installed the injected-fault tallies follow as "net.chaos.*" lines.
// Counters accumulate for the lifetime of the federation; network lines
// reset with ResetNetworkStats, chaos lines with SetFaultPlan.
func (f *Federation) MetricsSnapshot() string {
	var b strings.Builder
	b.WriteString(f.metrics.Snapshot())
	for _, t := range f.NetworkStatsByPeer() {
		fmt.Fprintf(&b, "%-46s messages=%d bytes=%d\n",
			"net."+t.From+"->"+t.To, t.Messages, t.Bytes)
	}
	if f.net.FaultPlanActive() {
		s := f.ChaosStats()
		fmt.Fprintf(&b, "%-46s %d\n", "net.chaos.crashes", s.Crashes)
		fmt.Fprintf(&b, "%-46s %d\n", "net.chaos.drops", s.Drops)
		fmt.Fprintf(&b, "%-46s %d\n", "net.chaos.flap_rejects", s.FlapRejects)
		fmt.Fprintf(&b, "%-46s %d\n", "net.chaos.injected_errors", s.InjectedErrors)
		fmt.Fprintf(&b, "%-46s %d\n", "net.chaos.slow_calls", s.SlowCalls)
	}
	return b.String()
}

// PeerTraffic is the traffic recorded on one directed sender→receiver link.
type PeerTraffic struct {
	From     string
	To       string
	Messages int64
	Bytes    int64
}

// NetworkStatsByPeer returns the per-link traffic breakdown since the last
// ResetNetworkStats, sorted by sender then receiver. Requests are charged
// to the sender→receiver link and responses to the reverse link.
func (f *Federation) NetworkStatsByPeer() []PeerTraffic {
	pairs := f.net.StatsByPair()
	out := make([]PeerTraffic, 0, len(pairs))
	for p, s := range pairs {
		out = append(out, PeerTraffic{From: p.From, To: p.To, Messages: s.Messages, Bytes: s.Bytes})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}
