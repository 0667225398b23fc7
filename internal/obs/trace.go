package obs

// Distributed tracing: one negotiation, one trace across the federation.
//
// The buyer mints a TraceContext and stamps it on every outgoing trading
// message (RFB, ImproveReq, ExecReq). A sampled seller records its pricing /
// subcontract / execution work into a detached span tree and ships the
// finished subtree back piggybacked on the reply as a SpanPayload. The buyer
// grafts that payload under the span that issued the call, normalizing the
// remote clock Cristian-style from the request/response timestamps, so
// WriteChromeTrace / ExplainAnalyze show seller-side dp-pricing (and Depth-1
// subcontract) spans nested inside the buyer's RequestBids span on one
// coherent timeline.

import (
	"fmt"
	"sync/atomic"
	"time"
)

// TraceContext is the trace state carried on trading messages. The zero
// value means "not sampled": it adds no bytes to any wire-size accounting and
// sellers ignore it entirely, keeping the untraced hot path identical to a
// build without tracing.
type TraceContext struct {
	// TraceID identifies the negotiation's trace, unique per optimization.
	TraceID string
	// Parent is the buyer-side span ID the reply's subtree grafts under.
	Parent uint64
	// Sampled says the buyer is tracing this negotiation (every traced
	// buyer sets it): when false, sellers must not record or ship any trace
	// data for this exchange.
	Sampled bool
}

// Under is the context of a request sent from the span whose ID is parent: a
// sampled context names that span as the parent its reply's subtree grafts
// under; any other is returned as it is.
func (c TraceContext) Under(parent uint64) TraceContext {
	if c.Sampled {
		c.Parent = parent
	}
	return c
}

// WireSize is the accounted on-wire cost of the context: zero when
// unsampled (the decision rides in a single flag bit already accounted in
// the message framing), id + parent id + flag when sampled.
func (c TraceContext) WireSize() int {
	if !c.Sampled {
		return 0
	}
	return 9 + len(c.TraceID) // 8B parent span id + 1B flag + trace id
}

var traceSeq atomic.Uint64

// traceEpoch distinguishes trace IDs across process restarts.
var traceEpoch = time.Now().UnixNano()

// NewTraceID mints a unique trace identifier with a human-readable prefix
// (conventionally the buyer node's ID).
func NewTraceID(prefix string) string {
	return fmt.Sprintf("%s-%08x-%04x", prefix, uint32(traceEpoch>>16), traceSeq.Add(1)&0xffff)
}

// SpanPayload is the serializable form of a span subtree, shipped from
// seller to buyer piggybacked on a reply. Timestamps are absolute unix
// microseconds on the *sender's* clock; Graft rebases them onto the
// receiver's timeline.
type SpanPayload struct {
	Name    string
	Source  string
	StartUS int64 // unix µs, sender clock
	EndUS   int64 // unix µs, sender clock; 0 when Unfinished
	// Unfinished marks a span that had not Ended when the payload was built
	// (e.g. cut by a deadline); exporters render it with unfinished=true.
	Unfinished bool
	Attrs      []Attr
	Children   []*SpanPayload
}

// WireSize is the accounted serialized size of the subtree (nil-safe).
func (p *SpanPayload) WireSize() int {
	if p == nil {
		return 0
	}
	n := 24 + len(p.Name) + len(p.Source) // framing + 2×8B timestamps + flags
	for _, a := range p.Attrs {
		n += 8 + len(a.Key) + len(a.Val)
	}
	for _, c := range p.Children {
		n += c.WireSize()
	}
	return n
}

// Payload snapshots the span subtree into its serializable form. Safe to
// call concurrently with Child/Set/End on any span of the subtree; a span
// not yet Ended is marked Unfinished. Returns nil for a nil span.
func (s *Span) Payload() *SpanPayload {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	end := s.end
	attrs := append([]Attr(nil), s.attrs...)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	p := &SpanPayload{
		Name:    s.name,
		Source:  s.source,
		StartUS: s.start.UnixMicro(),
		Attrs:   attrs,
	}
	if end.IsZero() {
		p.Unfinished = true
	} else {
		p.EndUS = end.UnixMicro()
	}
	for _, c := range children {
		p.Children = append(p.Children, c.Payload())
	}
	return p
}

// Graft attaches a remote span subtree under s, rebasing its timestamps onto
// the local clock. sentAt/recvAt bracket the call that carried the payload:
// the clock offset is estimated Cristian-style by assuming the midpoint of
// the remote root span coincides with the midpoint of the local call
// interval. The grafted root is annotated remote=true and with the applied
// offset. No-op when s or p is nil, so unsampled and failed calls cost
// nothing and retried calls graft at most once (one payload per returned
// reply).
func (s *Span) Graft(p *SpanPayload, sentAt, recvAt time.Time) {
	if s == nil || p == nil {
		return
	}
	remoteStart := time.UnixMicro(p.StartUS)
	remoteEnd := remoteStart
	if p.EndUS > p.StartUS {
		remoteEnd = time.UnixMicro(p.EndUS)
	}
	remoteMid := remoteStart.Add(remoteEnd.Sub(remoteStart) / 2)
	localMid := sentAt.Add(recvAt.Sub(sentAt) / 2)
	offset := localMid.Sub(remoteMid)
	c := adoptPayload(s.tracer, p, offset)
	c.attrs = append(c.attrs,
		Attr{Key: "remote", Val: "true"},
		Attr{Key: "clock_offset_us", Val: fmt.Sprint(offset.Microseconds())})
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

// adoptPayload rebuilds a payload subtree as local spans shifted by offset.
// The rebuilt spans are fresh (unshared), so no locking is needed until the
// root is attached.
func adoptPayload(t *Tracer, p *SpanPayload, offset time.Duration) *Span {
	c := &Span{
		tracer: t,
		source: p.Source,
		name:   p.Name,
		id:     spanSeq.Add(1),
		start:  time.UnixMicro(p.StartUS).Add(offset),
	}
	c.attrs = append([]Attr(nil), p.Attrs...)
	if p.Unfinished {
		c.attrs = append(c.attrs, Attr{Key: "unfinished", Val: "true"})
		// Leave end zero: Duration falls back to the latest descendant end.
	} else {
		end := p.EndUS
		if end < p.StartUS {
			end = p.StartUS
		}
		c.end = time.UnixMicro(end).Add(offset)
	}
	for _, ch := range p.Children {
		c.children = append(c.children, adoptPayload(t, ch, offset))
	}
	return c
}
