package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func attrVal(attrs []Attr, key string) (string, bool) {
	for _, a := range attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

func TestTraceContextWireSize(t *testing.T) {
	var zero TraceContext
	if zero.WireSize() != 0 {
		t.Fatalf("unsampled context must cost zero wire bytes, got %d", zero.WireSize())
	}
	// Parent alone (stamped but unsampled) still costs nothing.
	if (TraceContext{Parent: 42}).WireSize() != 0 {
		t.Fatal("unsampled context with parent must cost zero wire bytes")
	}
	c := TraceContext{TraceID: "hq-0001-0001", Sampled: true}
	if c.WireSize() != 9+len(c.TraceID) {
		t.Fatalf("sampled context wire size: %d", c.WireSize())
	}
}

func TestNewTraceIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewTraceID("hq")
		if !strings.HasPrefix(id, "hq-") {
			t.Fatalf("trace id missing prefix: %q", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %q", id)
		}
		seen[id] = true
	}
}

func TestPayloadSnapshot(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("seller", "request-bids")
	root.Set("rfb", "r1")
	c := root.Child("dp-pricing")
	c.Set("plans", 3)
	c.End()
	open := root.Child("stalled")
	_ = open // never ended
	root.End()

	p := root.Payload()
	if p.Name != "request-bids" || p.Source != "seller" {
		t.Fatalf("payload identity: %+v", p)
	}
	if p.Unfinished || p.EndUS < p.StartUS {
		t.Fatalf("ended span must carry its end: %+v", p)
	}
	if v, ok := attrVal(p.Attrs, "rfb"); !ok || v != "r1" {
		t.Fatalf("payload attrs: %+v", p.Attrs)
	}
	if len(p.Children) != 2 {
		t.Fatalf("children: %d", len(p.Children))
	}
	if !p.Children[1].Unfinished || p.Children[1].EndUS != 0 {
		t.Fatalf("open child must be unfinished: %+v", p.Children[1])
	}
	if p.WireSize() <= 0 {
		t.Fatal("payload wire size must be positive")
	}
	if (*SpanPayload)(nil).WireSize() != 0 {
		t.Fatal("nil payload must cost nothing")
	}
	if (*Span)(nil).Payload() != nil {
		t.Fatal("nil span payload must be nil")
	}
}

func TestGraftRebasesRemoteClock(t *testing.T) {
	// A remote span on a clock skewed ~1h into the future, shipped back on a
	// local call that took 40ms. Graft must land the subtree inside the local
	// call interval, not an hour away.
	skew := time.Hour
	recvAt := time.Now()
	sentAt := recvAt.Add(-40 * time.Millisecond)
	remoteStart := sentAt.Add(10 * time.Millisecond).Add(skew)
	p := &SpanPayload{
		Name: "request-bids", Source: "corfu",
		StartUS: remoteStart.UnixMicro(),
		EndUS:   remoteStart.Add(20 * time.Millisecond).UnixMicro(),
		Children: []*SpanPayload{{
			Name: "dp-pricing", Source: "corfu",
			StartUS: remoteStart.Add(5 * time.Millisecond).UnixMicro(),
			EndUS:   remoteStart.Add(15 * time.Millisecond).UnixMicro(),
		}},
	}

	tr := NewTracer()
	host := tr.Start("hq", "rfb corfu")
	host.Graft(p, sentAt, recvAt)
	host.End()

	kids := host.Children()
	if len(kids) != 1 {
		t.Fatalf("grafted children: %d", len(kids))
	}
	g := kids[0]
	if g.Name() != "request-bids" || g.Source() != "corfu" {
		t.Fatalf("grafted span identity: %s/%s", g.Source(), g.Name())
	}
	if v, ok := attrVal(g.Attrs(), "remote"); !ok || v != "true" {
		t.Fatalf("grafted span missing remote=true: %v", g.Attrs())
	}
	if _, ok := attrVal(g.Attrs(), "clock_offset_us"); !ok {
		t.Fatalf("grafted span missing clock_offset_us: %v", g.Attrs())
	}
	// The rebased midpoint must coincide with the local call midpoint, i.e.
	// fall well within [sentAt, recvAt] — nowhere near the skewed clock.
	start := g.start
	if start.Before(sentAt.Add(-time.Millisecond)) || start.After(recvAt.Add(time.Millisecond)) {
		t.Fatalf("rebased start %v outside local call [%v, %v]", start, sentAt, recvAt)
	}
	if g.Duration() != 20*time.Millisecond {
		t.Fatalf("graft must preserve remote durations: %v", g.Duration())
	}
	if len(g.Children()) != 1 || g.Children()[0].Duration() != 10*time.Millisecond {
		t.Fatalf("nested child must survive the graft: %v", g.Children())
	}
}

func TestGraftNilSafety(t *testing.T) {
	tr := NewTracer()
	host := tr.Start("hq", "rfb x")
	host.Graft(nil, time.Now(), time.Now()) // failed / unsampled call
	host.End()
	if len(host.Children()) != 0 {
		t.Fatal("nil payload must not graft")
	}
	var nilSpan *Span
	nilSpan.Graft(&SpanPayload{Name: "x"}, time.Now(), time.Now()) // must not panic
}

func TestGraftUnfinishedPayload(t *testing.T) {
	tr := NewTracer()
	host := tr.Start("hq", "rfb y")
	now := time.Now()
	host.Graft(&SpanPayload{
		Name: "request-bids", Source: "y",
		StartUS: now.UnixMicro(), Unfinished: true,
	}, now, now.Add(time.Millisecond))
	host.End()
	g := host.Children()[0]
	if v, ok := attrVal(g.Attrs(), "unfinished"); !ok || v != "true" {
		t.Fatalf("unfinished payload must be annotated: %v", g.Attrs())
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestSpanConcurrentHammer drives one span with concurrent Child/Set/End and
// concurrent exporters (WriteJSONL, WriteChromeTrace, Payload, RenderText) —
// the -race regression test for the tracing hot path.
func TestSpanConcurrentHammer(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("hq", "optimize")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := root.Child(fmt.Sprintf("w%d-%d", w, i))
				c.Set("i", i)
				c.Graft(&SpanPayload{Name: "remote", Source: "s", StartUS: 1, EndUS: 2},
					time.Now(), time.Now())
				if i%2 == 0 {
					c.End()
				}
			}
		}(w)
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var buf bytes.Buffer
				_ = tr.WriteJSONL(&buf)
				_ = tr.WriteChromeTrace(&buf)
				_ = root.Payload()
				_ = tr.RenderText()
			}
		}()
	}
	wg.Wait()
	root.End()
	if root.Payload() == nil {
		t.Fatal("payload after hammer")
	}
}
