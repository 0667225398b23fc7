package node

import (
	"testing"
	"time"

	"qtrade/internal/obs"
)

// gatedStrategy blocks every pricing call until released, signalling each
// RequestBids that reached the pricing stage (a node prices a one-query RFB
// through at most one in-flight Price call, so one signal arrives per
// admitted RFB).
type gatedStrategy struct {
	entered chan string
	gate    chan struct{}
}

func (s *gatedStrategy) Price(qid string, truth float64) float64 {
	select {
	case <-s.gate: // released: price freely
		return truth
	default:
	}
	s.entered <- qid
	<-s.gate
	return truth
}

func (s *gatedStrategy) Improve(_ string, current, _, _ float64) (float64, bool) {
	return current, false
}

func (s *gatedStrategy) Observe(string, bool) {}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionGateBoundsInflightRFBs pins the backpressure contract: with
// one admission slot a second buyer-originated RFB queues (visible in the
// rfbs_queued counter and rfb_queue_depth gauge) instead of pricing
// concurrently, while a Depth-1 subcontract probe bypasses the gate — the
// deadlock-freedom rule for mutually subcontracting nodes.
func TestAdmissionGateBoundsInflightRFBs(t *testing.T) {
	strat := &gatedStrategy{entered: make(chan string, 8), gate: make(chan struct{})}
	m := obs.NewMetrics()
	n := telcoNodeCfg(t, func(c *Config) {
		c.Metrics = m
		c.Strategy = strat
	})
	n.pool = make(chan struct{}, 4)
	n.admit = make(chan struct{}, 1)
	done := make(chan error, 3)
	send := func(rfbID string, depth int) {
		rfb := wideRFB(rfbID, 1)
		rfb.Depth = depth
		go func() {
			_, err := n.RequestBids(rfb)
			done <- err
		}()
	}

	send("rfb-adm-a", 0)
	<-strat.entered // A holds the only admission slot, stalled in pricing

	send("rfb-adm-b", 0)
	waitFor(t, "second RFB to queue", func() bool {
		return m.Counter("node.myconos.rfbs_queued").Value() == 1
	})
	if g := m.Gauge("node.myconos.rfb_queue_depth").Value(); g != 1 {
		t.Fatalf("rfb_queue_depth = %v, want 1", g)
	}
	select {
	case q := <-strat.entered:
		t.Fatalf("second Depth-0 RFB began pricing (%q) despite a full admission gate", q)
	default:
	}

	send("rfb-adm-c", 1)
	<-strat.entered // the subcontract probe prices while the gate is full

	close(strat.gate)
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if g := m.Gauge("node.myconos.rfb_queue_depth").Value(); g != 0 {
		t.Fatalf("rfb_queue_depth = %v after drain, want 0", g)
	}
	if g := m.Gauge("node.myconos.rfbs_inflight").Value(); g != 0 {
		t.Fatalf("rfbs_inflight = %v after drain, want 0", g)
	}
}
