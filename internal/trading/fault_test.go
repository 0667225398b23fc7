package trading

import (
	"bytes"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qtrade/internal/obs"
)

func TestTransientClassification(t *testing.T) {
	base := errors.New("boom")
	if IsTransient(base) {
		t.Fatal("plain errors are not transient")
	}
	m := MarkTransient(base)
	if !IsTransient(m) {
		t.Fatal("marked error must be transient")
	}
	if !errors.Is(m, base) {
		t.Fatal("marking must preserve the chain")
	}
	wrapped := errors.Join(errors.New("ctx"), m)
	if !IsTransient(wrapped) {
		t.Fatal("transience must survive wrapping")
	}
	if MarkTransient(nil) != nil {
		t.Fatal("nil stays nil")
	}
}

// fakeClock is an adjustable clock for breaker cooldown tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestBreakerStateMachine(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewBreaker(BreakerConfig{Threshold: 3, Cooldown: time.Second, HalfOpenProbes: 2})
	b.now = clk.now

	for i := 0; i < 2; i++ {
		b.OnFailure()
	}
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("below threshold: %v", st)
	}
	b.OnSuccess() // success resets the consecutive-failure count
	for i := 0; i < 2; i++ {
		b.OnFailure()
	}
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("reset not applied: %v", st)
	}
	b.OnFailure()
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("at threshold: %v", st)
	}
	if b.Allow() {
		t.Fatal("open breaker must reject")
	}
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("cooldown elapsed: probes must be allowed")
	}
	if st := b.State(); st != BreakerHalfOpen {
		t.Fatalf("after cooldown: %v", st)
	}
	b.OnFailure() // failed probe reopens immediately
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("failed probe: %v", st)
	}
	clk.advance(time.Second)
	b.Allow()
	b.OnSuccess()
	if st := b.State(); st != BreakerHalfOpen {
		t.Fatalf("one of two probes: %v", st)
	}
	b.OnSuccess()
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("probes done: %v", st)
	}
}

func TestBreakerSetMetrics(t *testing.T) {
	m := obs.NewMetrics()
	set := NewBreakerSet(BreakerConfig{Threshold: 1, Cooldown: time.Hour}, m)
	b := set.For("n1")
	if set.For("n1") != b {
		t.Fatal("same peer must share one breaker")
	}
	b.OnFailure()
	if v := m.Gauge("fault.breaker.n1").Value(); v != float64(BreakerOpen) {
		t.Fatalf("gauge: %v", v)
	}
	if v := m.Counter("fault.breaker_opens").Value(); v != 1 {
		t.Fatalf("opens: %v", v)
	}
}

// flakyPeer fails its first n calls with a transient error, then succeeds.
type flakyPeer struct {
	fails int32
	calls atomic.Int32
}

func (p *flakyPeer) RequestBids(RFB) (BidReply, error) {
	if p.calls.Add(1) <= p.fails {
		return BidReply{}, MarkTransient(errors.New("flaky"))
	}
	return BidReply{Offers: []Offer{{OfferID: "f/1", SellerID: "f", Price: 1}}}, nil
}

func (p *flakyPeer) ImproveBids(ImproveReq) (BidReply, error) { return BidReply{}, nil }

func TestGuardRetriesTransientErrors(t *testing.T) {
	m := obs.NewMetrics()
	pol := &FaultPolicy{MaxRetries: 2, Backoff: time.Microsecond, Metrics: m}
	peer := &flakyPeer{fails: 2}
	rep, err := GuardCall(pol, "f", func() (BidReply, error) { return peer.RequestBids(RFB{}) })
	if err != nil || len(rep.Offers) != 1 {
		t.Fatalf("guarded call: %v %v", rep, err)
	}
	if got := m.Counter("fault.retries").Value(); got != 2 {
		t.Fatalf("retries: %d", got)
	}
}

func TestGuardDoesNotRetryHardErrors(t *testing.T) {
	pol := &FaultPolicy{MaxRetries: 3, Backoff: time.Microsecond}
	calls := 0
	err := pol.Call("x", func() error { calls++; return errors.New("hard") })
	if err == nil || calls != 1 {
		t.Fatalf("hard error retried: calls=%d err=%v", calls, err)
	}
}

func TestGuardCallTimeout(t *testing.T) {
	m := obs.NewMetrics()
	pol := &FaultPolicy{CallTimeout: 5 * time.Millisecond, Metrics: m}
	err := pol.Call("slow", func() error {
		time.Sleep(200 * time.Millisecond)
		return nil
	})
	if !errors.Is(err, ErrCallTimeout) || !IsTransient(err) {
		t.Fatalf("want transient ErrCallTimeout, got %v", err)
	}
	if got := m.Counter("fault.call_timeouts").Value(); got != 1 {
		t.Fatalf("timeouts: %d", got)
	}
}

func TestGuardBreakerOpensAndRejects(t *testing.T) {
	m := obs.NewMetrics()
	pol := &FaultPolicy{
		Breakers: NewBreakerSet(BreakerConfig{Threshold: 2, Cooldown: time.Hour}, m),
		Metrics:  m,
	}
	fail := func() error { return errors.New("down") }
	_ = pol.Call("n1", fail)
	_ = pol.Call("n1", fail)
	err := pol.Call("n1", fail)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("want ErrBreakerOpen, got %v", err)
	}
	if got := m.Counter("fault.breaker_rejects").Value(); got != 1 {
		t.Fatalf("rejects: %d", got)
	}
	// Other peers are unaffected.
	if err := pol.Call("n2", func() error { return nil }); err != nil {
		t.Fatalf("independent peer: %v", err)
	}
}

// stallPeer blocks until released.
type stallPeer struct{ release chan struct{} }

func (p *stallPeer) RequestBids(RFB) (BidReply, error) {
	<-p.release
	return BidReply{Offers: []Offer{{OfferID: "s/1", SellerID: "s", Price: 1}}}, nil
}

func (p *stallPeer) ImproveBids(ImproveReq) (BidReply, error) { return BidReply{}, nil }

func TestRoundDeadlineCutsStragglers(t *testing.T) {
	m := obs.NewMetrics()
	pol := &FaultPolicy{RoundTimeout: 10 * time.Millisecond, Metrics: m}
	stall := &stallPeer{release: make(chan struct{})}
	defer close(stall.release)
	peers := map[string]Peer{
		"fast":  &flakyPeer{},
		"stall": stall,
	}
	offers, rounds, err := SealedBid{}.Collect(RFB{RFBID: "r"}, Sellers{Peers: peers, Policy: pol}, nil)
	if err != nil || rounds != 1 {
		t.Fatalf("collect: %v %d", err, rounds)
	}
	if len(offers) != 1 || offers[0].SellerID != "f" {
		t.Fatalf("want the fast peer's offer only, got %v", offers)
	}
	if got := m.Counter("fault.stragglers").Value(); got != 1 {
		t.Fatalf("stragglers: %d", got)
	}
	if got := m.Counter("fault.rounds_deadline_cut").Value(); got != 1 {
		t.Fatalf("round cuts: %d", got)
	}
}

// TestStragglerSpanAnnotated pins the traced shape of a deadline-cut round:
// the straggler's pre-created span is annotated deadline_exceeded and, being
// still open when the trace is exported, renders as unfinished instead of
// with a bogus zero duration.
func TestStragglerSpanAnnotated(t *testing.T) {
	m := obs.NewMetrics()
	pol := &FaultPolicy{RoundTimeout: 10 * time.Millisecond, Metrics: m}
	stall := &stallPeer{release: make(chan struct{})}
	peers := map[string]Peer{
		"fast":  &flakyPeer{},
		"stall": stall,
	}
	tr := obs.NewTracer()
	round := tr.Start("buyer", "round")
	offers, _, err := SealedBid{}.Collect(RFB{RFBID: "r"}, Sellers{Peers: peers, Policy: pol}, round)
	round.End()
	if err != nil || len(offers) != 1 {
		t.Fatalf("collect: %v %v", offers, err)
	}

	// Collect opens one "round" child; the per-seller rfb spans live inside.
	rounds := round.Children()
	if len(rounds) != 1 || rounds[0].Name() != "round" {
		t.Fatalf("want one protocol round span, got %v", rounds)
	}
	spanByName := map[string]*obs.Span{}
	for _, c := range rounds[0].Children() {
		spanByName[c.Name()] = c
	}
	stallSpan, fastSpan := spanByName["rfb stall"], spanByName["rfb fast"]
	if stallSpan == nil || fastSpan == nil {
		t.Fatalf("per-seller spans missing: %v", spanByName)
	}
	attr := func(sp *obs.Span, key string) (string, bool) {
		for _, a := range sp.Attrs() {
			if a.Key == key {
				return a.Val, true
			}
		}
		return "", false
	}
	if v, ok := attr(stallSpan, "deadline_exceeded"); !ok || v != "true" {
		t.Fatalf("straggler span must be annotated deadline_exceeded: %v", stallSpan.Attrs())
	}
	if _, ok := attr(fastSpan, "deadline_exceeded"); ok {
		t.Fatal("fast seller must not be annotated deadline_exceeded")
	}
	if stallSpan.Ended() {
		t.Fatal("straggler span must still be open (its call never returned)")
	}
	// Export while the straggler is still blocked: tolerated, not zeroed.
	text := tr.RenderText()
	if !strings.Contains(text, "deadline_exceeded=true") || !strings.Contains(text, "unfinished=true") {
		t.Fatalf("rendered trace must show the cut straggler:\n%s", text)
	}
	var jsonl bytes.Buffer
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonl.String(), `"unfinished":true`) {
		t.Fatalf("JSONL must flag the open span:\n%s", jsonl.String())
	}
	close(stall.release) // let the goroutine finish
}

func TestNilPolicyIsUnguarded(t *testing.T) {
	var pol *FaultPolicy
	peer := &flakyPeer{}
	if _, err := GuardCall(pol, "x", func() (BidReply, error) { return peer.RequestBids(RFB{}) }); err != nil || peer.calls.Load() != 1 {
		t.Fatalf("nil policy must call the peer directly, once: %d calls, %v", peer.calls.Load(), err)
	}
	if err := pol.Call("x", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	// gather with a nil policy waits for every peer (no deadline).
	offers := fanOut(RFB{}, Sellers{Peers: map[string]Peer{"a": &flakyPeer{}}}, nil)
	if len(offers) != 1 {
		t.Fatalf("offers: %v", offers)
	}
}
