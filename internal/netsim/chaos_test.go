package netsim

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"qtrade/internal/trading"
)

// run fires count RequestBids from "buyer" to "a" and reports how many
// succeeded.
func run(n *Network, count int) int {
	p := n.Peer("buyer", "a")
	ok := 0
	for i := 0; i < count; i++ {
		if _, err := p.RequestBids(rfb()); err == nil {
			ok++
		}
	}
	return ok
}

func TestChaosDeterministicDrops(t *testing.T) {
	outcomes := func() []bool {
		n := New()
		n.Register("a", &echoService{id: "a"})
		n.SetFaultPlan(&FaultPlan{Seed: 42, DropProb: 0.5})
		p := n.Peer("buyer", "a")
		var out []bool
		for i := 0; i < 40; i++ {
			_, err := p.RequestBids(rfb())
			out = append(out, err == nil)
		}
		return out
	}
	a, b := outcomes(), outcomes()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, same call sequence must make the same decisions (call %d)", i)
		}
	}
	drops := 0
	for _, ok := range a {
		if !ok {
			drops++
		}
	}
	if drops < 8 || drops > 32 {
		t.Fatalf("50%% drop plan dropped %d/40", drops)
	}
}

func TestChaosDropsAreTransientAndCharged(t *testing.T) {
	n := New()
	n.Register("a", &echoService{id: "a"})
	n.SetFaultPlan(&FaultPlan{Seed: 7, DropProb: 1})
	req := rfb()
	_, err := n.Peer("buyer", "a").RequestBids(req)
	if err == nil || !trading.IsTransient(err) {
		t.Fatalf("a dropped message must be a transient error, got %v", err)
	}
	if m, b := n.Stats(); m != 1 || b != int64(req.WireSize()) {
		t.Fatalf("drop accounting: %d msgs %d bytes", m, b)
	}
	if st := n.ChaosStats(); st.Drops != 1 {
		t.Fatalf("chaos stats: %+v", st)
	}
}

func TestChaosInjectedErrors(t *testing.T) {
	n := New()
	n.Register("a", &echoService{id: "a"})
	n.SetFaultPlan(&FaultPlan{Seed: 7, ErrorProb: 1})
	_, err := n.Peer("buyer", "a").RequestBids(rfb())
	if err == nil || !trading.IsTransient(err) {
		t.Fatalf("injected errors must be transient, got %v", err)
	}
	// An error reply is a full round trip: request + minimal response.
	if m, _ := n.Stats(); m != 2 {
		t.Fatalf("error-reply accounting: %d msgs", m)
	}
	if st := n.ChaosStats(); st.InjectedErrors != 1 {
		t.Fatalf("chaos stats: %+v", st)
	}
}

func TestChaosLinkOverrideAndEmptyPlan(t *testing.T) {
	n := New()
	n.Register("a", &echoService{id: "a"})
	// Empty plan: no faults, traffic identical to a chaos-free network.
	n.SetFaultPlan(&FaultPlan{Seed: 1})
	if ok := run(n, 10); ok != 10 {
		t.Fatalf("empty plan must not fault: %d/10", ok)
	}
	if m, _ := n.Stats(); m != 20 {
		t.Fatalf("empty plan must not change accounting: %d msgs", m)
	}
	// Per-link override beats the global probability.
	n.SetFaultPlan(&FaultPlan{
		Seed:         1,
		DropProb:     1,
		LinkDropProb: map[Pair]float64{{From: "buyer", To: "a"}: 0},
	})
	if ok := run(n, 10); ok != 10 {
		t.Fatalf("overridden link must not drop: %d/10", ok)
	}
	n.SetFaultPlan(nil)
	if !errorsNil(run(n, 5), 5) {
		t.Fatal("cleared plan must stop injecting")
	}
	if n.FaultPlanActive() {
		t.Fatal("FaultPlanActive after clear")
	}
}

func errorsNil(got, want int) bool { return got == want }

func TestChaosSlowNode(t *testing.T) {
	n := New()
	n.Register("a", &echoService{id: "a"})
	n.SetFaultPlan(&FaultPlan{Seed: 1, SlowNodeMS: map[string]float64{"a": 20}})
	t0 := time.Now()
	if _, err := n.Peer("buyer", "a").RequestBids(rfb()); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < 15*time.Millisecond {
		t.Fatalf("slow node must really delay: %v", d)
	}
	if st := n.ChaosStats(); st.SlowCalls != 1 {
		t.Fatalf("chaos stats: %+v", st)
	}
}

func TestChaosFlap(t *testing.T) {
	n := New()
	n.Register("a", &echoService{id: "a"})
	n.SetFaultPlan(&FaultPlan{Seed: 1, FlapPeriod: map[string]int{"a": 3}})
	p := n.Peer("buyer", "a")
	var got []bool
	for i := 0; i < 12; i++ {
		_, err := p.RequestBids(rfb())
		got = append(got, err == nil)
		if err != nil && !trading.IsTransient(err) {
			t.Fatalf("flap rejection must be transient: %v", err)
		}
	}
	want := []bool{true, true, true, false, false, false, true, true, true, false, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("flap window mismatch at call %d: %v", i, got)
		}
	}
	if st := n.ChaosStats(); st.FlapRejects != 6 {
		t.Fatalf("chaos stats: %+v", st)
	}
}

func TestChaosCrashAfterAward(t *testing.T) {
	n := New()
	n.Register("a", &echoService{id: "a"})
	n.SetFaultPlan(&FaultPlan{Seed: 1, CrashAfterAward: map[string]bool{"a": true}})
	if ok := run(n, 2); ok != 2 {
		t.Fatal("node must serve before the award")
	}
	// The award itself succeeds — then the node dies.
	if err := n.Award("buyer", "a", trading.Award{RFBID: "r", OfferID: "o"}); err != nil {
		t.Fatalf("award: %v", err)
	}
	if _, err := n.Peer("buyer", "a").RequestBids(rfb()); err == nil {
		t.Fatal("crashed node must reject")
	} else if !trading.IsTransient(err) {
		// Transient at the federation level: a replica or a replan can
		// absorb the crash even though this node is gone for good.
		t.Fatalf("a crash must be transient (recoverable), got %v", err)
	} else if !errors.Is(err, trading.ErrPeerCrashed) {
		t.Fatalf("crash must be typed ErrPeerCrashed for recovery classification, got %v", err)
	} else if trading.FailureReason(err) != "crash" {
		t.Fatalf("crash must classify as \"crash\", got %q", trading.FailureReason(err))
	}
	if _, err := n.Execute("buyer", "a", trading.ExecReq{SQL: "SELECT 1"}); err == nil {
		t.Fatal("crashed node must fail execution fetches")
	}
	if st := n.ChaosStats(); st.Crashes != 1 {
		t.Fatalf("chaos stats: %+v", st)
	}
	// A second award accepted before the first one's crash landed kills
	// the same node: one crash, tallied once.
	n.chaosAfterAward("a")
	if st := n.ChaosStats(); st.Crashes != 1 {
		t.Fatalf("a node crashed twice over must tally one crash: %+v", st)
	}
}

func TestRuntimeCrashRestart(t *testing.T) {
	n := New()
	n.Register("a", &echoService{id: "a"})
	// No fault plan installed: the crash mark is the network's own.
	n.CrashNode("a")
	if _, err := n.Peer("buyer", "a").RequestBids(rfb()); err == nil {
		t.Fatal("crashed node must reject")
	} else if !errors.Is(err, trading.ErrPeerCrashed) || !trading.IsTransient(err) {
		t.Fatalf("want a transient typed crash error, got %v", err)
	}
	if n.FaultPlanActive() {
		t.Fatal("CrashNode must not install a fault plan")
	}
	// Installing and removing a plan leave the crash standing, and a
	// CrashNode is not a fault the plan injected.
	n.SetFaultPlan(&FaultPlan{Seed: 1})
	if _, err := n.Peer("buyer", "a").RequestBids(rfb()); !errors.Is(err, trading.ErrPeerCrashed) {
		t.Fatalf("a new plan revived a crashed node: %v", err)
	}
	if st := n.ChaosStats(); st.Crashes != 0 {
		t.Fatalf("chaos stats: %+v", st)
	}
	n.SetFaultPlan(nil)
	if _, err := n.Peer("buyer", "a").RequestBids(rfb()); !errors.Is(err, trading.ErrPeerCrashed) {
		t.Fatalf("removing the plan revived a crashed node: %v", err)
	}
	n.RestartNode("a")
	if _, err := n.Peer("buyer", "a").RequestBids(rfb()); err != nil {
		t.Fatalf("restarted node must serve again: %v", err)
	}
}

func TestUnregister(t *testing.T) {
	n := New()
	n.Register("a", &echoService{id: "a"})
	n.Register("b", &echoService{id: "b"})
	if got := len(n.Peers("a")); got != 1 {
		t.Fatalf("want 1 peer, got %d", got)
	}
	n.Unregister("b")
	if got := len(n.Peers("a")); got != 0 {
		t.Fatalf("unregistered node still in peer view: %d", got)
	}
	if _, err := n.Peer("a", "b").RequestBids(rfb()); err == nil {
		t.Fatal("calls to an unregistered node must fail")
	}
	// Re-registration under the same id starts reachable even if the node
	// crashed before it left.
	n.CrashNode("b")
	n.Unregister("b")
	n.Register("b", &echoService{id: "b"})
	if _, err := n.Peer("a", "b").RequestBids(rfb()); err != nil {
		t.Fatalf("re-registered node must serve: %v", err)
	}
	// A joiner staged crashed before it registers stays unreachable until
	// RestartNode, so no buyer reaches it while its data is loaded.
	n.CrashNode("c")
	n.Register("c", &echoService{id: "c"})
	if _, err := n.Peer("a", "c").RequestBids(rfb()); !errors.Is(err, trading.ErrPeerCrashed) {
		t.Fatalf("a joiner staged crashed must not serve: %v", err)
	}
	n.RestartNode("c")
	if _, err := n.Peer("a", "c").RequestBids(rfb()); err != nil {
		t.Fatalf("a restarted joiner must serve: %v", err)
	}
}

// TestRPCCallTimeout: an RPCPeer starts no timer of its own. A call to a
// blackholed server is bounded by the fault policy it runs under and fails
// as a transient ErrCallTimeout; a fast call under the same policy succeeds.
func TestRPCCallTimeout(t *testing.T) {
	hole, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close()
	go func() { // accept and read everything, answer nothing
		for {
			conn, err := hole.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, conn)
		}
	}()
	peer, err := DialPeerTimeout(hole.Addr().String(), "Node", 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	pol := &trading.FaultPolicy{CallTimeout: 20 * time.Millisecond}
	_, err = trading.GuardCall(pol, "Node", func() (trading.BidReply, error) { return peer.RequestBids(rfb()) })
	if !errors.Is(err, trading.ErrCallTimeout) || !trading.IsTransient(err) {
		t.Fatalf("want transient ErrCallTimeout, got %v", err)
	}
	ln, err := ServeRPC("127.0.0.1:0", "Node", &echoService{id: "fast"})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	fast, err := DialPeer(ln.Addr().String(), "Node")
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	if _, err := trading.GuardCall(pol, "Node", func() (trading.BidReply, error) { return fast.RequestBids(rfb()) }); err != nil {
		t.Fatalf("fast call: %v", err)
	}
}
