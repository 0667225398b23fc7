// Chaos injection for the simulated network: a seeded, deterministic fault
// injector that perturbs every call crossing the bus. The paper's autonomy
// premise — sellers "may decline or die" mid-negotiation — is exercised by
// replaying realistic partial failures (drops, jitter, slow nodes, flaps,
// error replies, crash-after-award) under a fixed seed, so robustness
// experiments are reproducible. With no FaultPlan installed every code path
// below is skipped behind one atomic pointer load, keeping the fault-free
// network byte-identical to the unperturbed implementation.
package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"qtrade/internal/trading"
)

// FaultPlan describes the chaos to inject into the network. Every decision
// is derived deterministically from Seed and the per-node call sequence, so
// a fixed plan over a fixed workload replays the same faults. The zero plan
// injects nothing; an installed zero plan leaves message and byte accounting
// byte-identical to a fault-free network.
type FaultPlan struct {
	// Seed drives every probabilistic decision.
	Seed int64
	// DropProb is the probability a request is lost in transit on any link.
	// Lost requests are charged as one message and surface to the caller as
	// a transient (retryable) error.
	DropProb float64
	// LinkDropProb overrides DropProb for specific directed links.
	LinkDropProb map[Pair]float64
	// ErrorProb is the probability a delivered request is answered with an
	// error reply instead of a result (transient; charged request + error).
	ErrorProb float64
	// JitterMS adds a uniform [0, JitterMS) wall-clock delay to every
	// delivered call.
	JitterMS float64
	// SlowNodeMS adds a fixed wall-clock delay to every call to the named
	// node — a permanently slow (straggling) seller.
	SlowNodeMS map[string]float64
	// FlapPeriod makes the named node intermittently unreachable: calls are
	// rejected while floor(seq/period) is odd, where seq counts the calls
	// addressed to that node. Period 4 means: 4 calls served, 4 rejected, …
	FlapPeriod map[string]int
	// CrashAfterAward crashes the named node right after it accepts its
	// next Award — the seller dies between winning the negotiation and
	// delivering, the hazard execution-time recovery targets. It stays
	// crashed until RestartNode.
	CrashAfterAward map[string]bool
}

// ChaosStats counts the faults the installed plan has injected.
type ChaosStats struct {
	Drops          int64 // requests lost in transit
	InjectedErrors int64 // error replies
	SlowCalls      int64 // calls delayed by SlowNodeMS or jitter
	FlapRejects    int64 // calls rejected by a flapping node
	Crashes        int64 // awards accepted by a CrashAfterAward node, each crashing it
}

// chaosState is the live injector: the immutable plan plus mutable
// per-node/per-link sequence counters and fault tallies.
type chaosState struct {
	plan FaultPlan

	mu      sync.Mutex
	nodeSeq map[string]uint64

	drops       atomic.Int64
	errors      atomic.Int64
	slowCalls   atomic.Int64
	flapRejects atomic.Int64
	crashes     atomic.Int64
}

// SetFaultPlan installs (or, with nil, removes) the network's chaos plan.
// Counters restart from zero on every install. Crashed nodes stay crashed:
// the crash mark belongs to the network, not to the plan.
func (n *Network) SetFaultPlan(p *FaultPlan) {
	if p == nil {
		n.chaos.Store(nil)
		return
	}
	n.chaos.Store(&chaosState{plan: *p, nodeSeq: map[string]uint64{}})
}

// FaultPlanActive reports whether a chaos plan is installed.
func (n *Network) FaultPlanActive() bool { return n.chaos.Load() != nil }

// ChaosStats returns the fault tallies since the current plan was installed
// (all zero when no plan is active). A CrashNode is not a plan's fault and
// is not tallied.
func (n *Network) ChaosStats() ChaosStats {
	cs := n.chaos.Load()
	if cs == nil {
		return ChaosStats{}
	}
	return ChaosStats{
		Drops:          cs.drops.Load(),
		InjectedErrors: cs.errors.Load(),
		SlowCalls:      cs.slowCalls.Load(),
		FlapRejects:    cs.flapRejects.Load(),
		Crashes:        cs.crashes.Load(),
	}
}

// accountLost charges a request that crossed the wire but produced no
// response: one message on the from→to link (a down/crashed receiver or a
// dropped packet still consumed the sender's bandwidth and latency).
func (n *Network) accountLost(from, to string, reqBytes int) {
	n.messages.Add(1)
	n.bytes.Add(int64(reqBytes))
	atomicAddFloat(&n.simTimeMS, n.LatencyMS)
	n.pairAccount(Pair{From: from, To: to}, reqBytes)
}

// chaosBefore runs the injector for one call from→to carrying reqBytes.
// It returns a non-nil error when the call must fail (the request is then
// already charged as appropriate); on nil the call proceeds normally.
func (n *Network) chaosBefore(from, to string, reqBytes int) error {
	cs := n.chaos.Load()
	if cs == nil {
		return nil
	}
	cs.mu.Lock()
	seq := cs.nodeSeq[to]
	cs.nodeSeq[to] = seq + 1
	cs.mu.Unlock()

	// Intermittent flap: the node alternates served/rejected windows.
	if period := cs.plan.FlapPeriod[to]; period > 0 && (seq/uint64(period))%2 == 1 {
		cs.flapRejects.Add(1)
		n.accountLost(from, to, reqBytes)
		return trading.MarkTransient(fmt.Errorf("netsim: node %q flapping", to))
	}

	h := chaosHash(cs.plan.Seed, from, to, seq)

	// Request lost in transit.
	drop := cs.plan.DropProb
	if p, ok := cs.plan.LinkDropProb[Pair{From: from, To: to}]; ok {
		drop = p
	}
	if drop > 0 && unitFloat(splitmix64(h^0xd1b54a32d192ed03)) < drop {
		cs.drops.Add(1)
		n.accountLost(from, to, reqBytes)
		return trading.MarkTransient(fmt.Errorf("netsim: message %s->%s dropped", from, to))
	}

	// Delivery delays: a permanently slow receiver plus uniform jitter.
	delayMS := cs.plan.SlowNodeMS[to]
	if cs.plan.JitterMS > 0 {
		delayMS += cs.plan.JitterMS * unitFloat(splitmix64(h^0x94d049bb133111eb))
	}
	if delayMS > 0 {
		cs.slowCalls.Add(1)
		time.Sleep(time.Duration(delayMS * float64(time.Millisecond)))
	}

	// Error reply: the request arrived, the answer is a failure. Charged as
	// a full exchange with a minimal error response.
	if cs.plan.ErrorProb > 0 && unitFloat(splitmix64(h^0xbf58476d1ce4e5b9)) < cs.plan.ErrorProb {
		cs.errors.Add(1)
		n.account(from, to, reqBytes, 8)
		return trading.MarkTransient(fmt.Errorf("netsim: node %q replied with injected error", to))
	}
	return nil
}

// chaosAfterAward crashes the receiver if the plan marks it crash-after-award.
func (n *Network) chaosAfterAward(to string) {
	cs := n.chaos.Load()
	if cs == nil || !cs.plan.CrashAfterAward[to] {
		return
	}
	if n.CrashNode(to) {
		cs.crashes.Add(1)
	}
}

// chaosHash mixes the seed, both endpoints and the per-node call sequence
// into one 64-bit value; per-fault decisions re-mix it with distinct salts.
func chaosHash(seed int64, from, to string, seq uint64) uint64 {
	h := splitmix64(uint64(seed))
	h = splitmix64(h ^ hashString(from))
	h = splitmix64(h ^ hashString(to))
	return splitmix64(h ^ seq)
}

// hashString is FNV-1a, inlined to keep the hot path allocation-free.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-distributed mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unitFloat maps a 64-bit value to [0, 1).
func unitFloat(x uint64) float64 {
	return float64(x>>11) / float64(uint64(1)<<53)
}
