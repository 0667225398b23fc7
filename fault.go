package qtrade

import (
	"time"

	"qtrade/internal/netsim"
	"qtrade/internal/trading"
)

// Link names one directed sender→receiver network link.
type Link struct {
	From string
	To   string
}

// FaultPlan describes the chaos to inject into the simulated network. Every
// decision is derived deterministically from Seed and the per-node call
// sequence, so a fixed plan over a fixed workload replays the same faults.
// The zero plan injects nothing; an installed zero plan leaves message and
// byte accounting byte-identical to a fault-free federation.
type FaultPlan struct {
	// Seed drives every probabilistic decision.
	Seed int64
	// DropProb is the probability a request is lost in transit on any link.
	// Lost requests are charged as one message and surface to the caller as
	// a transient (retryable) error.
	DropProb float64
	// LinkDropProb overrides DropProb for specific directed links.
	LinkDropProb map[Link]float64
	// ErrorProb is the probability a delivered request is answered with an
	// error reply instead of a result (transient).
	ErrorProb float64
	// JitterMS adds a uniform [0, JitterMS) wall-clock delay to every
	// delivered call.
	JitterMS float64
	// SlowNodeMS adds a fixed wall-clock delay to every call to the named
	// node — a permanently slow (straggling) seller.
	SlowNodeMS map[string]float64
	// FlapPeriod makes the named node intermittently unreachable: calls are
	// rejected while floor(seq/period) is odd, where seq counts the calls
	// addressed to that node.
	FlapPeriod map[string]int
	// CrashAfterAward permanently crashes the named node right after it
	// accepts its next Award — the seller dies between winning the
	// negotiation and delivering.
	CrashAfterAward map[string]bool
}

// SetFaultPlan installs (or, with nil, removes) a chaos plan on the
// federation's network. Fault tallies restart from zero on every install;
// read them with ChaosStats or see them as "net.chaos.*" lines in
// MetricsSnapshot.
func (f *Federation) SetFaultPlan(p *FaultPlan) {
	if p == nil {
		f.net.SetFaultPlan(nil)
		return
	}
	np := &netsim.FaultPlan{
		Seed:            p.Seed,
		DropProb:        p.DropProb,
		ErrorProb:       p.ErrorProb,
		JitterMS:        p.JitterMS,
		SlowNodeMS:      p.SlowNodeMS,
		FlapPeriod:      p.FlapPeriod,
		CrashAfterAward: p.CrashAfterAward,
	}
	if len(p.LinkDropProb) > 0 {
		np.LinkDropProb = make(map[netsim.Pair]float64, len(p.LinkDropProb))
		for l, prob := range p.LinkDropProb {
			np.LinkDropProb[netsim.Pair{From: l.From, To: l.To}] = prob
		}
	}
	f.net.SetFaultPlan(np)
}

// ChaosStats counts the faults the installed plan has injected.
type ChaosStats struct {
	Drops          int64 // requests lost in transit
	InjectedErrors int64 // error replies
	SlowCalls      int64 // calls delayed by SlowNodeMS or jitter
	FlapRejects    int64 // calls rejected by a flapping node
	Crashes        int64 // crash-after-award transitions
}

// ChaosStats returns the fault tallies since the current plan was installed
// (all zero when no plan is active).
func (f *Federation) ChaosStats() ChaosStats {
	s := f.net.ChaosStats()
	return ChaosStats{
		Drops:          s.Drops,
		InjectedErrors: s.InjectedErrors,
		SlowCalls:      s.SlowCalls,
		FlapRejects:    s.FlapRejects,
		Crashes:        s.Crashes,
	}
}

// FaultTolerance configures how the federation's buyers and subcontracting
// sellers defend against slow, flaky or dead peers.
type FaultTolerance struct {
	// CallTimeout bounds one peer call (0 = no timeout).
	CallTimeout time.Duration
	// RoundTimeout bounds one negotiation round's bid fan-out; peers that
	// have not answered by then are cut off as stragglers and the round
	// proceeds with the offers that arrived (0 = wait for all).
	RoundTimeout time.Duration
	// MaxRetries is how many times a transient failure (dropped message,
	// timeout, flapping node) is retried with exponential backoff (0 = no
	// retries).
	MaxRetries int
	// Backoff is the first retry's delay, doubling per retry (0 = 2ms).
	Backoff time.Duration
	// BreakerThreshold is the number of consecutive failures that opens a
	// peer's circuit breaker (0 = 5).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects calls before
	// half-open probes are allowed (0 = 500ms).
	BreakerCooldown time.Duration
}

// EnableFaultTolerance installs one shared fault policy across the
// federation: every buyer-side negotiation call and every seller-side
// subcontract call runs under the configured timeout, bounded retries, and a
// per-peer circuit breaker. The breakers are shared, so failures seen
// anywhere open the peer's one breaker. Policy counters ("fault.*") and
// per-peer breaker state gauges ("fault.breaker.<peer>") appear in
// MetricsSnapshot. It also unlocks graceful degradation in
// QueryWithRecovery: a delivery failure first falls back to an equivalent
// standing offer before paying for a re-optimization.
//
// Call it during setup, after adding nodes and before issuing queries. A
// zero FaultTolerance installs breakers with default settings but no
// timeouts; to remove the policy, create a new federation.
func (f *Federation) EnableFaultTolerance(ft FaultTolerance) {
	pol := &trading.FaultPolicy{
		CallTimeout:  ft.CallTimeout,
		RoundTimeout: ft.RoundTimeout,
		MaxRetries:   ft.MaxRetries,
		Backoff:      ft.Backoff,
		// The breakers live in the peer directory's records, so its health
		// gate skips a peer with an open breaker as early as a draining one,
		// and RemoveNode drops a peer's breaker with the rest of its record.
		Directory: f.dir,
		Breaker:   trading.BreakerConfig{Threshold: ft.BreakerThreshold, Cooldown: ft.BreakerCooldown},
		Metrics:   f.metrics,
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults = pol
	for _, n := range f.nodes {
		n.inner.SetFaultPolicy(pol)
	}
}
