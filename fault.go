package qtrade

import (
	"time"

	"qtrade/internal/netsim"
	"qtrade/internal/trading"
)

// Link names one directed sender→receiver network link.
type Link = netsim.Pair

// FaultPlan describes the chaos to inject into the simulated network (see
// netsim.FaultPlan for its fields).
type FaultPlan = netsim.FaultPlan

// ChaosStats counts the faults the installed plan has injected.
type ChaosStats = netsim.ChaosStats

// SetFaultPlan installs (or, with nil, removes) a chaos plan on the
// federation's network. Fault tallies restart from zero on every install;
// read them with ChaosStats or see them as "net.chaos.*" lines in
// MetricsSnapshot. Nodes crashed by CrashNode stay crashed either way.
func (f *Federation) SetFaultPlan(p *FaultPlan) { f.net.SetFaultPlan(p) }

// ChaosStats returns the fault tallies since the current plan was installed
// (all zero when no plan is active).
func (f *Federation) ChaosStats() ChaosStats { return f.net.ChaosStats() }

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
