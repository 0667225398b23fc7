package trading

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"qtrade/internal/obs"
)

// This file is the buyer-side fault-tolerance vocabulary: transient-error
// classification and the FaultPolicy that guards a seller call with a
// timeout, bounded retry-with-backoff, and a check of the peer's circuit
// breaker (kept in the peer's directory record, directory.go). The policy
// wraps nothing: whoever makes a call runs it under the policy (gather for
// RFB and improve rounds, GuardCall elsewhere), and callWithTimeout is the
// only timer on a seller call.
// Autonomy means sellers may be slow, flaky or gone; the policy turns each of
// those into a bounded, observable failure instead of a hung negotiation.
// Everything here is strictly opt-in: a nil *FaultPolicy reproduces the
// unguarded behaviour exactly.

// ErrCallTimeout marks a peer call that exceeded the policy's CallTimeout.
var ErrCallTimeout = errors.New("trading: call timed out")

// ErrBreakerOpen marks a call rejected because the peer's circuit breaker is
// open (the peer failed repeatedly and its cooldown has not elapsed).
var ErrBreakerOpen = errors.New("trading: circuit breaker open")

// ErrDraining marks a call rejected because the peer is draining out of the
// federation: it finishes in-flight work but accepts no new negotiations.
// Like an open breaker it is not worth retrying — the node will not change
// its mind within a negotiation round — but it is transient in the fleet
// sense: the peer is healthy and may return (or a replica can serve instead).
var ErrDraining = errors.New("trading: node draining")

// ErrPeerCrashed marks a peer that went down mid-negotiation (e.g. between
// an award and the execution fetch). The crash is transient from the buyer's
// perspective: an equivalent standing offer or a re-optimization can absorb
// it even though this peer is gone.
var ErrPeerCrashed = errors.New("trading: peer crashed")

// FailureReason classifies a failed peer call for recovery audit trails:
// "drain", "crash", "timeout", "breaker", or "error" for anything else.
// Typed sentinels are preferred; string sniffing keeps the classification
// working across net/rpc boundaries that flatten errors to text.
func FailureReason(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrDraining):
		return "drain"
	case errors.Is(err, ErrPeerCrashed):
		return "crash"
	case errors.Is(err, ErrCallTimeout):
		return "timeout"
	case errors.Is(err, ErrBreakerOpen):
		return "breaker"
	}
	switch msg := err.Error(); {
	case strings.Contains(msg, "draining"):
		return "drain"
	case strings.Contains(msg, "crashed"):
		return "crash"
	case strings.Contains(msg, "timed out"):
		return "timeout"
	default:
		return "error"
	}
}

// transientErr wraps an error that is worth retrying (dropped message,
// timeout, flapping node, crashed seller: a crash is recoverable at the
// federation level, by a restart, a standing offer or a replan). Hard
// failures — unknown nodes, malformed queries — stay non-transient so
// retries are not wasted on them.
type transientErr struct{ err error }

func (e *transientErr) Error() string   { return e.err.Error() }
func (e *transientErr) Unwrap() error   { return e.err }
func (e *transientErr) Transient() bool { return true }

// MarkTransient tags err as transient (retryable). Nil stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientErr{err: err}
}

// IsTransient reports whether err (or anything it wraps) is retryable.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// FaultPolicy bounds every guarded peer call: a per-call timeout, bounded
// retry-with-backoff for transient errors, a per-peer circuit breaker check,
// and a per-round deadline for the negotiation fan-out (stragglers are cut
// off and counted; the offers that arrived are used). The zero value guards
// nothing extra; a nil policy is valid everywhere and means "unguarded".
type FaultPolicy struct {
	// CallTimeout bounds one peer call (0 = no timeout).
	CallTimeout time.Duration
	// RoundTimeout bounds one negotiation round's fan-out; peers that have
	// not answered by then are stragglers (0 = wait for all).
	RoundTimeout time.Duration
	// MaxRetries is how many times a transient failure is retried (0 = no
	// retries).
	MaxRetries int
	// Backoff is the first retry's delay, doubling per retry (0 = 2ms).
	Backoff time.Duration
	// Directory, when set, is the table whose peer records hold the circuit
	// breakers that short-circuit calls to peers that keep failing (nil = no
	// breakers).
	Directory *Directory
	// Breaker sets the thresholds of the breakers the policy makes in
	// Directory (zero fields take the defaults).
	Breaker BreakerConfig
	// Metrics, when set, receives the policy counters: fault.call_timeouts,
	// fault.retries, fault.stragglers, fault.breaker_rejects,
	// fault.rounds_deadline_cut, fault.drain_rejects — and the breakers'
	// fault.breaker.<peer> gauges and fault.breaker_opens.
	Metrics *obs.Metrics

	once sync.Once
	inst faultInst
}

type faultInst struct {
	timeouts       *obs.Counter
	retries        *obs.Counter
	stragglers     *obs.Counter
	breakerRejects *obs.Counter
	roundCuts      *obs.Counter
	drainRejects   *obs.Counter
}

// obs resolves the policy's instruments once (all nil-safe).
func (p *FaultPolicy) obs() *faultInst {
	p.once.Do(func() {
		p.inst = faultInst{
			timeouts:       p.Metrics.Counter("fault.call_timeouts"),
			retries:        p.Metrics.Counter("fault.retries"),
			stragglers:     p.Metrics.Counter("fault.stragglers"),
			breakerRejects: p.Metrics.Counter("fault.breaker_rejects"),
			roundCuts:      p.Metrics.Counter("fault.rounds_deadline_cut"),
			drainRejects:   p.Metrics.Counter("fault.drain_rejects"),
		}
	})
	return &p.inst
}

// backoff returns the delay before retry attempt (attempt counts from 0).
func (p *FaultPolicy) backoff(attempt int) time.Duration {
	d := p.Backoff
	if d <= 0 {
		d = 2 * time.Millisecond
	}
	return d << uint(attempt)
}

// GuardCall runs one seller exchange under the policy: breaker check,
// per-call timeout, and bounded retry-with-backoff on transient errors. The
// result travels through the timeout's channel, so a timed-out call's late
// result is discarded safely. A nil policy runs fn directly.
func GuardCall[T any](p *FaultPolicy, id string, fn func() (T, error)) (T, error) {
	var zero T
	if p == nil {
		return fn()
	}
	br := p.Directory.breaker(id, p)
	var err error
	for attempt := 0; ; attempt++ {
		if !br.Allow() {
			p.obs().breakerRejects.Inc()
			return zero, fmt.Errorf("trading: peer %s: %w", id, ErrBreakerOpen)
		}
		var out T
		out, err = callWithTimeout(p, id, fn)
		if err == nil {
			br.OnSuccess()
			return out, nil
		}
		if FailureReason(err) == "drain" {
			// A draining peer answered deliberately: it is healthy, just
			// leaving. Retries cannot change its mind and the breaker must
			// not open (the node may undrain), so skip it immediately —
			// the same no-retry-burn shape as an open breaker. Classified
			// via FailureReason rather than errors.Is so drain rejects
			// flattened to text by net/rpc take the same short-circuit.
			p.obs().drainRejects.Inc()
			return zero, err
		}
		br.OnFailure()
		if attempt >= p.MaxRetries || !IsTransient(err) {
			return zero, err
		}
		p.obs().retries.Inc()
		time.Sleep(p.backoff(attempt))
	}
}

// callWithTimeout runs fn, bounding it by CallTimeout when set. A timed-out
// call's goroutine is abandoned (its late result is discarded through the
// buffered channel) and the timeout surfaces as a transient ErrCallTimeout.
func callWithTimeout[T any](p *FaultPolicy, id string, fn func() (T, error)) (T, error) {
	if p.CallTimeout <= 0 {
		return fn()
	}
	type reply struct {
		out T
		err error
	}
	ch := make(chan reply, 1)
	go func() {
		out, err := fn()
		ch <- reply{out, err}
	}()
	t := time.NewTimer(p.CallTimeout)
	defer t.Stop()
	select {
	case r := <-ch:
		return r.out, r.err
	case <-t.C:
		p.obs().timeouts.Inc()
		var zero T
		return zero, MarkTransient(fmt.Errorf("trading: peer %s: %w", id, ErrCallTimeout))
	}
}
