package core

import (
	"fmt"
	"sync"

	"qtrade/internal/exec"
	"qtrade/internal/trading"
)

// trackingComm wraps a Comm and records which sellers failed to deliver a
// purchased answer, keeping the first error per seller so recovery can
// classify why (crash vs drain vs timeout) in its audit trail.
type trackingComm struct {
	inner Comm

	mu     sync.Mutex
	failed map[string]error
}

func (c *trackingComm) Peers() map[string]trading.Peer { return c.inner.Peers() }

func (c *trackingComm) Award(to string, aw trading.Award) error { return c.inner.Award(to, aw) }

func (c *trackingComm) Fetch(to string, req trading.ExecReq) (trading.ExecResp, error) {
	resp, err := c.inner.Fetch(to, req)
	if err != nil {
		c.mu.Lock()
		if c.failed[to] == nil {
			c.failed[to] = err
		}
		c.mu.Unlock()
	}
	return resp, err
}

// failedSet returns the failed sellers as the set shape substituteOffers
// consumes.
func (c *trackingComm) failedSet() map[string]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]bool, len(c.failed))
	for id := range c.failed {
		out[id] = true
	}
	return out
}

// reasonFor classifies the recorded failure of one seller.
func (c *trackingComm) reasonFor(id string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return trading.FailureReason(c.failed[id])
}

// guardedComm runs a Comm's exchanges under a FaultPolicy: Fetch gets the
// full breaker/timeout/retry guard (a hung or flaky seller cannot stall
// delivery unboundedly), Award the same as a plain guarded call.
type guardedComm struct {
	inner Comm
	pol   *trading.FaultPolicy
}

func (g guardedComm) Peers() map[string]trading.Peer { return g.inner.Peers() }

func (g guardedComm) Award(to string, aw trading.Award) error {
	return g.pol.Call(to, func() error { return g.inner.Award(to, aw) })
}

func (g guardedComm) Fetch(to string, req trading.ExecReq) (trading.ExecResp, error) {
	return trading.GuardCall(g.pol, to, func() (trading.ExecResp, error) { return g.inner.Fetch(to, req) })
}

// OptimizeAndExecute runs the full pipeline with execution-time recovery: if
// a purchased seller fails while delivering (crash between negotiation and
// execution — the autonomy hazard the paper's contracting extension targets),
// the buyer recovers and retries, up to maxRetries times. With cfg.Faults
// set, recovery first tries the cheap path — substituting an equivalent
// standing offer from the final pool into the winning plan (see
// substituteOffers) — and only re-optimizes with the failed sellers excluded
// when no substitute exists. It returns the rows, the final winning plan,
// and the number of recovery rounds used.
func OptimizeAndExecute(cfg Config, comm Comm, localExec *exec.Executor, sql string, maxRetries int) (*exec.Result, *Result, int, error) {
	if maxRetries < 0 {
		maxRetries = 0
	}
	excluded := map[string]bool{}
	for k, v := range cfg.ExcludeSellers {
		excluded[k] = v
	}
	fallbacks := cfg.Metrics.Counter("buyer." + cfg.ID + ".recovery_fallbacks")
	execComm := comm
	if cfg.Faults != nil {
		execComm = guardedComm{inner: comm, pol: cfg.Faults}
	}
	var lastErr error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		attemptCfg := cfg
		attemptCfg.ExcludeSellers = excluded
		res, err := Optimize(attemptCfg, comm, sql)
		if err != nil {
			return nil, nil, attempt, err
		}
		tc := &trackingComm{inner: execComm, failed: map[string]error{}}
		sp := cfg.Tracer.Start(cfg.ID, "execute")
		sp.Set("attempt", attempt)
		out, err := executeUnder(tc, localExec, res, sp)
		if err == nil {
			sp.End()
			return out, res, attempt, nil
		}
		// Graceful degradation: before paying for a re-optimization, fall
		// back to the next-best standing offers covering the failed
		// purchases. Each pass may expose another broken seller, so keep
		// substituting until the plan runs or the pool is out of equivalents.
		if cfg.Faults != nil {
			for err != nil && len(tc.failed) > 0 {
				// substituteOffers swaps a patched copy into the plan; the slice
				// read here still names who was replaced, for the audit trail.
				old := res.Candidate.Offers
				repl, ok := substituteOffers(res, tc.failedSet())
				if !ok {
					break
				}
				fallbacks.Add(int64(len(repl)))
				sp.Set("fallbacks", len(repl))
				for _, o := range old {
					nb, ok := repl[o.OfferID]
					if !ok {
						continue
					}
					res.LedgerRec.Recovery(o.SellerID, nb.SellerID, nb.OfferID, tc.reasonFor(o.SellerID))
					if nb.SellerID != cfg.ID {
						// Courtesy award to the substitute; failures are
						// tolerable (execution carries the purchased SQL).
						_ = execComm.Award(nb.SellerID, trading.Award{RFBID: nb.RFBID, OfferID: nb.OfferID, BuyerID: cfg.ID})
					}
				}
				out, err = executeUnder(tc, localExec, res, sp)
			}
			if err == nil {
				sp.End()
				return out, res, attempt, nil
			}
		}
		sp.Set("error", err)
		sp.End()
		lastErr = err
		if len(tc.failed) == 0 {
			// Not a delivery failure (e.g. a local execution bug): retrying
			// with the same plan cannot help.
			return nil, nil, attempt, err
		}
		for id, ferr := range tc.failed {
			excluded[id] = true
			// A drain rejection at fetch time is membership news, not a
			// fault: record it so the re-optimization's health gate skips
			// the peer instead of rediscovering the drain per call.
			if trading.FailureReason(ferr) == "drain" {
				cfg.Directory.MarkState(id, trading.StateDraining)
			}
		}
	}
	return nil, nil, maxRetries + 1, fmt.Errorf("core: recovery exhausted after %d retries: %w", maxRetries, lastErr)
}
