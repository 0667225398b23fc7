package core

import (
	"fmt"

	"qtrade/internal/exec"
	"qtrade/internal/trading"
)

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
	var lastErr error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		attemptCfg := cfg
		attemptCfg.ExcludeSellers = excluded
		res, err := Optimize(attemptCfg, comm, sql)
		if err != nil {
			return nil, nil, attempt, err
		}
		to := reach(comm, res) // one handle per attempt: it remembers who failed to deliver
		sp := cfg.Tracer.Start(cfg.ID, "execute")
		sp.Set("attempt", attempt)
		out, err := executeUnder(to, localExec, res, sp)
		if err == nil {
			sp.End()
			return out, res, attempt, nil
		}
		// Graceful degradation: before paying for a re-optimization, fall
		// back to the next-best standing offers covering the failed
		// purchases. Each pass may expose another broken seller, so keep
		// substituting until the plan runs or the pool is out of equivalents.
		if cfg.Faults != nil {
			for err != nil {
				// substituteOffers swaps a patched copy into the plan; the slice
				// read here still names who was replaced, for the audit trail.
				old, failed := res.Candidate.Offers, to.failures()
				repl, ok := substituteOffers(res, failed)
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
					res.LedgerRec.Recovery(o.SellerID, nb.SellerID, nb.OfferID, trading.FailureReason(failed[o.SellerID]))
					to.award(nb) // courtesy award to the substitute
				}
				out, err = executeUnder(to, localExec, res, sp)
			}
			if err == nil {
				sp.End()
				return out, res, attempt, nil
			}
		}
		sp.Set("error", err)
		sp.End()
		lastErr = err
		failed := to.failures()
		if len(failed) == 0 {
			// Not a delivery failure (e.g. a local execution bug): retrying
			// with the same plan cannot help.
			return nil, nil, attempt, err
		}
		for id := range failed {
			excluded[id] = true
		}
	}
	return nil, nil, maxRetries + 1, fmt.Errorf("core: recovery exhausted after %d retries: %w", maxRetries, lastErr)
}
