package core

import (
	"qtrade/internal/plan"
	"qtrade/internal/sqlparse"
	"qtrade/internal/trading"
)

// RestartRFBSeq restarts the process-wide RFB sequence, so a test outside the
// package that compares whole negotiations names their RFBs (and so orders
// their offers) the same whichever tests ran before it.
func RestartRFBSeq() { rfbSeq.Store(0) }

// PricedAnalysis builds cfg's plan generator over pool for sql and runs it,
// as an iteration that received pool does (B4), and returns that iteration's
// B5/B6: one priced pass of a fresh predicates analyser over the top three
// candidates against the best, reporting how many queries it asks and how
// many it prices. Each call sees the pool and its plans as the run left them.
func PricedAnalysis(cfg Config, sql string, pool []trading.Offer) (func() (asked, priced int), error) {
	cfg = cfg.withDefaults()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	if err := plan.Qualify(sel, cfg.Schema); err != nil {
		return nil, err
	}
	gen, err := newPlanGen(sel, cfg.Schema, cfg.Cost, cfg.Mode, idpKeep, cfg.PeerLatency)
	if err != nil {
		return nil, err
	}
	for _, o := range pool {
		gen.take(o)
	}
	cands, err := gen.run()
	if err != nil {
		return nil, err
	}
	table, best := gen.table, cands[0]
	return func() (int, int) {
		gen.table = table // the priced run replaces it
		out, priced := newAnalyser(sel, cfg.Schema).next(gen, cands[:min(3, len(cands))], &best, cfg.Weight,
			map[string]bool{sel.SQL(): true})
		return len(out), priced
	}, nil
}
