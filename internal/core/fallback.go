package core

import (
	"qtrade/internal/plan"
	"qtrade/internal/trading"
)

// substituteOffers implements the cheap half of graceful degradation: when a
// purchased seller fails at delivery, look for an equivalent standing offer
// in the final pool — same SQL, same partition coverage, from a seller not
// known to have failed (failed holds each one's first delivery error) — and
// splice the cheapest one into the winning plan in place, instead of paying
// for a full re-optimization. Returns the substitutions made (old OfferID →
// replacement) and whether every failed purchase could be covered; on false
// the plan is left unchanged.
func substituteOffers(res *Result, failed map[string]error) (map[string]trading.Offer, bool) {
	repl := map[string]trading.Offer{}
	patched := append([]trading.Offer(nil), res.Candidate.Offers...)
	for i, o := range patched {
		if failed[o.SellerID] == nil {
			continue
		}
		want := partsKey(o)
		var best *trading.Offer
		for j := range res.Pool {
			c := &res.Pool[j]
			if c.SellerID == o.SellerID || failed[c.SellerID] != nil {
				continue
			}
			if c.SQL != o.SQL || partsKey(*c) != want {
				continue
			}
			if best == nil || c.Price < best.Price ||
				(c.Price == best.Price && c.OfferID < best.OfferID) {
				best = c
			}
		}
		if best == nil {
			return nil, false // this purchase has no standing equivalent
		}
		repl[o.OfferID] = *best
		patched[i] = *best
	}
	if len(repl) == 0 {
		return nil, false // nothing to substitute (no purchase from a failed seller)
	}
	res.Candidate.Offers = patched
	for _, r := range plan.Remotes(res.Candidate.Root) {
		nb, ok := repl[r.OfferID]
		if !ok {
			continue
		}
		r.NodeID = nb.SellerID
		r.SQL = nb.SQL
		r.OfferID = nb.OfferID
		r.EstRows = nb.Props.Rows
		r.EstCost = nb.Props.TotalTime
	}
	return repl, true
}
