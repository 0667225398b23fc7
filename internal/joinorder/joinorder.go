// Package joinorder enumerates join orders: the one dynamic program over
// relation subsets that the seller's modified DP (localopt, §3.4), the buyer
// plan generator (core, §3.6: DP, IDP-M(2,k), greedy) and the centralized
// baseline (refs [2,4]) all run. A caller says what an entry of a subset is
// and how two entries join; the order subsets and splits are visited in —
// which decides every equal-cost tie — is fixed here and nowhere else.
package joinorder

import "math/bits"

// Plan is a dynamic program over the non-empty subsets of N relations, each
// subset the bitmask of its members. The zero table is empty; Solve fills it.
type Plan[E any] struct {
	N int
	// LeftDeep restricts joins to splits with a single relation on one side.
	LeftDeep bool
	// Seeds appends to out the entries of mask that are not a join of two of
	// its parts: a base relation, a purchased answer, a remote evaluation.
	Seeds func(mask uint, out []E) []E
	// Connected reports whether a join predicate links subsets a and b.
	Connected func(a, b uint) bool
	// Join joins entry l of subset a with entry r of subset b (a < b).
	Join func(a, b uint, l, r E) E
	// Keep picks the entries of mask that survive, from its candidates in the
	// order they were made: seeds, then joins in split order. It may reorder
	// cands; what it returns is copied.
	Keep func(mask uint, cands []E) []E

	table [][]E // by subset
}

// Subsets lists the subsets of n relations that have lo to hi members: fewer
// members first, then by value.
func Subsets(n, lo, hi int) []uint {
	var out []uint
	for size := max(lo, 1); size <= min(hi, n); size++ {
		// Gosper's hack: the next larger mask with as many bits set.
		for m := uint(1)<<size - 1; m < 1<<n; {
			out = append(out, m)
			low := m & -m
			up := m + low
			m = (up^m)>>2/low | up
		}
	}
	return out
}

// Solve fills the table for the subsets of lo to hi members, which must
// follow those already solved. A subset's candidates are its seeds, then one
// join per pair of entries for every split into two solved parts — each
// unordered split once, the part without the subset's highest relation
// descending — taking splits a predicate connects and, only when there is
// none, the others: a cross product is forced, never chosen.
func (p *Plan[E]) Solve(lo, hi int) {
	if p.table == nil {
		p.table = make([][]E, 1<<p.N)
	}
	var cands []E
	for _, mask := range Subsets(p.N, lo, hi) {
		cands = p.Seeds(mask, cands[:0])
		seeds := len(cands)
		if cands = p.joins(mask, cands, true); len(cands) == seeds {
			cands = p.joins(mask, cands, false)
		}
		p.table[mask] = append([]E(nil), p.Keep(mask, cands)...)
	}
}

func (p *Plan[E]) joins(mask uint, out []E, connected bool) []E {
	for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
		other := mask &^ sub
		if sub > other {
			continue
		}
		if p.LeftDeep && bits.OnesCount(sub) != 1 && bits.OnesCount(other) != 1 {
			continue
		}
		ls, rs := p.table[sub], p.table[other]
		if len(ls) == 0 || len(rs) == 0 || connected && !p.Connected(sub, other) {
			continue
		}
		for _, l := range ls {
			for _, r := range rs {
				out = append(out, p.Join(sub, other, l, r))
			}
		}
	}
	return out
}

// At returns the surviving entries of a subset, best first as Keep left them.
func (p *Plan[E]) At(mask uint) []E { return p.table[mask] }

// CutPairs is the IDP(2,k) cut: of the solved two-relation subsets only the k
// whose first entry costs least keep their entries, ties going to the earlier
// subset. Run it between Solve(1, 2) and Solve(3, N).
func (p *Plan[E]) CutPairs(k int, cost func(E) float64) {
	var pairs []uint
	for _, m := range Subsets(p.N, 2, 2) {
		if len(p.table[m]) > 0 {
			pairs = append(pairs, m)
		}
	}
	at := func(i int) float64 { return cost(p.table[pairs[i]][0]) }
	for i := 1; i < len(pairs); i++ { // insertion sort: stable, at most N²/2 pairs
		for j := i; j > 0 && at(j) < at(j-1); j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
		}
	}
	for i := k; i < len(pairs); i++ {
		p.table[pairs[i]] = nil
	}
}

// Cheapest is the Keep of a program with one entry per subset: the first of
// the candidates that cost least.
func Cheapest[E any](cands []E, cost func(E) float64) []E {
	best := -1
	for i := range cands {
		if best < 0 || cost(cands[i]) < cost(cands[best]) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	return cands[best : best+1]
}
