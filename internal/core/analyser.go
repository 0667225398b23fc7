package core

import (
	"qtrade/internal/catalog"
	"qtrade/internal/localopt"
	"qtrade/internal/qgraph"
	"qtrade/internal/sqlparse"
)

// Analyse is the buyer predicates analyser (§3.7): it inspects the candidate
// execution plans and derives additional queries worth asking for in the
// next iteration of the trading loop.
//
// Two families of queries are generated:
//
//   - join subqueries: for every binding subset a candidate joined locally,
//     the corresponding subquery is added to Q so sellers can bid on the join
//     itself (a seller co-located with both sides evaluates it far cheaper
//     than the buyer can join two shipped answers);
//
//   - partition-restricted subqueries: for every binding whose extent a
//     candidate assembled by unioning several offers, one subquery per
//     relevant partition is added (the paper's redundancy-elimination
//     example: restricting overlapping offered extents so cheaper,
//     non-redundant offers can replace them).
//
// Queries whose canonical SQL was already asked are skipped; at most maxNew
// queries are returned.
func Analyse(sel *sqlparse.Select, sch *catalog.Schema, cands []Candidate, asked map[string]bool, maxNew int) []string {
	if maxNew <= 0 {
		maxNew = maxNewQueries
	}
	var out []string
	add := func(sub *sqlparse.Select) {
		if sub == nil || len(out) >= maxNew {
			return
		}
		sql := sub.SQL()
		if asked[sql] {
			return
		}
		asked[sql] = true
		out = append(out, sql)
	}

	g := qgraph.New(sel)
	subquery := localopt.SubqueriesOf(sel, g)
	for _, c := range cands {
		for _, subset := range c.JoinSubsets {
			if len(subset) < 2 || len(subset) >= len(sel.From) {
				continue // singles are implied; the full set is the query itself
			}
			add(subquery(subset))
		}
	}
	for _, c := range cands {
		for _, b := range c.UnionBindings {
			i, ok := g.Index(b)
			if !ok {
				continue
			}
			tr := sel.From[i]
			base := subquery([]string{tr.Binding()})
			for _, pid := range g.Relevant(sch, i) {
				p, ok := sch.Partition(tr.Name, pid)
				if !ok || p.Predicate == nil {
					continue
				}
				add(localopt.RestrictTo(base, tr.Binding(), p))
			}
		}
	}
	return out
}
