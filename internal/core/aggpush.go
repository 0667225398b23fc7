package core

import (
	"sort"

	"qtrade/internal/plan"
)

// partialAggCandidates builds plans from partial-aggregate offers (aggregate
// pushdown): each offer delivers per-group totals of a disjoint fragment
// set; the buyer unions them and merges with combining aggregates. Only
// offers covering the query's full relation set qualify, and coverage must
// be exact along exactly one partitioned binding (the same rule as raw
// unions — disjointness is what makes SUM-of-SUMs sound).
func (g *planGen) partialAggCandidates() []Candidate {
	if !g.hasAgg {
		return nil
	}
	d, ok := plan.DecomposeAggregates(g.sel)
	if !ok {
		return nil
	}
	full := uint(1)<<len(g.bindings) - 1
	var assemblies []*assembly
	// Single offers covering everything.
	for _, info := range g.offers {
		if info.partialAgg && info.mask == full && info.short == 0 {
			assemblies = append(assemblies, info.direct())
		}
	}
	// Exact-coverage unions along one binding, per schema signature.
	assemblies = g.unionAssemblies(full, true, assemblies)

	var out []Candidate
	for _, a := range assemblies {
		root, err := d.BuildMergePlan(g.sel, a.node)
		if err != nil {
			continue
		}
		groups := a.rows/2 + 1
		if len(g.sel.GroupBy) == 0 {
			groups = 1
		}
		local := a.localCost + g.model.Aggregate(a.rows, groups)
		if len(g.sel.OrderBy) > 0 {
			local += g.model.Sort(groups)
		}
		noteSpine(root, a.node, groups)
		out = append(out, Candidate{
			Root:          root,
			ResponseTime:  a.remoteMax + local,
			TotalWork:     a.remoteSum + local,
			Rows:          groups,
			Offers:        a.offers,
			UnionBindings: dedupStrings(a.unions),
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].ResponseTime < out[j].ResponseTime })
	return out
}
