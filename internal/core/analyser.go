package core

import (
	"qtrade/internal/catalog"
	"qtrade/internal/localopt"
	"qtrade/internal/qgraph"
	"qtrade/internal/sqlparse"
)

// analyser is the buyer predicates analyser (§3.7) of one negotiation: it
// inspects the candidate execution plans of an iteration and derives
// additional queries worth asking for in the next one.
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
// Every such query is a function of the negotiation's one query: a relation
// subset, or a relation and one of its partitions. The iterations' candidates
// name the same few over and over, so each text is built the first time a
// candidate calls for it and kept for the iterations that follow.
type analyser struct {
	sel      *sqlparse.Select
	sch      *catalog.Schema
	g        *qgraph.Graph
	subquery func(bindings []string) *sqlparse.Select
	joins    map[uint]string // join subquery, by relation subset
	rels     []*restricted   // by FROM position; nil until a candidate unions the relation
}

// restricted is one relation's per-partition subqueries, in the order of the
// partitions its selections leave relevant.
type restricted struct {
	base  *sqlparse.Select     // the subquery over the relation alone
	parts []*catalog.Partition // the relevant partitions that have a predicate
	texts []string             // base narrowed to parts[k]; "" until called for
}

func newAnalyser(sel *sqlparse.Select, sch *catalog.Schema) *analyser {
	g := qgraph.New(sel)
	return &analyser{sel: sel, sch: sch, g: g, subquery: localopt.SubqueriesOf(sel, g),
		joins: map[uint]string{}, rels: make([]*restricted, len(sel.From))}
}

// next returns the queries the candidates call for that asked does not hold
// yet, in the order the candidates name them, marking them asked; at most
// maxNew, and the walk ends with the last of them.
func (a *analyser) next(cands []Candidate, asked map[string]bool, maxNew int) []string {
	if maxNew <= 0 {
		maxNew = maxNewQueries
	}
	var out []string
	add := func(sql string) {
		if !asked[sql] {
			asked[sql] = true
			out = append(out, sql)
		}
	}
	for _, c := range cands {
		for _, subset := range c.JoinSubsets {
			if len(out) >= maxNew {
				return out
			}
			if len(subset) < 2 || len(subset) >= len(a.sel.From) {
				continue // singles are implied; the full set is the query itself
			}
			mask := a.g.Mask(subset)
			sql, ok := a.joins[mask]
			if !ok {
				sql = a.subquery(subset).SQL()
				a.joins[mask] = sql
			}
			add(sql)
		}
	}
	for _, c := range cands {
		for _, b := range c.UnionBindings {
			i, ok := a.g.Index(b)
			if !ok {
				continue
			}
			r := a.restrictedTo(i)
			for k, p := range r.parts {
				if len(out) >= maxNew {
					return out
				}
				if r.texts[k] == "" {
					r.texts[k] = localopt.RestrictTo(r.base, a.sel.From[i].Binding(), p).SQL()
				}
				add(r.texts[k])
			}
		}
	}
	return out
}

// restrictedTo opens relation i's record: its base subquery and the
// partitions worth asking for one by one.
func (a *analyser) restrictedTo(i int) *restricted {
	if a.rels[i] == nil {
		tr := a.sel.From[i]
		r := &restricted{base: a.subquery([]string{tr.Binding()})}
		for _, pid := range a.g.Relevant(a.sch, i) {
			if p, ok := a.sch.Partition(tr.Name, pid); ok && p.Predicate != nil {
				r.parts = append(r.parts, p)
			}
		}
		r.texts = make([]string, len(r.parts))
		a.rels[i] = r
	}
	return a.rels[i]
}

// Analyse is one pass of a fresh analyser: the queries the candidates call
// for whose canonical SQL asked does not hold yet, at most maxNew of them.
func Analyse(sel *sqlparse.Select, sch *catalog.Schema, cands []Candidate, asked map[string]bool, maxNew int) []string {
	return newAnalyser(sel, sch).next(cands, asked, maxNew)
}
