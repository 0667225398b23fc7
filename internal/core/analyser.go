package core

import (
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"qtrade/internal/catalog"
	"qtrade/internal/cost"
	"qtrade/internal/localopt"
	"qtrade/internal/qgraph"
	"qtrade/internal/sqlparse"
	"qtrade/internal/trading"
)

// analyser is the buyer predicates analyser (§3.7, B5/B6) of one
// negotiation: it inspects the candidate execution plans of an iteration,
// derives the queries they call for, prices each one before it is asked, and
// asks only those the plan predicted from the prices buys.
//
// Two families of queries are derived:
//
//   - join subqueries: for every relation subset a candidate joined locally,
//     the corresponding subquery, so sellers can bid on the join itself (a
//     seller co-located with both sides evaluates it far cheaper than the
//     buyer can join two shipped answers);
//
//   - partition-restricted subqueries: for every relation whose extent a
//     candidate assembled by unioning several offers, one subquery per
//     relevant partition (the paper's redundancy-elimination example:
//     restricting overlapping offered extents so cheaper, non-redundant
//     offers can replace them).
//
// Every such query is a function of the negotiation's one query: a relation
// subset, or a relation and one of its partitions. The iterations' candidates
// name the same few over and over, so each is priced by that identity, its
// text built only when it is asked, and what was asked is kept for the
// iterations that follow.
type analyser struct {
	sel      *sqlparse.Select
	sch      *catalog.Schema
	g        *qgraph.Graph
	subquery func(mask uint) *sqlparse.Select
	byName   []int         // FROM positions in binding-name order, the order unioned relations are restricted in
	joins    map[uint]bool // join subqueries asked, by relation subset
	rels     []*restricted // by FROM position; nil until a candidate unions the relation
}

// restricted is one relation's per-partition subqueries, in the order of the
// partitions its selections leave relevant.
type restricted struct {
	base  *sqlparse.Select     // the subquery over the relation alone; nil until one is asked
	parts []*catalog.Partition // the relevant partitions that have a predicate
	asked []bool               // by parts index
}

// proposal is one query the candidates call for: the join subquery of the
// relation subset mask (rel -1), or relation rel narrowed to its k-th
// relevant partition.
type proposal struct {
	mask   uint
	rel, k int
}

func newAnalyser(sel *sqlparse.Select, sch *catalog.Schema) *analyser {
	g := qgraph.New(sel)
	byName := make([]int, len(sel.From))
	for i := range byName {
		byName[i] = i
	}
	name := func(i int) string { return strings.ToLower(sel.From[i].Binding()) }
	slices.SortStableFunc(byName, func(i, j int) int { return strings.Compare(name(i), name(j)) })
	return &analyser{sel: sel, sch: sch, g: g, subquery: localopt.Subqueries(sel, g, sch), byName: byName,
		joins: map[uint]bool{}, rels: make([]*restricted, len(sel.From))}
}

// propose lists the queries the candidates call for that the analyser has
// not asked, each once, in the order the candidates name them: join
// subqueries first, then partition restrictions.
func (a *analyser) propose(cands []Candidate) []proposal {
	var out []proposal
	seen := map[proposal]bool{}
	add := func(p proposal) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	n := len(a.sel.From)
	for _, c := range cands {
		for _, mask := range c.Joins {
			mask &= 1<<n - 1 // bits beyond the FROM list name no relation
			if k := bits.OnesCount(mask); k < 2 || k == n {
				continue // singles are implied; the full set is the query itself
			}
			if !a.joins[mask] {
				add(proposal{mask: mask, rel: -1})
			}
		}
	}
	for _, c := range cands {
		for _, i := range a.byName {
			if c.Unions&(1<<i) == 0 {
				continue
			}
			r := a.restrictedTo(i)
			for k := range r.parts {
				if !r.asked[k] {
					add(proposal{rel: i, k: k})
				}
			}
		}
	}
	return out
}

// ask prints proposal p's query and marks it asked by the analyser; the text
// is new when asked does not hold it yet, and is then marked there too.
func (a *analyser) ask(p proposal, asked map[string]bool) (sql string, isNew bool) {
	if p.rel < 0 {
		a.joins[p.mask] = true
		sql = a.subquery(p.mask).SQL()
	} else {
		r := a.rels[p.rel]
		r.asked[p.k] = true
		if r.base == nil {
			r.base = a.subquery(1 << p.rel)
		}
		sql = localopt.RestrictTo(r.base, a.sel.From[p.rel].Binding(), r.parts[p.k]).SQL()
	}
	if asked[sql] {
		return sql, false
	}
	asked[sql] = true
	return sql, true
}

// next is B5/B6: it prices every query the candidates call for that has not
// been asked with an offer predicted from gen's pool, runs the generator on
// the pool plus those predictions, and returns the queries the predicted best
// plan buys, marking them asked — none when that plan does not beat the
// standing best by value under w (a nil best is beaten by any plan). priced
// counts the queries proposed.
func (a *analyser) next(gen *planGen, cands []Candidate, best *Candidate, w cost.Weights, asked map[string]bool) (out []string, priced int) {
	props := a.propose(cands)
	held := holdings(gen)
	var preds []*offerInfo
	of := map[string]int{} // predicted offer id -> its proposal
	for k, p := range props {
		for _, info := range a.predict(gen, held, p) {
			info.o.OfferID = predictedID + strconv.Itoa(len(preds))
			of[info.o.OfferID] = k
			preds = append(preds, info)
		}
	}
	if len(preds) == 0 {
		return nil, len(props)
	}
	pcands, err := gen.try(preds)
	if err != nil || !beats(w, &pcands[0], best) {
		return nil, len(props)
	}
	used := make([]bool, len(props))
	for _, o := range pcands[0].Offers {
		if k, ok := of[o.OfferID]; ok {
			used[k] = true
		}
	}
	for k, p := range props {
		if !used[k] {
			continue
		}
		if sql, isNew := a.ask(p, asked); isNew {
			out = append(out, sql)
		}
	}
	return out, len(props)
}

// predictedID prefixes the id of every predicted offer. It sorts after every
// seller's ids, so a received offer wins every tie with a predicted one.
const predictedID = "~predicted-"

// predict prices proposal p from the pool, as decoded entries no seller
// offered: the caller gives them ids, and they carry no text, since none is
// ever asked for. A partition restriction is the entry it narrows — each pool
// entry of the relation alone that covers the partition among others — its
// time past the first row scaled by the share of that entry's partitions it
// keeps; the time to the first row and the buyer's latency correction are not
// scaled. The buyer holds no row counts, so the share is by partition count,
// and the rows are what the pool's offers of one partition of the relation
// carry (the most of them), or the share of the narrowed entry's where there
// are none. A join subquery is its subset's
// best standing assembly less the buyer's local join and the transfer of its
// inputs, the most a co-located seller could save, and never below the time
// to the first row of the offers it replaces; it is predicted only where a
// seller is co-located: one whose offers show it holding every relevant
// partition of all the subset's relations but one, and some of that one.
func (a *analyser) predict(gen *planGen, held map[string][]uint, p proposal) []*offerInfo {
	if p.rel < 0 {
		return predictJoin(gen, held, p.mask)
	}
	part := a.rels[p.rel].parts[p.k]
	bit, mask := gen.partBit[p.rel][part.ID], uint(1)<<p.rel
	single := int64(-1)
	for _, info := range gen.offers {
		if info.mask == mask && !info.partialAgg && bits.OnesCount(info.partMask[p.rel]) == 1 {
			single = max(single, info.o.Props.Rows)
		}
	}
	var out []*offerInfo
	for _, info := range gen.offers {
		if info.mask != mask || info.group == nil || info.partialAgg {
			continue
		}
		pm := info.partMask[p.rel]
		if pm&bit == 0 || bits.OnesCount(pm) < 2 {
			continue
		}
		share := 1 / float64(bits.OnesCount(pm))
		o := trading.Offer{SellerID: info.o.SellerID, Props: info.o.Props, Price: info.o.Price}
		quoted := o.Props.FirstRow + math.Max(info.quoted-o.Props.FirstRow, 0)*share
		o.Props.TotalTime += quoted - info.quoted // the latency correction stays
		rows := int64(math.Ceil(float64(o.Props.Rows) * share))
		if single >= 0 {
			rows = single
		}
		if o.Props.Rows > 0 {
			o.Props.Bytes *= float64(rows) / float64(o.Props.Rows)
		}
		o.Props.Rows = rows
		if info.quoted > 0 {
			o.Price *= quoted / info.quoted
		}
		partMask := make([]uint, len(gen.bindings))
		partMask[p.rel] = bit
		// Short of the partitions the narrowed entry had besides this one.
		out = append(out, &offerInfo{o: o, quoted: o.Props.TotalTime, mask: mask,
			partMask: partMask, short: mask, schema: info.schema})
	}
	return out
}

// predictJoin prices the join subquery of the relation subset mask (see
// predict). An aggregate query plans only from answers stripped of its
// aggregation, and a join subquery has none to strip, so none is predicted
// for one.
func predictJoin(gen *planGen, held map[string][]uint, mask uint) []*offerInfo {
	as := gen.table.At(mask)
	if gen.hasAgg || len(as) == 0 || as[0].localCost == 0 || !colocated(gen, held, mask) {
		return nil
	}
	best := as[0]
	floor := math.Inf(1)
	for _, info := range best.offers {
		floor = math.Min(floor, info.o.Props.FirstRow+info.o.Props.TotalTime-info.quoted)
	}
	var o trading.Offer
	o.Props.TotalTime = math.Max(best.remoteMax-gen.model.Transfer(best.bytes), floor)
	o.Props.FirstRow, o.Props.Rows, o.Props.Bytes = floor, best.rows, best.bytes
	o.Props.Freshness, o.Props.Completeness = 1, 1
	o.Price = o.Props.TotalTime
	partMask := make([]uint, len(gen.bindings))
	for i := range partMask {
		if mask&(1<<i) != 0 {
			partMask[i] = gen.fullMask[i]
		}
	}
	return []*offerInfo{{o: o, quoted: o.Props.TotalTime, mask: mask, partMask: partMask, schema: best.schema}}
}

// holdings is what the pool shows each seller to hold: by seller, by
// binding, the relevant partitions its offers cover.
func holdings(gen *planGen) map[string][]uint {
	held := map[string][]uint{}
	for _, info := range gen.offers {
		if info.mask == 0 {
			continue
		}
		h := held[info.o.SellerID]
		if h == nil {
			h = make([]uint, len(gen.bindings))
			held[info.o.SellerID] = h
		}
		for i, pm := range info.partMask {
			h[i] |= pm
		}
	}
	return held
}

// colocated reports whether some seller holds every relevant partition of
// all the relations of mask but one, and some of that one.
func colocated(gen *planGen, held map[string][]uint, mask uint) bool {
	for _, h := range held {
		partial := 0
		for i := range gen.bindings {
			switch {
			case mask&(1<<i) == 0 || h[i] == gen.fullMask[i]:
			case h[i] == 0:
				partial = 2
			default:
				partial++
			}
		}
		if partial <= 1 {
			return true
		}
	}
	return false
}

// restrictedTo opens relation i's record: the partitions worth asking for one
// by one.
func (a *analyser) restrictedTo(i int) *restricted {
	if a.rels[i] == nil {
		tr := a.sel.From[i]
		r := &restricted{}
		for _, pid := range a.g.Relevant(a.sch, i) {
			if p, ok := a.sch.Partition(tr.Name, pid); ok && p.Predicate != nil {
				r.parts = append(r.parts, p)
			}
		}
		r.asked = make([]bool, len(r.parts))
		a.rels[i] = r
	}
	return a.rels[i]
}

// Analyse is one pass of a fresh analyser before pricing: the queries the
// candidates call for whose canonical SQL asked does not hold yet, marked
// asked; at most maxNew of them when maxNew > 0.
func Analyse(sel *sqlparse.Select, sch *catalog.Schema, cands []Candidate, asked map[string]bool, maxNew int) []string {
	a := newAnalyser(sel, sch)
	var out []string
	for _, p := range a.propose(cands) {
		if maxNew > 0 && len(out) == maxNew {
			break
		}
		if sql, isNew := a.ask(p, asked); isNew {
			out = append(out, sql)
		}
	}
	return out
}
