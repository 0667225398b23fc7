// Package core implements the paper's primary contribution: the query-trading
// (QT) optimizer. The buyer side runs the iterative algorithm of Figure 2
// (steps B1–B8): it requests bids for a set Q of queries, turns the received
// offers into distributed execution plans with the buyer plan generator
// (answering-queries-using-views over offers: DP, IDP-M(2,5) or greedy), has
// the buyer predicates analyser derive new queries worth asking for, and
// repeats until the plan stops improving. No data moves until the final plan
// is awarded and executed.
package core

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"

	"qtrade/internal/catalog"
	"qtrade/internal/cost"
	"qtrade/internal/expr"
	"qtrade/internal/joinorder"
	"qtrade/internal/plan"
	"qtrade/internal/qgraph"
	"qtrade/internal/sqlparse"
	"qtrade/internal/trading"
)

// PlanGenMode selects the buyer plan generator algorithm (§3.6).
type PlanGenMode string

// The three implemented generators: full dynamic programming, the
// IDP-M(2,5) variant the paper adopts from iterative dynamic programming,
// and a greedy left-deep generator for very large queries.
const (
	GenDP     PlanGenMode = "dp"
	GenIDP    PlanGenMode = "idp"
	GenGreedy PlanGenMode = "greedy"
)

// Candidate is one distributed execution plan built from offers plus local
// processing, with its estimated costs.
type Candidate struct {
	Root plan.Node
	// ResponseTime models parallel delivery: slowest remote answer plus
	// local processing. TotalWork sums all remote and local costs.
	ResponseTime float64
	TotalWork    float64
	Rows         int64
	Offers       []trading.Offer
	// Unions is the set of relations, by FROM position, whose extent was
	// assembled by unioning several offers; Joins lists the relation subsets
	// joined locally, each input of every join. Both are the predicates
	// analyser's input.
	Unions uint
	Joins  []uint
}

// assembly is a way to produce the full relevant extent of a binding subset.
type assembly struct {
	node      plan.Node
	schema    []expr.ColumnID
	remoteMax float64
	remoteSum float64
	localCost float64
	rows      int64
	bytes     float64
	offers    []*offerInfo
	unions    uint   // see Candidate.Unions
	joins     []uint // see Candidate.Joins
}

func (a *assembly) response() float64 { return a.remoteMax + a.localCost }
func (a *assembly) work() float64     { return a.remoteSum + a.localCost }

// paid sums the asked prices of the assembly's offers; it breaks cost ties
// so the buyer never pays more for an equally fast plan.
func (a *assembly) paid() float64 {
	var p float64
	for _, info := range a.offers {
		p += info.o.Price
	}
	return p
}

// offered lists the assembly's offers in the same order, as a Candidate
// carries them.
func (a *assembly) offered() []trading.Offer {
	if len(a.offers) == 0 {
		return nil
	}
	out := make([]trading.Offer, len(a.offers))
	for i, info := range a.offers {
		out[i] = info.o
	}
	return out
}

// offerInfo is a pool entry: an offer decoded against the buyer's query. One
// that does not decode still stands, counted and open to recovery's fallback,
// with no mask and no group, so no plan is built from it.
type offerInfo struct {
	o      trading.Offer
	quoted float64 // o.Props.TotalTime as received; o's own includes the buyer's round trip to the seller
	mask   uint    // bindings the offer answers
	// partMask is the bitmask of relevant partitions covered, by binding
	// index; short marks the offer's bindings it covers only in part.
	partMask   []uint
	short      uint
	schema     []expr.ColumnID
	whole      bool // complete aggregated (or view) answer to the full query
	partialAgg bool // per-fragment partial aggregates (merged, not unioned raw)
	dropped    bool // being taken out of the pool by drop
	group      *offerGroup
}

// offerGroup holds the offers that may be unioned with one another: same
// bindings, same output schema, same kind. Its exact covers are solved once
// per binding and kept until the group's membership changes.
type offerGroup struct {
	mask       uint
	partialAgg bool
	key        string       // kind and schema signature
	offers     []*offerInfo // by OfferID
	covers     []coverMemo  // by binding index
}

type coverMemo struct {
	solved bool
	a      *assembly
}

// planGen is the buyer plan generator of one negotiation and owns its offer
// pool. The query is analysed once; take receives every offer, put decodes
// and groups a pool entry once, and run builds the candidates of the current
// pool, reusing what earlier runs solved.
type planGen struct {
	sel         *sqlparse.Select
	sch         *catalog.Schema
	model       *cost.Model
	mode        PlanGenMode
	keep        int // IDP-M keep width
	peerLatency func(string) float64
	q           *qgraph.Graph // of sel
	bindings    []string
	partBit     []map[string]uint // by binding index: partition id -> bit
	fullMask    []uint            // by binding index: all relevant partitions
	hasAgg      bool
	empty       *Candidate                // the whole answer, when the query provably has no rows
	pool        map[poolKey][]*offerInfo  // seller and SQL -> the cheapest offer received per coverage
	offers      []*offerInfo              // the pool, by OfferID
	groups      []*offerGroup             // by (mask, key)
	table       joinorder.Plan[*assembly] // what the last run solved, by binding subset
}

// GenerateWithLatency builds candidate plans for sel from the offer pool,
// sorted by response time. peerLatency, when set, is the buyer-side latency
// correction of heterogeneous networks: each offer's delivery estimate is
// increased by the round trip to its seller before plans are costed.
func GenerateWithLatency(sel *sqlparse.Select, sch *catalog.Schema, model *cost.Model,
	mode PlanGenMode, keep int, offers []trading.Offer, peerLatency func(string) float64) ([]Candidate, error) {
	g, err := newPlanGen(sel, sch, model, mode, keep, peerLatency)
	if err != nil {
		return nil, err
	}
	for i := range offers {
		g.put(offers[i])
	}
	return g.run()
}

// newPlanGen analyses the query: its graph, and the partitions of each
// binding that its selections leave relevant. An empty mode is GenDP.
func newPlanGen(sel *sqlparse.Select, sch *catalog.Schema, model *cost.Model,
	mode PlanGenMode, keep int, peerLatency func(string) float64) (*planGen, error) {
	switch mode {
	case "":
		mode = GenDP
	case GenDP, GenIDP, GenGreedy:
	default:
		return nil, fmt.Errorf("core: unknown plan generator %q (want %q, %q or %q)", mode, GenDP, GenIDP, GenGreedy)
	}
	g := &planGen{sel: sel, sch: sch, model: model, mode: mode, keep: keep,
		peerLatency: peerLatency, q: qgraph.New(sel), pool: map[poolKey][]*offerInfo{}}
	if g.keep <= 0 {
		g.keep = idpKeep
	}
	g.hasAgg = sel.Aggregates()
	n := len(sel.From)
	if n == 0 {
		return nil, fmt.Errorf("core: query has no relations")
	}
	if n > 16 {
		return nil, fmt.Errorf("core: %d relations exceed plan generator limit", n)
	}
	for i, tr := range sel.From {
		g.bindings = append(g.bindings, strings.ToLower(tr.Binding()))
		bitsOf := map[string]uint{}
		var full uint
		for k, id := range g.q.Relevant(sch, i) {
			bitsOf[id] = 1 << k
			full |= 1 << k
		}
		g.partBit = append(g.partBit, bitsOf)
		g.fullMask = append(g.fullMask, full)
	}
	g.empty = g.emptyAnswer()
	return g, nil
}

// emptyAnswer is the plan of a query the graph proves empty before anything
// is asked: the query's own tail over no rows, with nothing to buy. Either a
// relation's selections prune every partition of it, or what no partition
// predicate was tested against folds to FALSE, as every seller's rewrite
// would find: the conjuncts naming no relation, and the selections of a
// relation with a fragment that has no predicate. Nil when rows may exist.
func (g *planGen) emptyAnswer() *Candidate {
	untested := g.q.Within(0)
	for i, tr := range g.sel.From {
		if slices.ContainsFunc(g.sch.Partitions(tr.Name), func(p *catalog.Partition) bool { return p.Predicate == nil }) {
			untested = append(untested, g.q.Local[i]...)
		}
	}
	if !slices.Contains(g.fullMask, 0) && !expr.IsFalse(expr.Simplify(expr.And(untested))) {
		return nil
	}
	var cols []expr.ColumnID
	for _, tr := range g.sel.From {
		def, ok := g.sch.Table(tr.Name)
		if !ok {
			return nil
		}
		cols = append(cols, def.ColumnIDs(tr.Binding())...)
	}
	c, err := g.finishAssembly(&assembly{node: &plan.Empty{Cols: cols}, schema: cols})
	if err != nil {
		return nil
	}
	return c
}

// poolKey is what pool entries that may stand for one another share: their
// seller and their SQL text.
type poolKey struct{ seller, sql string }

// sameCoverage reports whether two offers' Parts cover the same partitions
// of the same relations, whatever order their sellers listed them in.
func sameCoverage(a, b map[string][]string) bool {
	within := func(x, y []string) bool {
		return !slices.ContainsFunc(x, func(p string) bool { return !slices.Contains(y, p) })
	}
	return maps.EqualFunc(a, b, func(x, y []string) bool { return within(x, y) && within(y, x) })
}

// take receives one offer of the negotiation (B3). Of the offers a seller
// makes for the same SQL over the same coverage only the cheapest stands: a
// cheaper one displaces the pool's entry, any other is ignored.
func (g *planGen) take(o trading.Offer) {
	key := poolKey{o.SellerID, o.SQL}
	same := g.pool[key]
	i := slices.IndexFunc(same, func(e *offerInfo) bool { return sameCoverage(e.o.Parts, o.Parts) })
	switch {
	case i < 0:
		g.pool[key] = append(same, g.put(o))
	case o.Price < same[i].o.Price:
		g.drop(same[i])
		same[i] = g.put(o)
	}
}

// put decodes o and adds it to the pool as a new entry.
func (g *planGen) put(o trading.Offer) *offerInfo {
	quoted := o.Props.TotalTime
	if g.peerLatency != nil {
		o.Props.TotalTime += 2 * g.peerLatency(o.SellerID)
	}
	info := g.decode(&o)
	info.quoted = quoted
	return g.add(info)
}

// add adds a decoded entry to the pool and, unless it is bought alone or not
// about this query, to the group of the offers it may be unioned with: same
// relations, same kind and output schema.
func (g *planGen) add(info *offerInfo) *offerInfo {
	g.offers = insertByID(g.offers, info)
	if info.mask == 0 || info.whole {
		return info // not about this query, or bought alone: never combined
	}
	key := info.signature()
	i, found := slices.BinarySearchFunc(g.groups, info, func(grp *offerGroup, info *offerInfo) int {
		return cmp.Or(cmp.Compare(grp.mask, info.mask), strings.Compare(grp.key, key))
	})
	if !found {
		g.groups = slices.Insert(g.groups, i, &offerGroup{mask: info.mask, partialAgg: info.partialAgg,
			key: key, covers: make([]coverMemo, len(g.bindings))})
	}
	info.group = g.groups[i]
	info.group.offers = insertByID(info.group.offers, info)
	clear(info.group.covers)
	return info
}

// drop takes entries out of the pool, keeping every list's order: one pass
// over each group they were in (forgetting its covers), one over the groups
// when some are left empty, and one over the pool. The group pass unlinks
// each dropped entry it meets, so no group is passed over twice.
func (g *planGen) drop(infos ...*offerInfo) {
	for _, info := range infos {
		info.dropped = true
	}
	unlink := func(x *offerInfo) bool {
		if x.dropped {
			x.group = nil
		}
		return x.dropped
	}
	emptied := false
	for _, info := range infos {
		if grp := info.group; grp != nil {
			clear(grp.covers)
			grp.offers = slices.DeleteFunc(grp.offers, unlink)
			emptied = emptied || len(grp.offers) == 0
		}
	}
	if emptied {
		g.groups = slices.DeleteFunc(g.groups, func(grp *offerGroup) bool { return len(grp.offers) == 0 })
	}
	g.offers = slices.DeleteFunc(g.offers, func(x *offerInfo) bool { return x.dropped })
}

// try builds the candidates of the pool plus entries no seller offered — the
// predicates analyser's predictions, already corrected for latency — and
// leaves the pool as it was: none of them can be bought, standing or awarded.
func (g *planGen) try(predicted []*offerInfo) ([]Candidate, error) {
	for _, info := range predicted {
		g.add(info)
	}
	defer g.drop(predicted...)
	return g.run()
}

// standing lists the pool's offers as they were received, in OfferID order.
func (g *planGen) standing() []trading.Offer {
	out := make([]trading.Offer, len(g.offers))
	for i, info := range g.offers {
		out[i] = info.o
		out[i].Props.TotalTime = info.quoted
	}
	return out
}

// insertByID keeps list ordered by OfferID (equal ids in arrival order), so
// equal-cost ties break the same way whatever order the pool was fed in.
func insertByID(list []*offerInfo, info *offerInfo) []*offerInfo {
	i := sort.Search(len(list), func(i int) bool { return list[i].o.OfferID > info.o.OfferID })
	return slices.Insert(list, i, info)
}

// decode validates an offer against the query and computes its coverage.
// One no plan can use comes back bare.
func (g *planGen) decode(o *trading.Offer) *offerInfo {
	info := &offerInfo{o: *o, partMask: make([]uint, len(g.bindings))}
	for _, b := range o.Bindings {
		idx, ok := g.q.Index(b)
		if !ok {
			return &offerInfo{o: *o} // not about this query's relations
		}
		info.mask |= 1 << idx
		var m uint
		for _, pid := range o.Parts[g.bindings[idx]] {
			m |= g.partBit[idx][pid] // irrelevant partitions contribute 0
		}
		info.partMask[idx] = m
		if m != g.fullMask[idx] { // never when no partition is relevant
			info.short |= 1 << idx
		}
	}
	info.schema = make([]expr.ColumnID, len(o.Cols))
	for i, c := range o.Cols {
		info.schema[i] = expr.ColumnID{Table: c.Table, Name: c.Name}
	}
	// whole-query candidacy is verified against the buyer's own relevant
	// partition sets — the seller's Complete flag was computed for the query
	// *it* rewrote, which may differ (e.g. offers answering
	// analyser-generated restricted queries).
	coversAll := info.mask == uint(1)<<len(g.bindings)-1 && info.short == 0
	if o.PartialAgg {
		// Partial aggregates are only meaningful for this query if it
		// aggregates, and they combine exclusively with their own kind.
		if !g.hasAgg {
			return &offerInfo{o: *o}
		}
		info.partialAgg = true
		return info
	}
	aggregated := g.hasAgg && !o.Stripped
	info.whole = coversAll && o.Complete && aggregated
	if g.hasAgg && !o.Stripped && !info.whole {
		// An aggregated partial answer cannot be recombined safely.
		return &offerInfo{o: *o}
	}
	if !g.hasAgg && coversAll && o.Complete {
		info.whole = true
	}
	return info
}

// signature is the entry's group key: its kind and output schema, which
// offers must share to be unioned.
func (info *offerInfo) signature() string {
	var sig strings.Builder
	if info.partialAgg {
		sig.WriteString("partial|")
	}
	for _, c := range info.schema {
		sig.WriteString(strings.ToLower(c.Table))
		sig.WriteByte('.')
		sig.WriteString(strings.ToLower(c.Name))
		sig.WriteByte('|')
	}
	return sig.String()
}

// remote builds the Remote plan node of an offer.
func (info *offerInfo) remote() *plan.Remote {
	return &plan.Remote{
		NodeID:  info.o.SellerID,
		SQL:     info.o.SQL,
		Cols:    info.schema,
		EstRows: info.o.Props.Rows,
		EstCost: info.o.Props.TotalTime,
		OfferID: info.o.OfferID,
	}
}

// run builds the candidate plans of the current pool: a subset's entries are
// single offers, unions of offers, and joins of solved smaller subsets.
func (g *planGen) run() ([]Candidate, error) {
	if g.empty != nil {
		return []Candidate{*g.empty}, nil
	}
	n := len(g.bindings)
	dp := joinorder.Plan[*assembly]{
		N:        n,
		LeftDeep: g.mode == GenGreedy,
		Seeds: func(mask uint, out []*assembly) []*assembly {
			return g.unionAssemblies(mask, false, g.directAssemblies(mask, out))
		},
		Connected: g.q.Connected,
		Join:      g.join,
		Keep:      g.prune,
	}
	if g.mode == GenIDP {
		// IDP-M(2,k): only the k best 2-way subsets feed the larger ones.
		dp.Solve(1, 2)
		dp.CutPairs(g.keep, (*assembly).response)
		dp.Solve(3, n)
	} else {
		dp.Solve(1, n)
	}
	g.table = dp

	var out []Candidate
	for _, a := range dp.At(uint(1)<<n - 1) {
		c, err := g.finishAssembly(a)
		if err != nil {
			continue
		}
		out = append(out, *c)
	}
	out = append(out, g.wholePlanCandidates()...)
	out = append(out, g.partialAggCandidates()...)
	slices.SortStableFunc(out, byResponse)
	if len(out) == 0 {
		return nil, fmt.Errorf("core: no candidate plan can be built from %d offers", len(g.offers))
	}
	return out, nil
}

// byResponse orders candidates fastest first.
func byResponse(a, b Candidate) int { return cmp.Compare(a.ResponseTime, b.ResponseTime) }

// prune keeps the best assemblies per subset: 1 for DP and greedy, keep for
// 2-way subsets in IDP before the global IDP cut.
func (g *planGen) prune(mask uint, cands []*assembly) []*assembly {
	slices.SortStableFunc(cands, func(a, b *assembly) int {
		if c := cmp.Compare(a.response(), b.response()); c != 0 {
			return c
		}
		if c := cmp.Compare(a.work(), b.work()); c != 0 {
			return c
		}
		return cmp.Compare(a.paid(), b.paid())
	})
	width := 1
	if g.mode == GenIDP && bits.OnesCount(mask) == 2 {
		width = g.keep
	}
	return cands[:min(width, len(cands))]
}

// directAssemblies appends the single offers fully covering the subset, as
// assemblies.
func (g *planGen) directAssemblies(mask uint, out []*assembly) []*assembly {
	for _, info := range g.offers {
		if info.mask != mask || info.short != 0 || info.whole || info.partialAgg {
			continue
		}
		out = append(out, info.direct())
	}
	return out
}

// direct is the assembly that buys the offer alone.
func (info *offerInfo) direct() *assembly {
	return &assembly{
		node:      info.remote(),
		schema:    info.schema,
		remoteMax: info.o.Props.TotalTime,
		remoteSum: info.o.Props.TotalTime,
		rows:      info.o.Props.Rows,
		bytes:     info.o.Props.Bytes,
		offers:    []*offerInfo{info},
	}
}

// unionAssemblies assembles the subset by unioning offers that are full in
// every binding except one, along which their disjoint partition sets must
// exactly cover the relevant partitions. This is how the buyer reassembles a
// horizontally partitioned relation (or co-partitioned join) from several
// sellers; the assemblies are appended to out. A group's cover along a
// binding is solved once and kept until the group changes.
func (g *planGen) unionAssemblies(mask uint, partialAgg bool, out []*assembly) []*assembly {
	for b := range g.bindings {
		if mask&(1<<b) == 0 || bits.OnesCount(g.fullMask[b]) < 2 {
			continue // nothing to assemble along this binding
		}
		for _, grp := range g.groups {
			if grp.mask != mask || grp.partialAgg != partialAgg {
				continue
			}
			if m := &grp.covers[b]; !m.solved {
				*m = coverMemo{solved: true, a: g.exactCover(b, grp.offers)}
			}
			if a := grp.covers[b].a; a != nil {
				out = append(out, a)
			}
		}
	}
	return out
}

// maxCoverAtoms caps the exact-cover table at 2^20 states, 20 B each (20
// MiB); a group that splits a binding's partitions more finely gets no union
// assembly.
const maxCoverAtoms = 20

// maxPooledStates bounds the table a pooled scratch keeps: one grown past it
// is dropped after its call rather than held for the next.
const maxPooledStates = 1 << 16

// coverVal is the cost of the best known way to cover one set of atoms: the
// max and the sum of its offers' remote times.
type coverVal struct{ max, sum float64 }

// coverLink is one offer of a chain; chains share their tails.
type coverLink struct{ offer, prev int32 }

// coverScratch holds the buffers of one exactCover call. Calls take one from
// coverPool and return it with every table entry unreached again, so no two
// calls share one and no call clears a whole table.
type coverScratch struct {
	usable  []*offerInfo
	atoms   []uint     // partition mask of each atom
	ams     []uint32   // atom mask of each usable offer
	later   []uint32   // by usable offer: the union of the atom masks after it
	link    []int32    // by state: last link of its chain; 0 = not reached (or nothing to cover)
	val     []coverVal // by state; read only where reached (state 0, never written, costs nothing)
	reached []uint32   // reached states in the order first reached, 0 first
	links   []coverLink
}

var coverPool = sync.Pool{New: func() any { return new(coverScratch) }}

// release unmarks the states the call reached, lets go of its offers and
// pools the scratch unless its table outgrew maxPooledStates.
func (sc *coverScratch) release() {
	for _, s := range sc.reached {
		sc.link[s] = 0
	}
	clear(sc.usable)
	sc.usable, sc.atoms, sc.ams, sc.later = sc.usable[:0], sc.atoms[:0], sc.ams[:0], sc.later[:0]
	sc.reached, sc.links = sc.reached[:0], sc.links[:0]
	if len(sc.link) <= maxPooledStates {
		coverPool.Put(sc)
	}
}

// exactCover finds a low-cost set of offers whose partition masks for binding
// b are disjoint and jointly cover all relevant partitions, minimizing the
// response metric (max remote time, then sum). group must be in OfferID
// order; only its offers that are full in every other binding take part.
//
// Partitions contained in exactly the same offers are merged into atoms, and
// the search is a subset DP over a flat table indexed by covered-atom mask.
// Offers are applied in order, each extending only the states reached before
// its round; an entry is replaced only by a strictly better one, so ties go
// to the chain found first. Within a round every target s|am is written at
// most once and read from states without am only, so the order in which the
// round visits the reached states cannot change the table.
//
// A state lacking an atom that no offer from this round on holds cannot reach
// the full cover: the round drops it from the walk and unmarks it. This is
// exact: the full cover is written only from states that pass the test, and
// the offers to come only shrink, so a dropped state is never written again
// (what a kept state extends to passes too). Predicted offers sort last, so
// the cut is deepest on the analyser's covers.
func (g *planGen) exactCover(b int, group []*offerInfo) *assembly {
	target := g.fullMask[b]
	sc := coverPool.Get().(*coverScratch)
	defer sc.release()
	var covered uint
	for _, info := range group {
		pm := info.partMask[b]
		if pm == 0 || pm&^target != 0 || info.short&^(1<<b) != 0 {
			continue
		}
		sc.usable = append(sc.usable, info)
		covered |= pm
	}
	if len(sc.usable) < 2 || covered != target {
		return nil // a lone offer is directAssemblies' business; a gap has no cover
	}
	sc.atoms = append(sc.atoms, target)
	for _, info := range sc.usable {
		pm := info.partMask[b]
		for i, n := 0, len(sc.atoms); i < n; i++ {
			if in := sc.atoms[i] & pm; in != 0 && in != sc.atoms[i] {
				sc.atoms[i] &^= pm
				sc.atoms = append(sc.atoms, in)
			}
		}
	}
	if len(sc.atoms) > maxCoverAtoms {
		return nil
	}
	size := 1 << len(sc.atoms)
	if len(sc.link) < size {
		sc.link, sc.val = make([]int32, size), make([]coverVal, size)
	}
	sc.ams = append(sc.ams, make([]uint32, len(sc.usable))...)
	sc.later = append(sc.later, make([]uint32, len(sc.usable))...)
	for i, after := len(sc.usable)-1, uint32(0); i >= 0; i-- {
		for j, atom := range sc.atoms {
			if atom&sc.usable[i].partMask[b] != 0 {
				sc.ams[i] |= 1 << j
			}
		}
		sc.later[i], after = after, after|sc.ams[i]
	}
	full := uint32(size - 1)
	link, val := sc.link, sc.val
	reached := append(sc.reached, 0)
	links := append(sc.links, coverLink{})
	for i, am := range sc.ams {
		t, later := sc.usable[i].o.Props.TotalTime, sc.later[i]
		// Only the states reached before this round, less those that cannot
		// be completed; the states the round reaches contain am.
		n, kept := len(reached), 0
		for _, s := range reached[:n] {
			if full&^s&^(later|am) != 0 {
				link[s] = 0
				continue
			}
			reached[kept] = s
			kept++
			if s&am != 0 {
				continue
			}
			cand := coverVal{max: max(val[s].max, t), sum: val[s].sum + t}
			to := s | am
			if link[to] == 0 {
				reached = append(reached, to)
			} else if !(cand.max < val[to].max || cand.max == val[to].max && cand.sum < val[to].sum) {
				continue
			}
			links = append(links, coverLink{offer: int32(i), prev: link[s]})
			link[to], val[to] = int32(len(links)-1), cand
		}
		reached = append(reached[:kept], reached[n:]...)
	}
	sc.reached, sc.links = reached, links
	win := link[size-1]
	if win == 0 || links[win].prev == 0 {
		return nil // no cover, or one offer covers alone
	}
	n := 0
	for l := win; l != 0; l = links[l].prev {
		n++
	}
	offers := make([]*offerInfo, n)
	for l := win; l != 0; l = links[l].prev {
		n--
		offers[n] = sc.usable[links[l].offer]
	}
	// Rows and bytes summed first offer first, as the chain was built.
	inputs := make([]plan.Node, len(offers))
	var rows int64
	var bytes float64
	for i, info := range offers {
		inputs[i] = info.remote()
		rows += info.o.Props.Rows
		bytes += info.o.Props.Bytes
	}
	return &assembly{
		node:      &plan.Union{Card: plan.Card{Est: rows}, Inputs: inputs},
		schema:    offers[0].schema,
		remoteMax: val[size-1].max,
		remoteSum: val[size-1].sum,
		rows:      rows,
		bytes:     bytes,
		offers:    offers,
		unions:    1 << b,
	}
}

// join is the assembly that joins l, an assembly of relation subset a, with
// r, one of the disjoint subset b, at the buyer.
func (g *planGen) join(a, b uint, l, r *assembly) *assembly {
	preds := g.q.Connecting(a, b)
	// Offers do not ship per-column NDVs, so the estimate is the model's.
	outRows, joinCost := g.model.BuyerJoin(l.rows, r.rows, len(preds))
	left, right := l.node, r.node
	if l.rows < r.rows {
		left, right = r.node, l.node
	}
	return &assembly{
		node:      &plan.Join{Card: plan.Card{Est: outRows}, L: left, R: right, On: expr.And(preds)},
		schema:    append(append([]expr.ColumnID{}, l.schema...), r.schema...),
		remoteMax: math.Max(l.remoteMax, r.remoteMax),
		remoteSum: l.remoteSum + r.remoteSum,
		localCost: l.localCost + r.localCost + joinCost,
		rows:      outRows,
		bytes:     l.bytes + r.bytes,
		offers:    slices.Concat(l.offers, r.offers),
		unions:    l.unions | r.unions,
		joins:     slices.Concat(l.joins, []uint{a}, r.joins, []uint{b}),
	}
}

// finishAssembly applies the original query's full predicate as a safety
// compensation filter, then the aggregation/ordering phase, and prices the
// candidate.
func (g *planGen) finishAssembly(a *assembly) (*Candidate, error) {
	node := a.node
	// Re-apply the query conjuncts the assembly's schema can evaluate (the
	// sellers already applied them remotely; re-filtering is an idempotent
	// safety net). Conjuncts over columns the offers did not ship are
	// guaranteed by the offer SQL itself.
	var applicable []expr.Expr
	for _, c := range expr.Conjuncts(g.sel.Where) {
		if bindable(c, a.schema) {
			applicable = append(applicable, c)
		}
	}
	if pred := expr.And(applicable); pred != nil {
		node = &plan.Filter{Card: plan.Card{Est: a.rows}, Input: node, Pred: pred}
	}
	root, err := plan.FinalizeSelect(g.sel, node)
	if err != nil {
		return nil, err
	}
	local, rows := g.model.BuyerTail(a.localCost, a.rows, g.hasAgg, len(g.sel.OrderBy) > 0)
	noteSpine(root, node, rows)
	return &Candidate{
		Root:         root,
		ResponseTime: a.remoteMax + local,
		TotalWork:    a.remoteSum + local,
		Rows:         rows,
		Offers:       a.offered(),
		Unions:       a.unions,
		Joins:        a.joins,
	}, nil
}

// wholePlanCandidates turns complete (aggregated or view) whole-query offers
// into single-Remote candidates with local ordering applied.
func (g *planGen) wholePlanCandidates() []Candidate {
	var out []Candidate
	for _, info := range g.offers {
		if !info.whole {
			continue
		}
		var node plan.Node = info.remote()
		local, rows := 0.0, info.o.Props.Rows
		if len(g.sel.OrderBy) > 0 {
			local += g.model.Sort(rows)
		}
		if g.sel.Limit >= 0 {
			rows = min(rows, g.sel.Limit)
		}
		if !g.hasAgg && !listsSelect(g.sel, info.schema) {
			// Rows whose columns are not the select list (a column repeated,
			// or one the seller added for its WHERE): the query's own tail
			// projects them.
			root, err := plan.FinalizeSelect(g.sel, node)
			if err != nil {
				continue
			}
			node = root
		} else {
			if len(g.sel.OrderBy) > 0 {
				keys := make([]plan.SortKey, 0, len(g.sel.OrderBy))
				for _, ob := range g.sel.OrderBy {
					key := sortKeyForOutput(ob.Expr, info.schema)
					if expr.HasAgg(key) || !bindable(key, info.schema) {
						break // a key the offer's columns cannot express
					}
					keys = append(keys, plan.SortKey{Expr: key, Desc: ob.Desc})
				}
				if len(keys) < len(g.sel.OrderBy) {
					continue
				}
				node = &plan.Sort{Input: node, Keys: keys}
			}
			if g.sel.Limit >= 0 {
				node = &plan.Limit{Input: node, N: g.sel.Limit}
			}
		}
		noteSpine(node, nil, rows)
		out = append(out, Candidate{
			Root:         node,
			ResponseTime: info.o.Props.TotalTime + local,
			TotalWork:    info.o.Props.TotalTime + local,
			Rows:         info.o.Props.Rows,
			Offers:       []trading.Offer{info.o},
		})
	}
	return out
}

// listsSelect reports whether schema is what sel's select list outputs: a
// star, or per item either the plain column it names or an output the seller
// computed or renamed — base columns carry their binding, outputs do not.
func listsSelect(sel *sqlparse.Select, schema []expr.ColumnID) bool {
	if len(sel.Items) == 1 && sel.Items[0].Star {
		return true
	}
	if len(sel.Items) != len(schema) {
		return false
	}
	for i, it := range sel.Items {
		c, isCol := it.Expr.(*expr.Column)
		switch s := schema[i]; {
		case it.Star:
			return false
		case s.Table == "":
		case !isCol || !strings.EqualFold(c.Name, s.Name) || !strings.EqualFold(c.Table, s.Table):
			return false
		}
	}
	return true
}

// noteSpine stamps the final row estimate on the single-input operators
// wrapped around base (the aggregate/sort/limit/distinct spine built by
// FinalizeSelect), for EXPLAIN ANALYZE. Walking stops at base or at the
// first operator with several inputs.
func noteSpine(root, base plan.Node, rows int64) {
	for n := root; n != nil && n != base; {
		plan.SetEst(n, rows)
		ch := n.Children()
		if len(ch) != 1 {
			return
		}
		n = ch[0]
	}
}

// sortKeyForOutput maps an ORDER BY expression onto the remote output schema
// (aliases win over source columns).
func sortKeyForOutput(e expr.Expr, schema []expr.ColumnID) expr.Expr {
	if c, ok := e.(*expr.Column); ok {
		for _, s := range schema {
			if strings.EqualFold(c.Name, s.Name) {
				return expr.NewColumn(s.Table, s.Name)
			}
		}
	}
	return e
}

// bindable reports whether every column of e is available in the schema.
func bindable(e expr.Expr, schema []expr.ColumnID) bool {
	for _, c := range expr.Columns(e) {
		found := false
		for _, s := range schema {
			if !strings.EqualFold(c.Name, s.Name) {
				continue
			}
			if c.Table == "" || strings.EqualFold(c.Table, s.Table) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// EstimateValuation turns a candidate into the multidimensional valuation the
// buyer ranks with its weighting function. Money is the sum of the asked
// prices of the purchased offers, so commercial federations (Weights.Money
// > 0) trade execution speed against spend.
func EstimateValuation(c *Candidate) cost.Valuation {
	var paid float64
	minFresh := 1.0
	for _, o := range c.Offers {
		paid += o.Price
		if o.Props.Freshness > 0 && o.Props.Freshness < minFresh {
			minFresh = o.Props.Freshness
		}
	}
	return cost.Valuation{
		TotalTime: c.ResponseTime,
		Rows:      c.Rows,
		Freshness: minFresh,
		// The plan generator assembles exact coverage, so the answer is
		// complete even when individual offers were partial.
		Completeness: 1,
		Money:        paid,
	}
}

// ValueOf ranks a candidate under the federation weights; lower is better.
func ValueOf(w cost.Weights, c *Candidate) float64 {
	return w.Score(EstimateValuation(c))
}

// beats reports whether plan c is better than best by more than rounding;
// any plan beats no plan (a nil best).
func beats(w cost.Weights, c, best *Candidate) bool {
	return best == nil || ValueOf(w, c) < ValueOf(w, best)*(1-1e-9)
}
