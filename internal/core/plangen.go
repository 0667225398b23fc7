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
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"

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
	// UnionBindings lists bindings whose extent was assembled by unioning
	// several offers (input to the predicates analyser).
	UnionBindings []string
	// JoinSubsets lists the binding subsets joined locally (input to the
	// predicates analyser).
	JoinSubsets [][]string
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
	offers    []trading.Offer
	unions    []string
	joins     [][]string
}

func (a *assembly) response() float64 { return a.remoteMax + a.localCost }
func (a *assembly) work() float64     { return a.remoteSum + a.localCost }

// paid sums the asked prices of the assembly's offers; it breaks cost ties
// so the buyer never pays more for an equally fast plan.
func (a *assembly) paid() float64 {
	var p float64
	for _, o := range a.offers {
		p += o.Price
	}
	return p
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
	empty       *Candidate            // the whole answer, when the query provably has no rows
	pool        map[string]*offerInfo // seller, SQL and coverage -> the cheapest such offer received
	offers      []*offerInfo          // the pool, by OfferID
	groups      []*offerGroup         // by (mask, key)
	cover       coverScratch
}

// Generate builds candidate plans for sel from the offer pool. It returns
// candidates sorted by response time. See GenerateWithLatency for
// heterogeneous-network buyers.
func Generate(sel *sqlparse.Select, sch *catalog.Schema, model *cost.Model,
	mode PlanGenMode, keep int, offers []trading.Offer) ([]Candidate, error) {
	return GenerateWithLatency(sel, sch, model, mode, keep, offers, nil)
}

// GenerateWithLatency is Generate with a buyer-side latency correction: each
// offer's delivery estimate is increased by the round trip to its seller
// before plans are costed.
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
// binding that its selections leave relevant.
func newPlanGen(sel *sqlparse.Select, sch *catalog.Schema, model *cost.Model,
	mode PlanGenMode, keep int, peerLatency func(string) float64) (*planGen, error) {
	g := &planGen{sel: sel, sch: sch, model: model, mode: mode, keep: keep,
		peerLatency: peerLatency, q: qgraph.New(sel), pool: map[string]*offerInfo{}}
	if g.keep <= 0 {
		g.keep = idpKeep
	}
	g.hasAgg = sel.HasAggregates() || len(sel.GroupBy) > 0
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

// partsKey canonicalizes an offer's coverage for pool deduplication (the
// same SQL may be offered with different coverage, e.g. a partial and its
// subcontracted completion).
func partsKey(o trading.Offer) string {
	keys := make([]string, 0, len(o.Parts))
	for b, ps := range o.Parts {
		sorted := append([]string(nil), ps...)
		sort.Strings(sorted)
		keys = append(keys, b+"="+strings.Join(sorted, ","))
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// take receives one offer of the negotiation (B3). Of the offers a seller
// makes for the same SQL over the same coverage only the cheapest stands: a
// cheaper one displaces the pool's entry, any other is ignored.
func (g *planGen) take(o trading.Offer) {
	key := o.SellerID + "\x00" + o.SQL + "\x00" + partsKey(o)
	if prev := g.pool[key]; prev == nil || o.Price < prev.o.Price {
		if prev != nil {
			g.drop(prev)
		}
		g.pool[key] = g.put(o)
	}
}

// put adds o to the pool as a new entry.
func (g *planGen) put(o trading.Offer) *offerInfo {
	quoted := o.Props.TotalTime
	if g.peerLatency != nil {
		o.Props.TotalTime += 2 * g.peerLatency(o.SellerID)
	}
	info, key := g.decode(&o)
	info.quoted = quoted
	g.offers = insertByID(g.offers, info)
	if info.mask == 0 || info.whole {
		return info // not about this query, or bought alone: never combined
	}
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

// drop removes an entry from the pool.
func (g *planGen) drop(info *offerInfo) {
	gone := func(x *offerInfo) bool { return x == info }
	if grp := info.group; grp != nil {
		grp.offers = slices.DeleteFunc(grp.offers, gone)
		clear(grp.covers)
	}
	g.offers = slices.DeleteFunc(g.offers, gone)
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

// decode validates an offer against the query and computes its coverage and
// its group key: the offer's kind and schema signature, which offers must
// share to be unioned. One no plan can use comes back bare.
func (g *planGen) decode(o *trading.Offer) (*offerInfo, string) {
	info := &offerInfo{o: *o, partMask: make([]uint, len(g.bindings))}
	for _, b := range o.Bindings {
		idx, ok := g.q.Index(b)
		if !ok {
			return &offerInfo{o: *o}, "" // not about this query's relations
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
	var sig strings.Builder
	if o.PartialAgg {
		sig.WriteString("partial|")
	}
	for i, c := range o.Cols {
		info.schema[i] = expr.ColumnID{Table: c.Table, Name: c.Name}
		sig.WriteString(strings.ToLower(c.Table))
		sig.WriteByte('.')
		sig.WriteString(strings.ToLower(c.Name))
		sig.WriteByte('|')
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
			return &offerInfo{o: *o}, ""
		}
		info.partialAgg = true
		return info, sig.String()
	}
	aggregated := g.hasAgg && !o.Stripped
	info.whole = coversAll && o.Complete && aggregated
	if g.hasAgg && !o.Stripped && !info.whole {
		// An aggregated partial answer cannot be recombined safely.
		return &offerInfo{o: *o}, ""
	}
	if !g.hasAgg && coversAll && o.Complete {
		info.whole = true
	}
	return info, sig.String()
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
		Join:      func(a, b uint, l, r *assembly) *assembly { return g.join(l, r, g.q.Connecting(a, b)) },
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
	sort.SliceStable(out, func(i, j int) bool { return out[i].ResponseTime < out[j].ResponseTime })
	if len(out) == 0 {
		return nil, fmt.Errorf("core: no candidate plan can be built from %d offers", len(g.offers))
	}
	return out, nil
}

// prune keeps the best assemblies per subset: 1 for DP and greedy, keep for
// 2-way subsets in IDP before the global IDP cut.
func (g *planGen) prune(mask uint, cands []*assembly) []*assembly {
	sort.SliceStable(cands, func(i, j int) bool {
		ri, rj := cands[i].response(), cands[j].response()
		if ri != rj {
			return ri < rj
		}
		if wi, wj := cands[i].work(), cands[j].work(); wi != wj {
			return wi < wj
		}
		return cands[i].paid() < cands[j].paid()
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
		offers:    []trading.Offer{info.o},
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

// maxCoverAtoms caps the exact-cover table at 2^20 states (40 MiB); a group
// that splits a binding's partitions more finely gets no union assembly.
const maxCoverAtoms = 20

// coverState is the best known way to cover one set of atoms.
type coverState struct {
	max, sum float64
	rows     int64
	bytes    float64
	link     int32 // last offer of the chain; 0 = not reached (or nothing to cover)
}

// coverLink is one offer of a chain; chains share their tails.
type coverLink struct{ offer, prev int32 }

// coverScratch holds exactCover's buffers, reused by every call of one
// negotiation.
type coverScratch struct {
	usable []*offerInfo
	atoms  []uint // partition mask of each atom
	table  []coverState
	links  []coverLink
}

// exactCover finds a low-cost set of offers whose partition masks for binding
// b are disjoint and jointly cover all relevant partitions, minimizing the
// response metric (max remote time, then sum). group must be in OfferID
// order; only its offers that are full in every other binding take part.
//
// Partitions contained in exactly the same offers are merged into atoms, and
// the search is a subset DP over one flat table indexed by covered-atom mask.
// Offers are applied in order and an entry is replaced only by a strictly
// better one, so ties go to the chain found first.
func (g *planGen) exactCover(b int, group []*offerInfo) *assembly {
	target := g.fullMask[b]
	sc := &g.cover
	sc.usable = sc.usable[:0]
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
	sc.atoms = append(sc.atoms[:0], target)
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
	if cap(sc.table) < size {
		sc.table = make([]coverState, size)
	}
	table := sc.table[:size]
	clear(table)
	links := append(sc.links[:0], coverLink{})
	for i, info := range sc.usable {
		var am int
		for j, atom := range sc.atoms {
			if atom&info.partMask[b] != 0 {
				am |= 1 << j
			}
		}
		t := info.o.Props.TotalTime
		// Every state disjoint from the offer, reached before this round
		// (states the round writes contain the offer, so are never read).
		free := (size - 1) &^ am
		for s := free; ; s = (s - 1) & free {
			from := &table[s]
			if s == 0 || from.link != 0 {
				cand := coverState{max: max(from.max, t), sum: from.sum + t,
					rows: from.rows + info.o.Props.Rows, bytes: from.bytes + info.o.Props.Bytes}
				to := &table[s|am]
				if to.link == 0 || cand.max < to.max || cand.max == to.max && cand.sum < to.sum {
					links = append(links, coverLink{offer: int32(i), prev: from.link})
					cand.link = int32(len(links) - 1)
					*to = cand
				}
			}
			if s == 0 {
				break
			}
		}
	}
	sc.links = links
	win := table[size-1]
	if win.link == 0 || links[win.link].prev == 0 {
		return nil // no cover, or one offer covers alone
	}
	n := 0
	for l := win.link; l != 0; l = links[l].prev {
		n++
	}
	inputs := make([]plan.Node, n)
	offers := make([]trading.Offer, n)
	for l := win.link; l != 0; l = links[l].prev {
		n--
		info := sc.usable[links[l].offer]
		inputs[n], offers[n] = info.remote(), info.o
	}
	return &assembly{
		node:      &plan.Union{Card: plan.Card{Est: win.rows}, Inputs: inputs},
		schema:    sc.usable[links[win.link].offer].schema,
		remoteMax: win.max,
		remoteSum: win.sum,
		rows:      win.rows,
		bytes:     win.bytes,
		offers:    offers,
		unions:    []string{g.bindings[b]},
	}
}

func (g *planGen) join(l, r *assembly, preds []expr.Expr) *assembly {
	// Offers do not ship per-column NDVs, so the estimate is the model's.
	outRows, joinCost := g.model.BuyerJoin(l.rows, r.rows, len(preds))
	left, right := l.node, r.node
	if l.rows < r.rows {
		left, right = r.node, l.node
	}
	lBind, rBind := g.bindingNames(l), g.bindingNames(r)
	return &assembly{
		node:      &plan.Join{Card: plan.Card{Est: outRows}, L: left, R: right, On: expr.And(preds)},
		schema:    append(append([]expr.ColumnID{}, l.schema...), r.schema...),
		remoteMax: math.Max(l.remoteMax, r.remoteMax),
		remoteSum: l.remoteSum + r.remoteSum,
		localCost: l.localCost + r.localCost + joinCost,
		rows:      outRows,
		bytes:     l.bytes + r.bytes,
		offers:    append(append([]trading.Offer{}, l.offers...), r.offers...),
		unions:    append(append([]string{}, l.unions...), r.unions...),
		joins:     append(append([][]string{}, append(l.joins, lBind)...), append(r.joins, rBind)...),
	}
}

func (g *planGen) bindingNames(a *assembly) []string {
	seen := map[string]bool{}
	var out []string
	for _, o := range a.offers {
		for _, b := range o.Bindings {
			lb := strings.ToLower(b)
			if !seen[lb] {
				seen[lb] = true
				out = append(out, lb)
			}
		}
	}
	sort.Strings(out)
	return out
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
			applicable = append(applicable, expr.Clone(c))
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
		Root:          root,
		ResponseTime:  a.remoteMax + local,
		TotalWork:     a.remoteSum + local,
		Rows:          rows,
		Offers:        a.offers,
		UnionBindings: dedupStrings(a.unions),
		JoinSubsets:   a.joins,
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
		local := 0.0
		if len(g.sel.OrderBy) > 0 {
			keys := make([]plan.SortKey, 0, len(g.sel.OrderBy))
			for _, ob := range g.sel.OrderBy {
				keys = append(keys, plan.SortKey{Expr: sortKeyForOutput(ob.Expr, info.schema), Desc: ob.Desc})
			}
			node = &plan.Sort{Input: node, Keys: keys}
			local += g.model.Sort(info.o.Props.Rows)
		}
		rows := info.o.Props.Rows
		if g.sel.Limit >= 0 {
			node = &plan.Limit{Input: node, N: g.sel.Limit}
			rows = min(rows, g.sel.Limit)
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
	return expr.Clone(e)
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

func dedupStrings(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
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
