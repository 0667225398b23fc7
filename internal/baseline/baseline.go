// Package baseline implements the traditional distributed optimizers the
// paper compares against (refs [2,4]): a centralized two-phase System-R
// style optimizer with site selection, its iterative-dynamic-programming
// variant IDP(2,k), and naive data shipping. All three are deliberately
// given what autonomy forbids — direct access to every node's fragments and
// statistics — so they form a *best-case* baseline: the plans they produce
// assume perfect global knowledge that a real federation of autonomous
// nodes cannot provide.
package baseline

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"time"

	"qtrade/internal/catalog"
	"qtrade/internal/cost"
	"qtrade/internal/expr"
	"qtrade/internal/joinorder"
	"qtrade/internal/localopt"
	"qtrade/internal/node"
	"qtrade/internal/plan"
	"qtrade/internal/qgraph"
	"qtrade/internal/sqlparse"
	"qtrade/internal/stats"
	"qtrade/internal/trading"
)

// GlobalView is the omniscient catalog the centralized optimizer uses:
// placement and per-fragment statistics of every node.
type GlobalView struct {
	Schema *catalog.Schema
	Model  *cost.Model
	nodes  map[string]*node.Node
	place  *catalog.Placement
}

// NewGlobalView builds the view by inspecting every node's store directly
// (the autonomy violation is the point of the baseline).
func NewGlobalView(sch *catalog.Schema, model *cost.Model, nodes map[string]*node.Node) *GlobalView {
	if model == nil {
		model = cost.Default()
	}
	gv := &GlobalView{Schema: sch, Model: model, nodes: nodes, place: catalog.NewPlacement()}
	for id, n := range nodes {
		for _, table := range n.Store().Tables() {
			for _, pid := range n.Store().PartIDs(table) {
				gv.place.Assign(id, catalog.FragmentRef{Table: table, Part: pid})
			}
		}
	}
	return gv
}

// StatMessages reports the simulated cost of collecting fresh statistics
// from every node before optimizing (2 messages per node: request +
// response).
func (gv *GlobalView) StatMessages() int64 { return 2 * int64(len(gv.nodes)) }

// Holders returns the nodes holding a fragment replica, sorted.
func (gv *GlobalView) Holders(table, part string) []string {
	h := gv.place.Holders(catalog.FragmentRef{Table: table, Part: part})
	sort.Strings(h)
	return h
}

func (gv *GlobalView) fragStats(nodeID, table, part string) (*stats.TableStats, error) {
	n, ok := gv.nodes[nodeID]
	if !ok {
		return nil, fmt.Errorf("baseline: unknown node %q", nodeID)
	}
	return n.Store().FragmentStats(table, part)
}

// Plan is a baseline optimizer's output, executable through the same
// machinery as QT plans (Remote leaves fetched from their holders).
type Plan struct {
	Root         plan.Node
	ResponseTime float64
	TotalWork    float64
	Rows         int64
	OptTime      time.Duration
	StatMessages int64
	FetchCount   int
}

// rel captures one FROM relation resolved against the global view.
type rel struct {
	tr        sqlparse.TableRef
	def       *catalog.TableDef
	localPred expr.Expr
	relevant  []string
	// per partition: chosen holder, rows after localPred, bytes
	holder map[string]string
	rows   map[string]int64
	bytes  map[string]float64
	ndv    map[string]int64 // per column (lower) over the union
}

type siteEntry struct {
	execCost float64
	rows     int64
	bytes    float64
}

type buyerEntry struct {
	node      plan.Node
	remoteMax float64
	remoteSum float64
	localCost float64
	rows      int64
	bytes     float64
	fetches   int
}

func (e *buyerEntry) response() float64 { return e.remoteMax + e.localCost }

// optimizer is one centralized optimization run.
type optimizer struct {
	gv    *GlobalView
	buyer string
	sel   *sqlparse.Select
	g     *qgraph.Graph // of sel
	rels  []*rel
	keep  int // 0 = full DP; >0 = IDP(2, keep)
	// subquery is the text shipped for a relation subset.
	subquery func(mask uint) *sqlparse.Select
}

// Centralized runs the full-knowledge System-R style optimizer. keep=0 gives
// exhaustive DP; keep>0 gives the IDP(2, keep) variant of ref [2].
func Centralized(gv *GlobalView, buyerID, sql string, keep int) (*Plan, error) {
	start := time.Now()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	if err := plan.Qualify(sel, gv.Schema); err != nil {
		return nil, err
	}
	o := &optimizer{gv: gv, buyer: buyerID, sel: sel, keep: keep}
	if err := o.resolve(); err != nil {
		return nil, err
	}
	best, err := o.run()
	if err != nil {
		return nil, err
	}
	root, err := o.finish(best)
	if err != nil {
		return nil, err
	}
	localTail, rows := o.tailCost(best)
	return &Plan{
		Root:         root,
		ResponseTime: best.remoteMax + best.localCost + localTail,
		TotalWork:    best.remoteSum + best.localCost + localTail,
		Rows:         rows,
		OptTime:      time.Since(start),
		StatMessages: gv.StatMessages(),
		FetchCount:   best.fetches,
	}, nil
}

// DataShipping fetches every relevant fragment to the buyer and joins
// locally in a greedy order — the naive baseline.
func DataShipping(gv *GlobalView, buyerID, sql string) (*Plan, error) {
	start := time.Now()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	if err := plan.Qualify(sel, gv.Schema); err != nil {
		return nil, err
	}
	o := &optimizer{gv: gv, buyer: buyerID, sel: sel}
	if err := o.resolve(); err != nil {
		return nil, err
	}
	// Greedy left-deep: start from the smallest relation, repeatedly join
	// the connected relation with the fewest rows.
	entries := make([]*buyerEntry, len(o.rels))
	for i := range o.rels {
		entries[i] = o.leafAtBuyer(uint(1) << i)
	}
	remaining := map[int]bool{}
	for i := range o.rels {
		remaining[i] = true
	}
	pick := 0
	for i := range entries {
		if entries[i].rows < entries[pick].rows {
			pick = i
		}
	}
	cur := entries[pick]
	curMask := uint(1) << pick
	delete(remaining, pick)
	for len(remaining) > 0 {
		bestIdx := -1
		connected := false
		for i := range remaining {
			conn := o.g.Connected(curMask, 1<<i)
			if bestIdx < 0 || (conn && !connected) ||
				(conn == connected && entries[i].rows < entries[bestIdx].rows) {
				bestIdx, connected = i, conn
			}
		}
		cur = o.joinEntries(cur, entries[bestIdx], o.g.Connecting(curMask, 1<<bestIdx))
		curMask |= 1 << bestIdx
		delete(remaining, bestIdx)
	}
	root, err := o.finish(cur)
	if err != nil {
		return nil, err
	}
	localTail, rows := o.tailCost(cur)
	return &Plan{
		Root:         root,
		ResponseTime: cur.remoteMax + cur.localCost + localTail,
		TotalWork:    cur.remoteSum + cur.localCost + localTail,
		Rows:         rows,
		OptTime:      time.Since(start),
		FetchCount:   cur.fetches,
	}, nil
}

// resolve binds the query to the global view: relevant partitions, chosen
// replica holders, scaled statistics.
func (o *optimizer) resolve() error {
	if len(o.sel.From) == 0 {
		return fmt.Errorf("baseline: query has no FROM")
	}
	if len(o.sel.From) > 16 {
		return fmt.Errorf("baseline: too many relations")
	}
	o.g = qgraph.New(o.sel)
	o.subquery = localopt.Subqueries(o.sel, o.g, o.gv.Schema)
	for i, tr := range o.sel.From {
		def, ok := o.gv.Schema.Table(tr.Name)
		if !ok {
			return fmt.Errorf("baseline: unknown table %q", tr.Name)
		}
		r := &rel{tr: tr, def: def, localPred: o.g.LocalPred(i), relevant: o.g.Relevant(o.gv.Schema, i),
			holder: map[string]string{}, rows: map[string]int64{},
			bytes: map[string]float64{}, ndv: map[string]int64{}}
		o.rels = append(o.rels, r)
		for _, pid := range r.relevant {
			holders := o.gv.Holders(r.tr.Name, pid)
			if len(holders) == 0 {
				return fmt.Errorf("baseline: no node holds %s/%s", r.tr.Name, pid)
			}
			// Pick the replica with the fewest rows to scan (they are
			// identical; first holder is fine, but prefer the buyer's own
			// copy to avoid a transfer).
			holder := holders[0]
			for _, h := range holders {
				if h == o.buyer {
					holder = h
					break
				}
			}
			r.holder[pid] = holder
			fs, err := o.gv.fragStats(holder, r.tr.Name, pid)
			if err != nil {
				return err
			}
			sel := 1.0
			if r.localPred != nil {
				sel = stats.Selectivity(fs, expr.Unqualify(r.localPred))
			}
			r.rows[pid] = int64(math.Ceil(float64(fs.Rows) * sel))
			r.bytes[pid] = float64(r.rows[pid]) * math.Max(fs.RowBytes, 8)
			for cn, cs := range fs.Cols {
				if cs.NDV > r.ndv[cn] {
					r.ndv[cn] = cs.NDV
				}
			}
		}
	}
	return nil
}

func (o *optimizer) totalRows(r *rel) int64 {
	var t int64
	for _, pid := range r.relevant {
		t += r.rows[pid]
	}
	return t
}

func (o *optimizer) totalBytes(r *rel) float64 {
	var t float64
	for _, pid := range r.relevant {
		t += r.bytes[pid]
	}
	return t
}

// eligibleSites returns the non-buyer sites holding full relevant coverage
// of every relation in the subset (ship-nothing join sites).
func (o *optimizer) eligibleSites(mask uint) []string {
	var sites []string
	first := true
	for i, r := range o.rels {
		if mask&(1<<i) == 0 {
			continue
		}
		counts := map[string]int{}
		for _, pid := range r.relevant {
			for _, h := range o.gv.Holders(r.tr.Name, pid) {
				counts[h]++
			}
		}
		var full []string
		for h, c := range counts {
			if c == len(r.relevant) {
				full = append(full, h)
			}
		}
		sort.Strings(full)
		if first {
			sites = full
			first = false
			continue
		}
		sites = intersect(sites, full)
	}
	return sites
}

func intersect(a, b []string) []string {
	set := map[string]bool{}
	for _, x := range b {
		set[x] = true
	}
	var out []string
	for _, x := range a {
		if set[x] {
			out = append(out, x)
		}
	}
	return out
}

// siteEval estimates evaluating the whole subset locally at a site holding
// all data: scans plus hash joins in a greedy order.
func (o *optimizer) siteEval(mask uint) siteEntry {
	var cost float64
	var relIdx []int
	for i := range o.rels {
		if mask&(1<<i) != 0 {
			relIdx = append(relIdx, i)
			cost += o.gv.Model.Scan(o.totalRows(o.rels[i]))
		}
	}
	// Per-output-row width: sum of the involved relations' average widths.
	var rowBytes float64
	for _, i := range relIdx {
		if rr := o.totalRows(o.rels[i]); rr > 0 {
			rowBytes += o.totalBytes(o.rels[i]) / float64(rr)
		} else {
			rowBytes += 8
		}
	}
	rows := o.totalRows(o.rels[relIdx[0]])
	cur := uint(1) << relIdx[0]
	for _, i := range relIdx[1:] {
		r := o.rels[i]
		preds := o.g.Connecting(cur, 1<<i)
		rRows := o.totalRows(r)
		outRows := joinRows(rows, rRows, len(preds), o.joinNDV(cur, 1<<i, preds))
		build, probe := rows, rRows
		if build > probe {
			build, probe = probe, build
		}
		if len(preds) > 0 {
			cost += o.gv.Model.HashJoin(build, probe, outRows)
		} else {
			cost += o.gv.Model.NLJoin(rows, rRows, outRows)
		}
		rows = outRows
		cur |= 1 << i
	}
	return siteEntry{execCost: cost, rows: rows, bytes: float64(rows) * rowBytes}
}

func joinRows(l, r int64, npreds int, ndv int64) int64 {
	if npreds == 0 {
		return l * r
	}
	d := float64(ndv)
	if d < 1 {
		d = math.Max(float64(l), float64(r))
	}
	if d < 1 {
		d = 1
	}
	out := float64(l) * float64(r) / d * math.Pow(1.0/3.0, float64(npreds-1))
	if out < 1 {
		out = 1
	}
	return int64(math.Ceil(out))
}

// joinNDV finds the max NDV among join-key columns.
func (o *optimizer) joinNDV(a, b uint, preds []expr.Expr) int64 {
	var ndv int64
	for _, p := range preds {
		for _, col := range expr.Columns(p) {
			for i, r := range o.rels {
				if (a|b)&(1<<i) == 0 {
					continue
				}
				if col.Table != "" && !strings.EqualFold(col.Table, r.tr.Binding()) {
					continue
				}
				if n := r.ndv[strings.ToLower(col.Name)]; n > ndv {
					ndv = n
				}
			}
		}
	}
	return ndv
}

// leafAtBuyer assembles one relation at the buyer: per relevant partition, a
// local scan (buyer holds it) or a Remote fetch from the chosen holder.
func (o *optimizer) leafAtBuyer(mask uint) *buyerEntry {
	i := bits.TrailingZeros(mask)
	r := o.rels[i]
	sub := o.subquery(mask)
	e := &buyerEntry{}
	var inputs []plan.Node
	for _, pid := range r.relevant {
		holder := r.holder[pid]
		fetchSel := sub
		if part, _ := o.gv.Schema.Partition(r.tr.Name, pid); part != nil && part.Predicate != nil && len(r.relevant) > 1 {
			fetchSel = localopt.RestrictTo(sub, r.tr.Binding(), part)
		}
		if holder == o.buyer {
			scan := &plan.Scan{Def: r.def, Alias: r.tr.Binding(), PartID: pid, Pred: r.localPred}
			// Project to the subquery's columns for union compatibility.
			inputs = append(inputs, projectTo(scan, fetchSel))
			e.localCost += o.gv.Model.Scan(r.rows[pid])
		} else {
			cols, err := node.OutputSpecs(fetchSel, o.gv.Schema, nil)
			if err != nil {
				continue
			}
			fetchCost := o.gv.Model.Scan(r.rows[pid]) + o.gv.Model.Transfer(r.bytes[pid])
			inputs = append(inputs, &plan.Remote{
				NodeID: holder, SQL: fetchSel.SQL(), Cols: trading.ColumnIDs(cols),
				EstRows: r.rows[pid], EstCost: fetchCost,
			})
			e.remoteMax = math.Max(e.remoteMax, fetchCost)
			e.remoteSum += fetchCost
			e.fetches++
		}
		e.rows += r.rows[pid]
		e.bytes += r.bytes[pid]
	}
	switch len(inputs) {
	case 0:
		// Empty relation (all partitions pruned): scan of nothing.
		e.node = &plan.Union{Inputs: nil}
	case 1:
		e.node = inputs[0]
	default:
		e.node = &plan.Union{Inputs: inputs}
	}
	return e
}

// projectTo narrows a scan to the subquery's select list.
func projectTo(input plan.Node, sub *sqlparse.Select) plan.Node {
	var exprs []expr.Expr
	var names []expr.ColumnID
	for _, it := range sub.Items {
		exprs = append(exprs, it.Expr)
		if c, ok := it.Expr.(*expr.Column); ok {
			names = append(names, expr.ColumnID{Table: c.Table, Name: c.Name})
		} else {
			names = append(names, expr.ColumnID{Name: it.Alias})
		}
	}
	return &plan.Project{Input: input, Exprs: exprs, Names: names}
}

// remoteSubset turns a ship-nothing site evaluation into a Remote node.
func (o *optimizer) remoteSubset(mask uint, site string, se siteEntry) (*buyerEntry, error) {
	sub := o.subquery(mask)
	cols, err := node.OutputSpecs(sub, o.gv.Schema, nil)
	if err != nil {
		return nil, err
	}
	total := se.execCost + o.gv.Model.Transfer(se.bytes)
	return &buyerEntry{
		node:      &plan.Remote{NodeID: site, SQL: sub.SQL(), Cols: trading.ColumnIDs(cols), EstRows: se.rows, EstCost: total},
		remoteMax: total,
		remoteSum: total,
		rows:      se.rows,
		bytes:     se.bytes,
		fetches:   1,
	}, nil
}

func (o *optimizer) joinEntries(l, r *buyerEntry, preds []expr.Expr) *buyerEntry {
	outRows, jc := o.gv.Model.BuyerJoin(l.rows, r.rows, len(preds))
	left, right := l.node, r.node
	if l.rows < r.rows {
		left, right = r.node, l.node
	}
	return &buyerEntry{
		node:      &plan.Join{L: left, R: right, On: expr.And(preds)},
		remoteMax: math.Max(l.remoteMax, r.remoteMax),
		remoteSum: l.remoteSum + r.remoteSum,
		localCost: l.localCost + r.localCost + jc,
		rows:      outRows,
		bytes:     l.bytes + r.bytes,
		fetches:   l.fetches + r.fetches,
	}
}

// run is the site-aware DP over relation subsets; with keep > 0 only the keep
// best 2-way subsets feed the larger ones (IDP(2, keep)).
func (o *optimizer) run() (*buyerEntry, error) {
	n := len(o.rels)
	dp := joinorder.Plan[*buyerEntry]{
		N:         n,
		Seeds:     o.seeds,
		Connected: o.g.Connected,
		Join: func(a, b uint, l, r *buyerEntry) *buyerEntry {
			return o.joinEntries(l, r, o.g.Connecting(a, b))
		},
		Keep: func(_ uint, cands []*buyerEntry) []*buyerEntry {
			return joinorder.Cheapest(cands, (*buyerEntry).response)
		},
	}
	if o.keep > 0 {
		dp.Solve(1, 2)
		dp.CutPairs(o.keep, (*buyerEntry).response)
		dp.Solve(3, n)
	} else {
		dp.Solve(1, n)
	}
	best := dp.At(uint(1)<<n - 1)
	if len(best) == 0 {
		return nil, fmt.Errorf("baseline: no full plan")
	}
	return best[0], nil
}

// seeds appends the ways to have a subset at the buyer without joining there:
// a single relation assembled from its partitions, and the subset evaluated
// whole at a remote site that ships nothing in. The buyer's own pure-local
// evaluation composes naturally from local leaf scans and joins, so only
// remote sites contribute.
func (o *optimizer) seeds(mask uint, out []*buyerEntry) []*buyerEntry {
	if bits.OnesCount(mask) == 1 {
		out = append(out, o.leafAtBuyer(mask))
	}
	for _, site := range o.eligibleSites(mask) {
		if site == o.buyer {
			continue
		}
		if re, err := o.remoteSubset(mask, site, o.siteEval(mask)); err == nil {
			out = append(out, re)
		}
	}
	return out
}

// finish applies the query's post-join phase over the assembled tree.
func (o *optimizer) finish(e *buyerEntry) (plan.Node, error) {
	node := e.node
	if node == nil {
		return nil, fmt.Errorf("baseline: empty plan")
	}
	if pred := expr.And(expr.Conjuncts(o.sel.Where)); pred != nil {
		node = &plan.Filter{Input: node, Pred: pred}
	}
	return plan.FinalizeSelect(o.sel, node)
}

// tailCost prices the aggregation/sort tail and returns (cost, output rows).
func (o *optimizer) tailCost(e *buyerEntry) (float64, int64) {
	local, rows := o.gv.Model.BuyerTail(0, e.rows,
		o.sel.Aggregates(), len(o.sel.OrderBy) > 0)
	if o.sel.Limit >= 0 && rows > o.sel.Limit {
		rows = o.sel.Limit
	}
	return local, rows
}
