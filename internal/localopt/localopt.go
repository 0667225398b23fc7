// Package localopt is the System-R style cost-based optimizer every
// federation node runs over its local fragments. It is modified exactly as
// §3.4 of the paper prescribes: while the classic dynamic program prunes
// sub-optimal access paths — first two-way joins, then three-way, and so on —
// this optimizer *retains* the optimal partial result of every relation
// subset it visits, because those partial results are precisely the
// query-answers a seller can offer to the buyer during trading.
package localopt

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"

	"qtrade/internal/catalog"
	"qtrade/internal/cost"
	"qtrade/internal/expr"
	"qtrade/internal/joinorder"
	"qtrade/internal/plan"
	"qtrade/internal/qgraph"
	"qtrade/internal/sqlparse"
	"qtrade/internal/stats"
	"qtrade/internal/storage"
)

// Partial is one optimal partial result: the best local plan answering the
// subquery over a subset of the query's relations (§3.4's set D).
type Partial struct {
	Bindings []string         // FROM bindings covered, in FROM order
	SQL      *sqlparse.Select // the subquery this partial answers
	Plan     plan.Node
	Cost     float64 // estimated local execution cost (ms)
	Rows     int64
	Bytes    float64 // estimated result size
}

// Result is the optimizer output: the best full plan plus every optimal
// k-way partial.
type Result struct {
	Best     *Partial
	Partials []*Partial
	// Joined is what Best.Plan finalises: the cheapest join tree over all the
	// relations, under the residual filter, before the query's own tail. Another
	// tail over the same FROM and WHERE (a partial aggregate) is planned by
	// finalising this tree, with no second DP.
	Joined plan.Node
}

// Optimize runs the modified DP over the query's FROM relations using the
// node's local fragments. sel is qualified (plan.Qualify): a column belongs to
// the relation its qualifier names. Every table referenced must have at least
// one local fragment (run the rewrite package first on foreign queries).
func Optimize(sel *sqlparse.Select, sch *catalog.Schema, store *storage.Store, m *cost.Model) (*Result, error) {
	o := &optimizer{sel: sel, sch: sch, store: store, m: m, g: qgraph.New(sel)}
	return o.run()
}

type baseRel struct {
	ref      sqlparse.TableRef
	def      *catalog.TableDef
	node     plan.Node // union of filtered fragment scans
	cost     float64
	rows     int64
	st       *stats.TableStats // scaled by local predicate selectivity
	localPrd expr.Expr
}

type dpEntry struct {
	node plan.Node
	cost float64
	rows int64
}

type optimizer struct {
	sel   *sqlparse.Select
	sch   *catalog.Schema
	store *storage.Store
	m     *cost.Model

	g        *qgraph.Graph // of sel
	rels     []*baseRel
	needCols map[string][]string
}

func (o *optimizer) run() (*Result, error) {
	if len(o.sel.From) == 0 {
		return nil, fmt.Errorf("localopt: query has no FROM relations")
	}
	if len(o.sel.From) > 20 {
		return nil, fmt.Errorf("localopt: %d relations exceed DP limit", len(o.sel.From))
	}
	if err := o.buildBase(); err != nil {
		return nil, err
	}
	o.needCols = neededColumns(o.sel, o.sch)

	n := len(o.rels)
	dp := joinorder.Plan[dpEntry]{
		N: n,
		Seeds: func(mask uint, out []dpEntry) []dpEntry {
			if bits.OnesCount(mask) == 1 {
				r := o.rels[bits.TrailingZeros(mask)]
				out = append(out, dpEntry{node: r.node, cost: r.cost, rows: r.rows})
			}
			return out
		},
		Connected: o.g.Connected,
		Join:      func(a, b uint, l, r dpEntry) dpEntry { return o.joinEntry(l, r, o.g.Connecting(a, b)) },
		// The modified DP: the optimal entry of every subset is retained.
		Keep: func(_ uint, cands []dpEntry) []dpEntry {
			return joinorder.Cheapest(cands, func(e dpEntry) float64 { return e.cost })
		},
	}
	dp.Solve(1, n)

	res := &Result{}
	full := uint(1)<<n - 1
	for _, mask := range joinorder.Subsets(n, 1, n) {
		best := dp.At(mask)
		if len(best) == 0 {
			return nil, fmt.Errorf("localopt: no plan for relation subset %b", mask)
		}
		p, input, err := o.finishPartial(mask, best[0], full)
		if err != nil {
			return nil, err
		}
		res.Partials = append(res.Partials, p)
		if mask == full {
			res.Best, res.Joined = p, input
		}
	}
	return res, nil
}

// buildBase constructs the access path of each FROM relation: the union of
// the node's local fragments with pushed-down single-relation predicates and
// partition pruning.
func (o *optimizer) buildBase() error {
	for i, tr := range o.sel.From {
		def, ok := o.sch.Table(tr.Name)
		if !ok {
			return fmt.Errorf("localopt: unknown table %q", tr.Name)
		}
		frs := o.store.Fragments(tr.Name)
		if len(frs) == 0 {
			return fmt.Errorf("localopt: no local fragments of %q (rewrite foreign queries first)", tr.Name)
		}
		// Single-relation conjuncts push into the base relation.
		o.rels = append(o.rels, &baseRel{ref: tr, def: def, localPrd: o.g.LocalPred(i)})
	}
	for i, r := range o.rels {
		if err := o.buildAccessPath(i, r); err != nil {
			return err
		}
	}
	return nil
}

func (o *optimizer) buildAccessPath(i int, r *baseRel) error {
	binding := r.ref.Binding()
	// The local predicate with alias-stripped column names for selectivity.
	bare := expr.Unqualify(r.localPrd)
	var scans []plan.Node
	var totalCost float64
	var totalRows int64
	var merged *stats.TableStats
	for _, f := range o.store.Fragments(r.ref.Name) {
		fs, err := o.store.FragmentStats(r.ref.Name, f.PartID)
		if err != nil {
			return err
		}
		// Partition pruning: skip fragments whose defining predicate
		// contradicts the pushed-down predicate.
		if part, ok := o.sch.Partition(r.ref.Name, f.PartID); ok && o.g.Prunes(i, part) {
			continue
		}
		sel := 1.0
		if r.localPrd != nil {
			sel = stats.Selectivity(fs, bare)
		}
		scans = append(scans, &plan.Scan{Def: r.def, Alias: binding, PartID: f.PartID, Pred: r.localPrd})
		totalCost += o.m.Scan(fs.Rows)
		rows := int64(math.Ceil(float64(fs.Rows) * sel))
		totalRows += rows
		merged = stats.Merge(merged, fs.Scale(sel))
	}
	if len(scans) == 0 {
		// All fragments pruned: an empty relation. Represent with a scan of
		// the first fragment plus an always-false filter to keep plan shape.
		frs := o.store.Fragments(r.ref.Name)
		scans = append(scans, &plan.Scan{Def: r.def, Alias: binding, PartID: frs[0].PartID, Pred: expr.FalseExpr()})
		merged = stats.FromRows(r.def, nil)
	}
	if len(scans) == 1 {
		r.node = scans[0]
	} else {
		r.node = &plan.Union{Inputs: scans}
	}
	r.cost = totalCost
	r.rows = totalRows
	r.st = merged
	return nil
}

func isEquiPred(e expr.Expr) bool {
	b, ok := e.(*expr.Binary)
	return ok && b.Op == "="
}

// joinEntry builds the DP entry for joining two solved subsets on the edges
// connecting them.
func (o *optimizer) joinEntry(l, r dpEntry, on []expr.Expr) dpEntry {
	hasEqui := false
	rows := float64(l.rows) * float64(r.rows)
	for _, e := range on {
		if isEquiPred(e) {
			hasEqui = true
			rows /= float64(o.equiNDV(e))
		} else {
			rows /= 3
		}
	}
	if rows < 1 {
		rows = 1
	}
	outRows := int64(math.Ceil(rows))
	var joinCost float64
	if hasEqui {
		build, probe := l.rows, r.rows
		if build > probe {
			build, probe = probe, build
		}
		joinCost = o.m.HashJoin(build, probe, outRows)
	} else {
		joinCost = o.m.NLJoin(l.rows, r.rows, outRows)
	}
	// Build side: put the smaller input on the right (executor builds on R).
	left, right := l.node, r.node
	if l.rows < r.rows {
		left, right = r.node, l.node
	}
	node := &plan.Join{L: left, R: right, On: expr.And(on)}
	return dpEntry{node: node, cost: l.cost + r.cost + joinCost, rows: outRows}
}

// equiNDV estimates the distinct count of an equi-join key, using the larger
// side per the containment assumption.
func (o *optimizer) equiNDV(e expr.Expr) int64 {
	var ndv int64 = 1
	for _, c := range expr.Columns(e) {
		i, _ := o.g.Index(c.Table) // an edge names FROM relations only
		if cs := o.rels[i].st.Col(c.Name); cs != nil && cs.NDV > ndv {
			ndv = cs.NDV
		}
	}
	return ndv
}

// neededColumns records, per lower-cased binding, the columns of that relation
// referenced anywhere in sel, in first-reference order; partial-result offers
// project onto them. sel is qualified, so a bare column belongs to no relation,
// and a star names every column sch defines for each FROM relation.
func neededColumns(sel *sqlparse.Select, sch *catalog.Schema) map[string][]string {
	need := map[string][]string{}
	seen := map[string]map[string]bool{}
	add := func(binding, name string) {
		binding = strings.ToLower(binding)
		m := seen[binding]
		if m == nil {
			m = map[string]bool{}
			seen[binding] = m
		}
		if lc := strings.ToLower(name); !m[lc] {
			m[lc] = true
			need[binding] = append(need[binding], name)
		}
	}
	addCols := func(e expr.Expr) {
		for _, c := range expr.Columns(e) {
			if c.Table != "" {
				add(c.Table, c.Name)
			}
		}
	}
	for _, it := range sel.Items {
		if it.Star {
			for _, tr := range sel.From {
				for _, cd := range columnsOf(sch, tr.Name) {
					add(tr.Binding(), cd.Name)
				}
			}
			continue
		}
		addCols(it.Expr)
	}
	addCols(sel.Where)
	for _, g := range sel.GroupBy {
		addCols(g)
	}
	addCols(sel.Having)
	for _, ob := range sel.OrderBy {
		addCols(ob.Expr)
	}
	return need
}

// columnsOf lists the columns sch defines for table, none when it does not
// know the table.
func columnsOf(sch *catalog.Schema, table string) []catalog.ColumnDef {
	if def, ok := sch.Table(table); ok {
		return def.Columns
	}
	return nil
}

// finishPartial turns a DP entry into an offered partial result with its
// subquery, and returns beside it the tree that subquery's tail was put on.
// The full-relation entry additionally gets the query's aggregation/ordering
// phase and the graph's residual conjuncts.
func (o *optimizer) finishPartial(mask uint, entry dpEntry, full uint) (*Partial, plan.Node, error) {
	p := &Partial{Cost: entry.cost, Rows: entry.rows}
	var rowBytes float64
	for i, r := range o.rels {
		if mask&(1<<i) == 0 {
			continue
		}
		p.Bindings = append(p.Bindings, r.ref.Binding())
		used := len(o.needCols[strings.ToLower(r.ref.Binding())])
		if total := len(r.def.Columns); total > 0 && r.st != nil {
			rowBytes += r.st.RowBytes * float64(used) / float64(total)
		}
	}
	node := entry.node
	if mask == full {
		if len(o.g.Residual) > 0 {
			node = &plan.Filter{Input: node, Pred: expr.And(o.g.Residual)}
			p.Cost += o.m.Filter(entry.rows)
		}
		p.SQL = o.sel.Clone()
		if o.sel.Aggregates() {
			groups := estimateGroups(entry.rows, len(o.sel.GroupBy))
			p.Cost += o.m.Aggregate(entry.rows, groups)
			p.Rows = groups
		}
		if len(o.sel.OrderBy) > 0 {
			p.Cost += o.m.Sort(p.Rows)
		}
		if o.sel.Limit >= 0 && p.Rows > o.sel.Limit {
			p.Rows = o.sel.Limit
		}
	} else {
		p.SQL = subquery(o.g, mask, o.needCols, o.sch)
	}
	p.Bytes = float64(p.Rows) * math.Max(rowBytes, 8)
	var err error
	if p.Plan, err = plan.FinalizeSelect(p.SQL, node); err != nil {
		return nil, nil, err
	}
	return p, node, nil
}

// estimateGroups guesses the output cardinality of an aggregation.
func estimateGroups(rows int64, groupCols int) int64 {
	if groupCols == 0 {
		return 1
	}
	g := int64(math.Ceil(math.Sqrt(float64(rows)))) * int64(groupCols)
	if g > rows {
		g = rows
	}
	if g < 1 {
		g = 1
	}
	return g
}

// subquery builds the SPJ subquery over a subset of sel's relations: the
// needed columns of those relations, their FROM entries, and the WHERE
// conjuncts referencing only them. This is the query text shipped in offers
// and RFBs.
func subquery(g *qgraph.Graph, mask uint, need map[string][]string, sch *catalog.Schema) *sqlparse.Select {
	sub := &sqlparse.Select{Limit: -1}
	for i, tr := range g.From {
		if mask&(1<<i) == 0 {
			continue
		}
		sub.From = append(sub.From, tr)
		for _, cn := range need[strings.ToLower(tr.Binding())] {
			sub.Items = append(sub.Items, sqlparse.SelectItem{Expr: expr.NewColumn(tr.Binding(), cn)})
		}
	}
	if len(sub.Items) == 0 {
		// Degenerate: no referenced columns (e.g. COUNT(*) only); the first
		// relation's first column keeps the subquery valid.
		first := g.From[bits.TrailingZeros(mask)]
		if cols := columnsOf(sch, first.Name); len(cols) > 0 {
			sub.Items = append(sub.Items, sqlparse.SelectItem{Expr: expr.NewColumn(first.Binding(), cols[0].Name)})
		}
	}
	// Canonical item order so equivalent subqueries offered by different
	// sellers are union-compatible at the buyer.
	sort.SliceStable(sub.Items, func(i, j int) bool {
		return sub.Items[i].Expr.String() < sub.Items[j].Expr.String()
	})
	sub.Where = expr.And(g.Within(mask))
	return sub
}

// Subqueries is the one subquery builder over a query's relation subsets,
// each named by its relation set (bit i for FROM position i): sel is
// qualified, g is its graph, which the caller already holds, and each subset
// gets the text the modified DP gives its partial — the columns sel needs of
// it, a star expanded from sch, its first catalog column when it needs none.
// The buyer predicates analyser, subcontracting's gaps and the baselines ship
// what it builds.
func Subqueries(sel *sqlparse.Select, g *qgraph.Graph, sch *catalog.Schema) func(mask uint) *sqlparse.Select {
	need := neededColumns(sel, sch)
	return func(mask uint) *sqlparse.Select { return subquery(g, mask, need, sch) }
}

// RestrictTo returns a copy of base, a subquery over the one relation bound
// as binding, narrowed to that relation's partition p (which must have a
// predicate): what is asked of whoever holds the fragment.
func RestrictTo(base *sqlparse.Select, binding string, p *catalog.Partition) *sqlparse.Select {
	q := base.Clone()
	q.Where = expr.SimplifyPredicate(expr.And([]expr.Expr{q.Where, expr.Qualify(p.Predicate, binding)}))
	return q
}
