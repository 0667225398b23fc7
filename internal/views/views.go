// Package views implements answering-queries-using-materialized-views
// matching, the machinery behind the paper's seller predicates analyser
// (§3.5): when a node stores a materialized view whose definition subsumes a
// query the buyer asked for — same relations, weaker predicate, compatible
// (possibly coarser) grouping — the node can offer the view's contents at a
// much lower value than recomputing the query. The matcher is conservative:
// it only reports a match it can compensate exactly.
//
// A compensation is built in two steps. The matcher of the match kind (SPJ
// over an SPJ view, aggregation over an SPJ view, rollup of an aggregated
// view) writes its FROM, WHERE, GROUP BY, select list and a re-aggregating
// HAVING; MatchView then attaches the query's tail — DISTINCT, ORDER BY and
// LIMIT — in one place for every kind, its keys mapped like the items. Every
// expression crosses into the view's namespace through one substitution,
// outputMap.of.
package views

import (
	"strings"

	"qtrade/internal/expr"
	"qtrade/internal/sqlparse"
	"qtrade/internal/storage"
)

// Match describes how a query can be answered from a materialized view.
type Match struct {
	View *storage.MaterializedView
	// Comp is the compensating query over the view: its FROM is the view
	// name, its WHERE/GROUP BY re-filter and re-aggregate view rows into the
	// query's answer.
	Comp *sqlparse.Select
	// ReAggregated reports whether the compensation re-aggregates (query
	// grouping coarser than the view's).
	ReAggregated bool
}

// MatchView reports whether view can answer q, returning the compensating
// query when it can.
func MatchView(q *sqlparse.Select, view *storage.MaterializedView) (*Match, bool) {
	vsel, err := sqlparse.ParseSelect(view.SQL)
	if err != nil {
		return nil, false
	}
	// 1. Relation sets must coincide (by table name, each used once).
	rename, ok := alignFrom(q, vsel)
	if !ok {
		return nil, false
	}
	qWhere := expr.RenameTables(q.Where, rename)

	// 2. Query predicate must imply the view predicate (view keeps a
	// superset of the query's rows).
	if !expr.Implies(qWhere, vsel.Where) {
		return nil, false
	}
	// Compensation keeps the query conjuncts not already guaranteed by the
	// view definition.
	var comp []expr.Expr
	vConj := map[string]bool{}
	for _, c := range expr.Conjuncts(vsel.Where) {
		vConj[c.String()] = true
	}
	for _, c := range expr.Conjuncts(qWhere) {
		if !vConj[c.String()] && !expr.Implies(expr.And([]expr.Expr{vsel.Where}), c) {
			comp = append(comp, c)
		}
	}

	out := newOutputMap(vsel, view, rename)
	sel := &sqlparse.Select{From: []sqlparse.TableRef{{Name: view.Name}}}
	for _, c := range comp {
		w, ok := out.mapExpr(c)
		if !ok {
			return nil, false
		}
		sel.Where = expr.And([]expr.Expr{sel.Where, w})
	}
	qAgg := q.Aggregates()
	vAgg := vsel.Aggregates()
	m := &Match{View: view, Comp: sel}
	switch {
	case !qAgg && !vAgg: // select-project-join over an SPJ view
		ok = items(q, sel, out, true)
	case qAgg && !vAgg:
		ok, m.ReAggregated = matchAggOverSPJ(q, sel, out), true
	case qAgg && vAgg:
		m.ReAggregated, ok = matchRollup(q, vsel, sel, out)
	default: // view aggregated, query not: detail is lost
		return nil, false
	}
	if !ok || !attachTail(q, sel, out) {
		return nil, false
	}
	return m, true
}

// attachTail gives the compensation the query's DISTINCT, ORDER BY and LIMIT.
// An ORDER BY key naming one of the query's output aliases stays that alias;
// any other key is mapped as the items were, and one the view cannot
// express means no match.
func attachTail(q, sel *sqlparse.Select, out *outputMap) bool {
	sel.Distinct, sel.Limit = q.Distinct, q.Limit
	for _, ob := range q.OrderBy {
		key, ok := outputAlias(q, ob.Expr)
		if !ok {
			if key, ok = out.of(ob.Expr); !ok {
				return false
			}
		}
		sel.OrderBy = append(sel.OrderBy, sqlparse.OrderItem{Expr: key, Desc: ob.Desc})
	}
	return true
}

// outputAlias returns a bare column naming one of q's output aliases.
func outputAlias(q *sqlparse.Select, e expr.Expr) (expr.Expr, bool) {
	if c, ok := e.(*expr.Column); ok && c.Table == "" {
		for _, it := range q.Items {
			if it.Alias != "" && strings.EqualFold(it.Alias, c.Name) {
				return expr.NewColumn("", it.Alias), true
			}
		}
	}
	return nil, false
}

// BestMatches returns the matches of all stored views against q.
func BestMatches(q *sqlparse.Select, store *storage.Store) []*Match {
	var out []*Match
	for _, v := range store.Views() {
		if m, ok := MatchView(q, v); ok {
			out = append(out, m)
		}
	}
	return out
}

// alignFrom maps query bindings onto view bindings table-by-table. Both
// sides must reference the same set of table names, each exactly once.
func alignFrom(q, v *sqlparse.Select) (map[string]string, bool) {
	if len(q.From) != len(v.From) {
		return nil, false
	}
	vByTable := map[string]sqlparse.TableRef{}
	for _, tr := range v.From {
		key := strings.ToLower(tr.Name)
		if _, dup := vByTable[key]; dup {
			return nil, false // self-join views unsupported
		}
		vByTable[key] = tr
	}
	rename := map[string]string{}
	seen := map[string]bool{}
	for _, tr := range q.From {
		key := strings.ToLower(tr.Name)
		vt, ok := vByTable[key]
		if !ok || seen[key] {
			return nil, false
		}
		seen[key] = true
		rename[strings.ToLower(tr.Binding())] = vt.Binding()
	}
	return rename, true
}

// aggMode is how a query's aggregate calls read a view.
type aggMode uint8

const (
	overRows aggMode = iota // the view keeps detail rows: aggregate them
	stored                  // same grouping: each call is a stored aggregate
	rolledUp                // coarser grouping: roll the stored aggregates up
)

// outputMap resolves view-namespace expressions to view output column names.
type outputMap struct {
	// byExpr maps the canonical string of a view select item's expression to
	// the output column name.
	byExpr map[string]string
	rename map[string]string // query bindings onto the view's
	aggs   aggMode
}

func newOutputMap(vsel *sqlparse.Select, view *storage.MaterializedView, rename map[string]string) *outputMap {
	m := &outputMap{byExpr: map[string]string{}, rename: rename}
	for i, it := range vsel.Items {
		if it.Star || it.Expr == nil {
			continue
		}
		name := it.Alias
		if name == "" {
			if c, ok := it.Expr.(*expr.Column); ok {
				name = c.Name
			}
		}
		if name == "" && i < len(view.Columns) {
			name = view.Columns[i].Name
		}
		if name != "" {
			m.byExpr[it.Expr.String()] = name
		}
	}
	return m
}

// of maps an expression of the query onto the view's output.
func (m *outputMap) of(e expr.Expr) (expr.Expr, bool) {
	return m.mapExpr(expr.RenameTables(e, m.rename))
}

// mapExpr maps a view-namespace expression onto view output columns; ok is
// false when some part of it is not available in the view output. An
// aggregate call reads the view as m.aggs says; any other expression the
// view outputs is read as that column.
func (m *outputMap) mapExpr(e expr.Expr) (expr.Expr, bool) {
	return expr.Substitute(e, func(x expr.Expr) (expr.Expr, expr.Step) {
		if a, ok := x.(*expr.Agg); ok {
			return m.agg(a)
		}
		if expr.HasAgg(x) {
			return nil, expr.Descend
		}
		if name, hit := m.byExpr[x.String()]; hit {
			return expr.NewColumn("", name), expr.Replace
		}
		if _, ok := x.(*expr.Column); ok {
			return nil, expr.Refuse
		}
		return nil, expr.Descend
	})
}

// agg maps one aggregate call: over detail rows its argument is mapped; from
// an aggregated view it is the stored value (same grouping), or that value
// rolled up — SUM(x) -> SUM(sum_x), COUNT(*) -> SUM(cnt), MIN/MAX -> MIN/MAX
// of the stored extreme.
func (m *outputMap) agg(a *expr.Agg) (expr.Expr, expr.Step) {
	if m.aggs == overRows {
		return nil, expr.Descend
	}
	name, hit := m.byExpr[a.String()]
	if !hit {
		return nil, expr.Refuse
	}
	col := expr.NewColumn("", name)
	switch {
	case m.aggs == stored:
		return col, expr.Replace
	case (a.Fn == "SUM" || a.Fn == "COUNT") && !a.Distinct: // DISTINCT aggregates do not roll up
		return &expr.Agg{Fn: "SUM", Arg: col}, expr.Replace
	case a.Fn == "MIN" || a.Fn == "MAX":
		return &expr.Agg{Fn: a.Fn, Arg: col}, expr.Replace
	}
	return nil, expr.Refuse // AVG does not roll up without SUM+COUNT
}

// items maps the query's select list onto the view; named gives an
// unaliased column item its column name as alias.
func items(q, sel *sqlparse.Select, out *outputMap, named bool) bool {
	for _, it := range q.Items {
		if it.Star {
			return false
		}
		e, ok := out.of(it.Expr)
		if !ok {
			return false
		}
		alias := it.Alias
		if c, isCol := it.Expr.(*expr.Column); isCol && alias == "" && named {
			alias = c.Name
		}
		sel.Items = append(sel.Items, sqlparse.SelectItem{Expr: e, Alias: alias})
	}
	return true
}

// matchAggOverSPJ aggregates an SPJ view into the query's groups.
func matchAggOverSPJ(q, sel *sqlparse.Select, out *outputMap) bool {
	for _, g := range q.GroupBy {
		e, ok := out.of(g)
		if !ok {
			return false
		}
		sel.GroupBy = append(sel.GroupBy, e)
	}
	if !items(q, sel, out, false) {
		return false
	}
	if q.Having != nil {
		h, ok := out.of(q.Having)
		if !ok {
			return false
		}
		sel.Having = h
	}
	return true
}

// matchRollup compensates an aggregate query from an aggregated view whose
// grouping is at least as fine as the query's. With the same grouping the
// view's rows are the query's groups: nothing is re-aggregated and HAVING
// filters them as a WHERE conjunct over the stored aggregates.
func matchRollup(q, vsel, sel *sqlparse.Select, out *outputMap) (reAgg, ok bool) {
	// Every query group expression must be one of the view's group
	// expressions and be available in the view output.
	vGroups := map[string]bool{}
	for _, g := range vsel.GroupBy {
		vGroups[g.String()] = true
	}
	var groups []expr.Expr
	for _, g := range q.GroupBy {
		rg := expr.RenameTables(g, out.rename)
		if !vGroups[rg.String()] {
			return false, false
		}
		e, ok := out.mapExpr(rg)
		if !ok {
			return false, false
		}
		groups = append(groups, e)
	}
	exact := len(q.GroupBy) == len(vsel.GroupBy)
	out.aggs = rolledUp
	if exact {
		out.aggs, groups = stored, nil
	}
	sel.GroupBy = groups
	if !items(q, sel, out, false) {
		return false, false
	}
	if q.Having != nil {
		h, ok := out.of(q.Having)
		if !ok {
			return false, false
		}
		if exact {
			sel.Where = expr.And([]expr.Expr{sel.Where, h})
		} else {
			sel.Having = h
		}
	}
	return !exact, true
}
