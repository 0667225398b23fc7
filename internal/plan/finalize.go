package plan

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"qtrade/internal/catalog"
	"qtrade/internal/expr"
	"qtrade/internal/sqlparse"
)

// FinalizeSelect lowers the tail of a SELECT block — aggregation, HAVING,
// projection, DISTINCT, ORDER BY and LIMIT — onto an input operator that
// already produces the joined, filtered FROM rows. It is shared by the
// sellers' local optimizer, the centralized baseline and the buyer plan
// generator, which differ only in how they build the input join tree, and
// BuildMergePlan is the same lowering over a merge of partial aggregates.
func FinalizeSelect(sel *sqlparse.Select, input Node) (Node, error) {
	return lowerTail(sel, input, nil)
}

// lowerTail is the one lowering of a SELECT's tail. A grouped query reads an
// aggregation stage (raw aggregation of the input rows, or the merge of the
// partial aggregates merge describes), and its select list, HAVING and ORDER
// BY keys are mapped onto that stage by the same substitution. Then HAVING,
// the projection with any ORDER BY key it does not already expose riding
// along hidden, DISTINCT, ORDER BY, LIMIT, and the hidden keys stripped.
func lowerTail(sel *sqlparse.Select, input Node, merge *AggDecomposition) (Node, error) {
	items, err := expandStars(sel, input.Schema())
	if err != nil {
		return nil, err
	}
	node := input
	var stage *aggStage
	if merge != nil || sel.Aggregates() {
		st := aggregateStage(sel, input, merge)
		stage, node = &st, st.agg
	}
	// below maps an expression of the query onto the rows the projection
	// reads.
	below := func(e expr.Expr, clause string) (expr.Expr, error) {
		if stage != nil {
			return stage.put(e, clause)
		}
		if expr.HasAgg(e) {
			return nil, fmt.Errorf("plan: aggregate in %s %s of a query without GROUP BY or aggregates", clause, e)
		}
		return e, nil
	}
	if sel.Having != nil {
		if stage == nil {
			return nil, fmt.Errorf("plan: HAVING %s needs GROUP BY or an aggregate", sel.Having)
		}
		pred, err := below(sel.Having, "HAVING")
		if err != nil {
			return nil, err
		}
		node = &Filter{Input: node, Pred: pred}
	}
	exprs := make([]expr.Expr, len(items))
	names := make([]expr.ColumnID, len(items))
	for i, it := range items {
		if exprs[i], err = below(it.Expr, "select"); err != nil {
			return nil, err
		}
		names[i] = outputName(it, i)
	}
	visible := len(items)
	// ORDER BY may name an output alias or a projected column; any other key
	// (standard SQL) is computed below the projection, sorted by the output
	// of the same expression when one is selected and otherwise carried as a
	// hidden column, stripped after the sort.
	keys := make([]SortKey, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		keys[i].Desc = o.Desc
		if !expr.HasAgg(o.Expr) && refsAvailable(o.Expr, names) {
			keys[i].Expr = o.Expr
			continue
		}
		key, err := below(o.Expr, "ORDER BY")
		if err == nil && stage == nil && !refsAvailable(key, input.Schema()) {
			err = fmt.Errorf("plan: ORDER BY %s is not a column of the query", o.Expr)
		}
		if err != nil {
			return nil, err
		}
		if j := slices.IndexFunc(exprs[:visible], func(e expr.Expr) bool { return expr.Equal(e, key) }); j >= 0 {
			keys[i].Expr = expr.NewColumn(names[j].Table, names[j].Name)
			continue
		}
		if sel.Distinct {
			return nil, fmt.Errorf("plan: for SELECT DISTINCT, ORDER BY expressions must appear in the select list (%s)", o.Expr)
		}
		name := expr.ColumnID{Name: "_ord" + strconv.Itoa(i)}
		exprs = append(exprs, key)
		names = append(names, name)
		keys[i].Expr = expr.NewColumn("", name.Name)
	}
	node = &Project{Input: node, Exprs: exprs, Names: names}
	if sel.Distinct {
		node = &Distinct{Input: node}
	}
	if len(keys) > 0 {
		node = &Sort{Input: node, Keys: keys}
	}
	if sel.Limit >= 0 {
		node = &Limit{Input: node, N: sel.Limit}
	}
	if len(names) > visible {
		strip := make([]expr.Expr, visible)
		for i, n := range names[:visible] {
			strip[i] = expr.NewColumn(n.Table, n.Name)
		}
		node = &Project{Input: node, Exprs: strip, Names: slices.Clip(names[:visible])}
	}
	return node, nil
}

// aggStage is the aggregation a grouped tail reads from, and what the query's
// group expressions and aggregate calls are above it.
type aggStage struct {
	agg    *Aggregate
	groups []expr.Expr       // the query's group expressions; group i is agg.GroupNames[i]
	calls  []string          // the query's aggregate calls, printed
	merge  *AggDecomposition // nil for a raw aggregation
}

// aggregateStage builds the aggregation under a grouped tail. Over the FROM
// rows it computes the query's own aggregate calls per group; over partial
// aggregates shipped from disjoint fragments (merge) it computes their
// combining aggregates, and each of the query's calls is an expression over
// those.
func aggregateStage(sel *sqlparse.Select, input Node, merge *AggDecomposition) aggStage {
	s := aggStage{agg: &Aggregate{Input: input, GroupBy: sel.GroupBy}, groups: sel.GroupBy, merge: merge}
	s.agg.GroupNames = make([]expr.ColumnID, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		s.agg.GroupNames[i] = expr.ColumnID{Name: "_g" + strconv.Itoa(i)}
		if c, ok := g.(*expr.Column); ok {
			s.agg.GroupNames[i] = expr.ColumnID{Table: c.Table, Name: c.Name}
		}
	}
	if merge == nil {
		var calls []*expr.Agg
		calls, s.calls = aggCalls(sel)
		for i, a := range calls {
			s.agg.Aggs = append(s.agg.Aggs, AggItem{Agg: a, Name: expr.ColumnID{Name: "_agg" + strconv.Itoa(i)}})
		}
		return s
	}
	for i, p := range merge.Partials {
		s.agg.Aggs = append(s.agg.Aggs, AggItem{
			Agg:  &expr.Agg{Fn: p.Merge, Arg: expr.NewColumn("", p.Name)},
			Name: expr.ColumnID{Name: mergedName(i)},
		})
	}
	for _, a := range merge.Aggs {
		s.calls = append(s.calls, a.String())
	}
	return s
}

// call is what the query's aggregate call i is above the stage.
func (s *aggStage) call(i int) expr.Expr {
	if s.merge != nil {
		return s.merge.finalExpr(i)
	}
	return expr.NewColumn("", s.agg.Aggs[i].Name.Name)
}

// put maps an expression of the query onto the stage's output: a group
// expression or an aggregate call becomes what the stage computes for it, and
// any other column must be one of the stage's outputs already — a column that
// is neither grouped nor aggregated has no one value per group.
func (s *aggStage) put(e expr.Expr, clause string) (expr.Expr, error) {
	var bad expr.Expr
	out, ok := expr.Substitute(e, func(x expr.Expr) (expr.Expr, expr.Step) {
		if i := s.group(x); i >= 0 {
			id := s.agg.GroupNames[i]
			return expr.NewColumn(id.Table, id.Name), expr.Replace
		}
		switch t := x.(type) {
		case *expr.Agg:
			if i := slices.Index(s.calls, t.String()); i >= 0 {
				return s.call(i), expr.Replace
			}
		case *expr.Column:
			if refsAvailable(t, s.agg.Schema()) {
				return t, expr.Replace
			}
		default:
			return nil, expr.Descend
		}
		bad = x
		return nil, expr.Refuse
	})
	if !ok {
		return nil, fmt.Errorf("plan: %s column %s must appear in GROUP BY or inside an aggregate", clause, bad)
	}
	return out, nil
}

// group is the index of the group expression x is, or -1.
func (s *aggStage) group(x expr.Expr) int {
	for i, g := range s.groups {
		if gc, ok := g.(*expr.Column); ok {
			if xc, ok := x.(*expr.Column); ok && xc.Table == gc.Table && xc.Name == gc.Name {
				return i
			}
		} else if expr.Equal(g, x) {
			return i
		}
	}
	return -1
}

// aggCalls is the one collection of a query's aggregate calls: the distinct
// calls of its select list, HAVING and ORDER BY in first-seen order, and
// their printed forms. The raw aggregation computes them; aggregate pushdown
// decomposes them.
func aggCalls(sel *sqlparse.Select) (calls []*expr.Agg, texts []string) {
	collect := func(e expr.Expr) {
		expr.Walk(e, func(n expr.Expr) bool {
			a, ok := n.(*expr.Agg)
			if !ok {
				return true
			}
			if text := a.String(); !slices.Contains(texts, text) {
				calls, texts = append(calls, a), append(texts, text)
			}
			return false
		})
	}
	for _, it := range sel.Items {
		collect(it.Expr)
	}
	collect(sel.Having)
	for _, o := range sel.OrderBy {
		collect(o.Expr)
	}
	return calls, texts
}

// ErrUnknownColumn is Qualify's refusal of a query naming a column its catalog
// lacks.
var ErrUnknownColumn = errors.New("plan: unknown column")

// Qualify is the one place a column is resolved to its relation: every
// unqualified column reference of a SELECT that exactly one FROM relation
// exposes gets that relation's binding as its qualifier (standard semantic
// analysis), and everything downstream — the query graph, the seller's
// rewrite and modified DP, the buyer's subqueries — reads a column by its
// qualifier alone, a bare one belonging to no relation. The qualified trees are
// assigned to sel's own fields; no node sel held is written.
//
// It then refuses, with ErrUnknownColumn, a query with a qualifier that names
// no FROM relation, a qualified column missing from its table, or a bare name
// left (unknown or ambiguous) that is no select-list alias. A relation the
// catalog does not know is not checked, and while one is in FROM neither is a
// bare name.
func Qualify(sel *sqlparse.Select, sch *catalog.Schema) error {
	defs := make([]*catalog.TableDef, len(sel.From))
	allKnown := true
	for i, tr := range sel.From {
		defs[i], _ = sch.Table(tr.Name)
		allKnown = allKnown && defs[i] != nil
	}
	owner := func(name string) string {
		found, n := "", 0
		for i, def := range defs {
			if def != nil && def.ColumnIndex(name) >= 0 {
				found = sel.From[i].Binding()
				n++
			}
		}
		if n == 1 {
			return found
		}
		return ""
	}
	var bad *expr.Column
	known := func(c *expr.Column) bool {
		if c.Table == "" {
			return !allKnown || slices.ContainsFunc(sel.Items, func(it sqlparse.SelectItem) bool { return equalFold(it.Alias, c.Name) })
		}
		i := slices.IndexFunc(sel.From, func(tr sqlparse.TableRef) bool { return equalFold(tr.Binding(), c.Table) })
		return i >= 0 && (defs[i] == nil || defs[i].ColumnIndex(c.Name) >= 0)
	}
	qualify := func(e expr.Expr) expr.Expr {
		e = expr.QualifyBy(e, owner)
		expr.Walk(e, func(n expr.Expr) bool {
			if c, ok := n.(*expr.Column); ok && bad == nil && !known(c) {
				bad = c
			}
			return bad == nil
		})
		return e
	}
	for i := range sel.Items {
		sel.Items[i].Expr = qualify(sel.Items[i].Expr)
	}
	sel.Where = qualify(sel.Where)
	for i, g := range sel.GroupBy {
		sel.GroupBy[i] = qualify(g)
	}
	sel.Having = qualify(sel.Having)
	for i := range sel.OrderBy {
		sel.OrderBy[i].Expr = qualify(sel.OrderBy[i].Expr)
	}
	if bad != nil {
		return fmt.Errorf("%w %s", ErrUnknownColumn, bad)
	}
	return nil
}

// refsAvailable reports whether every column of e resolves in the schema.
func refsAvailable(e expr.Expr, schema []expr.ColumnID) bool {
	for _, c := range expr.Columns(e) {
		found := false
		for _, s := range schema {
			if !equalFold(c.Name, s.Name) {
				continue
			}
			if c.Table == "" || equalFold(c.Table, s.Table) {
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

// outputName derives the exposed column identity of a select item.
func outputName(it sqlparse.SelectItem, i int) expr.ColumnID {
	if it.Alias != "" {
		return expr.ColumnID{Name: it.Alias}
	}
	if c, ok := it.Expr.(*expr.Column); ok {
		return expr.ColumnID{Table: c.Table, Name: c.Name}
	}
	return expr.ColumnID{Name: "_col" + strconv.Itoa(i)}
}

// expandStars replaces `*` items with explicit column references over the
// input schema.
func expandStars(sel *sqlparse.Select, schema []expr.ColumnID) ([]sqlparse.SelectItem, error) {
	if len(sel.Items) > 0 && !slices.ContainsFunc(sel.Items, func(it sqlparse.SelectItem) bool { return it.Star }) {
		return sel.Items, nil
	}
	var out []sqlparse.SelectItem
	for _, it := range sel.Items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		if len(schema) == 0 {
			return nil, fmt.Errorf("plan: cannot expand * with empty input schema")
		}
		for _, c := range schema {
			out = append(out, sqlparse.SelectItem{Expr: expr.NewColumn(c.Table, c.Name)})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("plan: empty select list")
	}
	return out, nil
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if ca >= 'A' && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if cb >= 'A' && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}
