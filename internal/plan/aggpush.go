package plan

import (
	"strconv"

	"qtrade/internal/expr"
	"qtrade/internal/sqlparse"
	"qtrade/internal/value"
)

// Aggregate pushdown: a seller holding part of a partitioned relation can
// ship per-group partial aggregates of its fragment instead of raw rows, and
// the buyer merges them (SUM of SUMs, SUM of COUNTs, MIN of MINs, ...). This
// is sound exactly when the fragments a plan unions are disjoint — which the
// buyer plan generator's exact-coverage rule already guarantees. AVG
// decomposes into SUM and COUNT; DISTINCT aggregates do not decompose and
// disable the optimization.

// PartialAggSpec is one aggregate a seller computes per group over its
// fragment.
type PartialAggSpec struct {
	Agg  *expr.Agg
	Name string // output column name (_pa<i>)
	// Merge is the buyer-side combining aggregate: SUM, MIN or MAX.
	Merge string
}

// AggDecomposition describes how a query's aggregation splits into
// seller-side partials and a buyer-side merge.
type AggDecomposition struct {
	// GroupCols are the grouping columns (grouping by general expressions
	// disables pushdown).
	GroupCols []*expr.Column
	// Aggs are the distinct aggregate calls of the query, in first-seen
	// order over its select list, HAVING and ORDER BY.
	Aggs []*expr.Agg
	// Partials are the flattened seller-side aggregates.
	Partials []PartialAggSpec
	// PartsOf maps each original aggregate to its partial indices (AVG has
	// two: SUM then COUNT).
	PartsOf [][]int
}

// DecomposeAggregates analyzes an aggregation query for pushdown; ok=false
// when any aggregate or grouping construct does not decompose.
func DecomposeAggregates(sel *sqlparse.Select) (*AggDecomposition, bool) {
	if !sel.Aggregates() {
		return nil, false
	}
	d := &AggDecomposition{}
	for _, g := range sel.GroupBy {
		c, ok := g.(*expr.Column)
		if !ok {
			return nil, false
		}
		d.GroupCols = append(d.GroupCols, c)
	}
	for _, it := range sel.Items {
		if it.Star {
			return nil, false
		}
	}
	calls, _ := aggCalls(sel)
	for _, a := range calls {
		if a.Distinct {
			return nil, false
		}
		d.Aggs = append(d.Aggs, a)
		idx := len(d.Partials)
		name := func(i int) string { return "_pa" + strconv.Itoa(i) }
		switch a.Fn {
		case "SUM":
			d.Partials = append(d.Partials, PartialAggSpec{
				Agg: &expr.Agg{Fn: "SUM", Arg: a.Arg}, Name: name(idx), Merge: "SUM"})
			d.PartsOf = append(d.PartsOf, []int{idx})
		case "COUNT":
			d.Partials = append(d.Partials, PartialAggSpec{
				Agg: &expr.Agg{Fn: "COUNT", Arg: a.Arg, Star: a.Star}, Name: name(idx), Merge: "SUM"})
			d.PartsOf = append(d.PartsOf, []int{idx})
		case "MIN", "MAX":
			d.Partials = append(d.Partials, PartialAggSpec{
				Agg: &expr.Agg{Fn: a.Fn, Arg: a.Arg}, Name: name(idx), Merge: a.Fn})
			d.PartsOf = append(d.PartsOf, []int{idx})
		case "AVG":
			d.Partials = append(d.Partials,
				PartialAggSpec{Agg: &expr.Agg{Fn: "SUM", Arg: a.Arg}, Name: name(idx), Merge: "SUM"},
				PartialAggSpec{Agg: &expr.Agg{Fn: "COUNT", Arg: a.Arg}, Name: name(idx + 1), Merge: "SUM"})
			d.PartsOf = append(d.PartsOf, []int{idx, idx + 1})
		default:
			return nil, false
		}
	}
	return d, true
}

// PartialItems returns the select list of the seller-side partial query:
// the group columns followed by the partial aggregates.
func (d *AggDecomposition) PartialItems() []sqlparse.SelectItem {
	var items []sqlparse.SelectItem
	for _, c := range d.GroupCols {
		items = append(items, sqlparse.SelectItem{Expr: expr.NewColumn(c.Table, c.Name)})
	}
	for _, p := range d.Partials {
		items = append(items, sqlparse.SelectItem{Expr: p.Agg, Alias: p.Name})
	}
	return items
}

// mergedName is the buyer-side column holding the merged partial i.
func mergedName(i int) string { return "_m" + strconv.Itoa(i) }

// finalExpr rewrites an original aggregate into an expression over merged
// columns.
func (d *AggDecomposition) finalExpr(aggIdx int) expr.Expr {
	parts := d.PartsOf[aggIdx]
	switch d.Aggs[aggIdx].Fn {
	case "AVG":
		// (SUM * 1.0) / COUNT forces float division.
		s := expr.NewColumn("", mergedName(parts[0]))
		c := expr.NewColumn("", mergedName(parts[1]))
		return &expr.Binary{Op: "/",
			L: &expr.Binary{Op: "*", L: s, R: expr.NewLit(value.NewFloat(1))},
			R: c,
		}
	default:
		return expr.NewColumn("", mergedName(parts[0]))
	}
}

// BuildMergePlan lowers the query's tail over an input producing [group
// columns..., partial aggregates...] rows from disjoint fragments: the tail
// FinalizeSelect lowers, over the merge of the partials instead of a raw
// aggregation.
func (d *AggDecomposition) BuildMergePlan(sel *sqlparse.Select, input Node) (Node, error) {
	return lowerTail(sel, input, d)
}
