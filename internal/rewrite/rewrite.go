// Package rewrite implements the seller-side query rewriting algorithm of
// §3.4: given a query received in an RFB, remove the base relations the node
// does not hold, restrict each remaining relation's extent to the horizontal
// partitions available locally (adding their defining predicates to WHERE,
// like the `office='Myconos'` restriction in the paper's example), simplify,
// and report exactly which fragments the rewritten query covers so the buyer
// can assemble full extents from several offers.
package rewrite

import (
	"errors"
	"slices"
	"sort"
	"strings"

	"qtrade/internal/catalog"
	"qtrade/internal/expr"
	"qtrade/internal/qgraph"
	"qtrade/internal/sqlparse"
	"qtrade/internal/storage"
)

// ErrNothingLocal is returned when the node holds no relation of the query.
var ErrNothingLocal = errors.New("rewrite: no query relation is locally available")

// ErrContradiction is returned when the local restriction contradicts the
// query predicate — the node's data is irrelevant to this query.
var ErrContradiction = errors.New("rewrite: local partitions contradict the query predicate")

// Rewritten is the local version of a foreign query.
type Rewritten struct {
	Sel *sqlparse.Select
	// Parts maps each kept binding (lower-cased) to the partition ids the
	// rewritten query covers; Relevant to those the query needs of it.
	Parts    map[string][]string
	Relevant map[string][]string
	// Dropped lists the bindings of relations removed because the node holds
	// no fragment of them.
	Dropped []string
	// Complete reports whether the rewritten query covers every partition of
	// every relation of the original query (no relation dropped, full
	// extents) — only then may aggregation, ORDER BY and LIMIT survive.
	Complete bool
	// Stripped reports whether aggregation was removed (the buyer must
	// re-aggregate).
	Stripped bool
}

// ForSeller rewrites a buyer query against the seller's schema and store. sel
// is qualified (plan.Qualify): a column belongs to the relation its qualifier
// names, and a bare one to none.
func ForSeller(sel *sqlparse.Select, sch *catalog.Schema, store *storage.Store) (*Rewritten, error) {
	g := qgraph.New(sel)
	rw := &Rewritten{Parts: map[string][]string{}, Relevant: map[string][]string{}}
	var kept []sqlparse.TableRef
	var keptMask uint
	keptSet := map[string]bool{}
	complete := true
	anyHeld := false
	for i, tr := range sel.From {
		held := store.PartIDs(tr.Name)
		if len(held) > 0 {
			anyHeld = true
		}
		// Keep only held partitions the query can actually use: a partition
		// whose defining predicate contradicts the query's restriction on
		// this relation contributes nothing (paper §3.4: restrict extents,
		// then simplify).
		var usable []string
		for _, pid := range held {
			if p, ok := sch.Partition(tr.Name, pid); ok && !g.Prunes(i, p) {
				usable = append(usable, pid)
			}
		}
		if len(usable) == 0 {
			rw.Dropped = append(rw.Dropped, tr.Binding())
			complete = false
			continue
		}
		kept = append(kept, tr)
		keptMask |= 1 << i
		b := strings.ToLower(tr.Binding())
		keptSet[b] = true
		rw.Parts[b] = usable
		// Asked of a kept relation only: most subqueries a seller prices are
		// about relations it holds no usable fragment of.
		rw.Relevant[b] = g.Relevant(sch, i)
		if len(usable) < len(rw.Relevant[b]) {
			complete = false
		}
	}
	if len(kept) == 0 {
		if anyHeld {
			return nil, ErrContradiction
		}
		return nil, ErrNothingLocal
	}
	rw.Complete = complete

	out := &sqlparse.Select{Limit: -1, From: kept}

	// WHERE: conjuncts referencing only kept relations, plus partition
	// restrictions for partially held relations.
	conj := g.Within(keptMask)
	queryPred := expr.And(conj)
	for _, tr := range kept {
		b := strings.ToLower(tr.Binding())
		if len(rw.Parts[b]) == len(sch.PartitionIDs(tr.Name)) {
			continue // full extent, no restriction needed
		}
		restriction := PartitionRestriction(sch, tr.Name, tr.Binding(), rw.Parts[b])
		if restriction == nil {
			continue
		}
		// Skip the restriction when the query predicate already implies it
		// (the paper's Myconos example adds office='Myconos' because the
		// query's IN list does not imply it).
		if expr.Implies(queryPred, restriction) {
			continue
		}
		conj = append(conj, restriction)
	}
	out.Where = expr.SimplifyPredicate(expr.And(conj))
	if out.Where != nil && expr.IsFalse(out.Where) {
		return nil, ErrContradiction
	}

	// SELECT list: local items from the original query plus the local join
	// columns appearing in dropped cross-relation conjuncts, plus every
	// column of the rewritten WHERE (so offers derived through different
	// rewrite paths expose the same columns and stay union-compatible at
	// the buyer). A node covering every relevant partition of every query
	// relation passes the query through verbatim instead — it can answer it
	// as-is, aggregation, ordering and all, under the query's own schema.
	passThrough := rw.Complete && len(rw.Dropped) == 0
	rw.Stripped = sel.Aggregates() && !passThrough
	if passThrough {
		out.Items = slices.Clone(sel.Items)
		out.GroupBy = slices.Clone(sel.GroupBy)
		out.Having = sel.Having
		out.Distinct = sel.Distinct
		out.OrderBy = slices.Clone(sel.OrderBy)
		out.Limit = sel.Limit
	} else {
		out.Items = localItems(sel, out.Where, keptSet, kept, sch)
	}

	rw.Sel = out
	return rw, nil
}

// PartitionRestriction builds the disjunction of the partition predicates of
// the given partition ids, with columns qualified by the binding. It returns
// nil when any covered partition has no predicate (whole-table fragment).
func PartitionRestriction(sch *catalog.Schema, table, binding string, partIDs []string) expr.Expr {
	var ors []expr.Expr
	for _, id := range partIDs {
		p, ok := sch.Partition(table, id)
		if !ok {
			continue
		}
		if p.Predicate == nil {
			return nil
		}
		ors = append(ors, expr.Qualify(p.Predicate, binding))
	}
	return expr.Or(ors)
}

// localItems computes the select list of a query the node cannot answer
// verbatim: the columns of kept relations the buyer needs to finish it. A
// column is kept when its qualifier names a kept relation; a bare one
// belongs to none.
func localItems(sel *sqlparse.Select, rewrittenWhere expr.Expr, keptSet map[string]bool, kept []sqlparse.TableRef, sch *catalog.Schema) []sqlparse.SelectItem {
	seen := map[string]bool{}
	var items []sqlparse.SelectItem
	addCol := func(c *expr.Column) {
		binding := strings.ToLower(c.Table)
		if !keptSet[binding] {
			return
		}
		key := binding + "." + strings.ToLower(c.Name)
		if seen[key] {
			return
		}
		seen[key] = true
		items = append(items, sqlparse.SelectItem{Expr: expr.NewColumn(c.Table, c.Name)})
	}
	addCols := func(e expr.Expr) {
		for _, c := range expr.Columns(e) {
			addCol(c)
		}
	}
	for _, it := range sel.Items {
		if it.Star {
			for _, tr := range kept {
				def, ok := sch.Table(tr.Name)
				if !ok {
					continue
				}
				for _, cd := range def.Columns {
					addCol(&expr.Column{Table: tr.Binding(), Name: cd.Name})
				}
			}
			continue
		}
		// Aggregates are stripped to their argument columns; plain items
		// keep their local columns.
		addCols(it.Expr)
	}
	// Group-by and having columns the buyer needs to re-aggregate.
	for _, g := range sel.GroupBy {
		addCols(g)
	}
	addCols(sel.Having)
	// Join columns from conjuncts that span kept and dropped relations.
	for _, cj := range expr.Conjuncts(sel.Where) {
		cols := expr.Columns(cj)
		if slices.ContainsFunc(cols, func(c *expr.Column) bool { return !keptSet[strings.ToLower(c.Table)] }) {
			for _, c := range cols {
				addCol(c)
			}
		}
	}
	// Every column of the rewritten WHERE (local conjuncts and partition
	// restrictions), for cross-seller union compatibility.
	addCols(rewrittenWhere)
	for _, ob := range sel.OrderBy {
		addCols(ob.Expr)
	}
	if len(items) == 0 {
		// Nothing the buyer needs survived: every kept column the query's
		// WHERE names, else the first column of the first kept relation.
		addCols(sel.Where)
		if def, ok := sch.Table(kept[0].Name); ok && len(items) == 0 {
			items = append(items, sqlparse.SelectItem{Expr: expr.NewColumn(kept[0].Binding(), def.Columns[0].Name)})
		}
		return items
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].Expr.String() < items[j].Expr.String() })
	return items
}
