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

// ForSeller rewrites a buyer query against the seller's schema and store.
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
	queryPred := expr.And(expr.CloneAll(conj))
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
	// as-is, aggregation, ordering and all.
	hasAgg := sel.HasAggregates() || len(sel.GroupBy) > 0
	passThrough := rw.Complete && len(rw.Dropped) == 0
	items, _ := localItems(sel, out.Where, keptSet, kept, sch, passThrough)
	if len(items) == 0 {
		// Fall back to every local column referenced anywhere in the query.
		items = fallbackItems(sel, kept, sch)
	}
	out.Items = items
	rw.Stripped = hasAgg && !passThrough

	if passThrough {
		for _, g := range sel.GroupBy {
			out.GroupBy = append(out.GroupBy, expr.Clone(g))
		}
		if sel.Having != nil {
			out.Having = expr.Clone(sel.Having)
		}
		out.Distinct = sel.Distinct
		for _, ob := range sel.OrderBy {
			out.OrderBy = append(out.OrderBy, sqlparse.OrderItem{Expr: expr.Clone(ob.Expr), Desc: ob.Desc})
		}
		out.Limit = sel.Limit
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

// conjunctLocal reports whether a conjunct references only kept relations.
// Unqualified columns must resolve to exactly one relation of the *whole*
// query (resolving against kept relations only would silently change the
// meaning of an ambiguous reference), and that relation must be kept.
func conjunctLocal(c expr.Expr, keptSet map[string]bool, all []sqlparse.TableRef, sch *catalog.Schema) bool {
	for _, col := range expr.Columns(c) {
		if col.Table != "" {
			if !keptSet[strings.ToLower(col.Table)] {
				return false
			}
			continue
		}
		owner, n := ownerOf(col.Name, all, sch)
		if n != 1 || !keptSet[owner] {
			return false
		}
	}
	return true
}

// ownerOf finds which binding of the relation list exposes an unqualified
// column name, and how many expose it (n != 1 means unresolvable).
func ownerOf(name string, rels []sqlparse.TableRef, sch *catalog.Schema) (string, int) {
	owner := ""
	n := 0
	for _, tr := range rels {
		def, ok := sch.Table(tr.Name)
		if !ok {
			continue
		}
		if def.ColumnIndex(name) >= 0 {
			owner = strings.ToLower(tr.Binding())
			n++
		}
	}
	return owner, n
}

// localItems computes the rewritten select list. keepAgg is true when the
// node may answer the aggregation itself (complete extents, no dropped
// relations); the bool result reports whether aggregation was kept.
func localItems(sel *sqlparse.Select, rewrittenWhere expr.Expr, keptSet map[string]bool, kept []sqlparse.TableRef, sch *catalog.Schema, passThrough bool) ([]sqlparse.SelectItem, bool) {
	if passThrough {
		// The node can answer the query verbatim; items pass through
		// unchanged so the answer's schema matches the query's exactly.
		var items []sqlparse.SelectItem
		for _, it := range sel.Items {
			ni := sqlparse.SelectItem{Alias: it.Alias, Star: it.Star}
			if it.Expr != nil {
				ni.Expr = expr.Clone(it.Expr)
			}
			items = append(items, ni)
		}
		return items, true
	}
	seen := map[string]bool{}
	var items []sqlparse.SelectItem
	addCol := func(c *expr.Column) {
		binding := strings.ToLower(c.Table)
		if binding == "" {
			owner, n := ownerOf(c.Name, sel.From, sch)
			if n != 1 {
				return
			}
			binding = owner
		}
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
	local := func(e expr.Expr) bool { return conjunctLocal(e, keptSet, sel.From, sch) }
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
		for _, c := range expr.Columns(it.Expr) {
			if local(&expr.Binary{Op: "=", L: c, R: expr.Int(0)}) {
				addCol(c)
			}
		}
	}
	// Group-by and having columns the buyer needs to re-aggregate.
	for _, g := range sel.GroupBy {
		for _, c := range expr.Columns(g) {
			addCol(c)
		}
	}
	for _, c := range expr.Columns(sel.Having) {
		addCol(c)
	}
	// Join columns from conjuncts that span kept and dropped relations.
	for _, cj := range expr.Conjuncts(sel.Where) {
		if local(cj) {
			continue
		}
		for _, c := range expr.Columns(cj) {
			addCol(c)
		}
	}
	// Every column of the rewritten WHERE (local conjuncts and partition
	// restrictions), for cross-seller union compatibility.
	for _, c := range expr.Columns(rewrittenWhere) {
		addCol(c)
	}
	for _, ob := range sel.OrderBy {
		for _, c := range expr.Columns(ob.Expr) {
			addCol(c)
		}
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].Expr.String() < items[j].Expr.String() })
	return items, false
}

// fallbackItems exposes every locally owned column referenced anywhere in
// the query; used when no regular item survived the rewrite.
func fallbackItems(sel *sqlparse.Select, kept []sqlparse.TableRef, sch *catalog.Schema) []sqlparse.SelectItem {
	seen := map[string]bool{}
	var items []sqlparse.SelectItem
	collect := func(e expr.Expr) {
		for _, c := range expr.Columns(e) {
			binding := strings.ToLower(c.Table)
			if binding == "" {
				owner, n := ownerOf(c.Name, sel.From, sch)
				if n != 1 {
					continue
				}
				binding = owner
			}
			found := false
			for _, tr := range kept {
				if strings.EqualFold(tr.Binding(), binding) {
					found = true
				}
			}
			if !found {
				continue
			}
			key := binding + "." + strings.ToLower(c.Name)
			if !seen[key] {
				seen[key] = true
				items = append(items, sqlparse.SelectItem{Expr: expr.NewColumn(c.Table, c.Name)})
			}
		}
	}
	for _, it := range sel.Items {
		if !it.Star {
			collect(it.Expr)
		}
	}
	collect(sel.Where)
	for _, g := range sel.GroupBy {
		collect(g)
	}
	if len(items) == 0 {
		// Last resort: the first column of the first kept relation.
		if def, ok := sch.Table(kept[0].Name); ok {
			items = append(items, sqlparse.SelectItem{Expr: expr.NewColumn(kept[0].Binding(), def.Columns[0].Name)})
		}
	}
	return items
}
