// Package qgraph takes a query apart in the one way every step of the trading
// loop needs: which FROM relations each WHERE conjunct names, and which
// horizontal partitions of a relation the query can touch. The seller's
// rewrite and modified DP, subcontracting, the buyer plan generator and
// predicates analyser, and the centralized baseline all read the same Graph,
// so a conjunct is classified — and a partition pruned — by one rule.
//
// A selection is analysed once: the conjuncts a query places on a relation
// become per-column ranges the first time a partition is tested against them
// (expr.Selection, kept on the Graph), a partition's defining predicate the
// first time it is tested at all (kept on the catalog.Partition), and the
// partition test compares the two sets of ranges — nothing is copied, printed
// or simplified per (relation, partition) pair.
//
// A Graph describes a qualified SELECT (plan.Qualify): a column belongs to the
// FROM relation its qualifier names. A bare column, or one whose qualifier
// names no FROM relation, belongs to none, and its conjunct is evaluated only
// against the whole query, where binding reports it.
package qgraph

import (
	"math/bits"
	"strings"

	"qtrade/internal/catalog"
	"qtrade/internal/expr"
	"qtrade/internal/sqlparse"
)

// foreign is the mask of a conjunct with a column that names no FROM
// relation: contained in no relation set.
const foreign = ^uint(0)

// Edge is a conjunct naming exactly two relations.
type Edge struct {
	Pred expr.Expr
	Mask uint // the two relations, by FROM index
}

// Graph is the WHERE clause of one SELECT, split into the join skeleton
// (Edges) and the selections placed on it (Local). Every conjunct is in
// exactly one of Local, Edges and Residual, each in WHERE order. The
// expressions are the SELECT's own, shared with every plan built from them
// (an expression is never written).
// Prunes and Relevant fill the Graph's memo, so one goroutine asks them.
type Graph struct {
	From     []sqlparse.TableRef
	Local    [][]expr.Expr // by FROM index: conjuncts naming that relation only
	Edges    []Edge
	Residual []expr.Expr // no relation, more than two, or a column of none

	conj  []expr.Expr       // every conjunct, in WHERE order
	masks []uint            // relations conj[k] names, or foreign
	sels  []*expr.Selection // Local[i] analysed, on first use
}

// New classifies the WHERE clause of sel, which must be qualified.
func New(sel *sqlparse.Select) *Graph {
	g := &Graph{From: sel.From, Local: make([][]expr.Expr, len(sel.From)), conj: expr.Conjuncts(sel.Where)}
	g.masks = make([]uint, len(g.conj))
	for k, c := range g.conj {
		var mask uint
		for _, col := range expr.Columns(c) {
			i, ok := g.Index(col.Table)
			if !ok {
				mask = foreign
				break
			}
			mask |= 1 << i
		}
		g.masks[k] = mask
		switch bits.OnesCount(mask) {
		case 1:
			i := bits.TrailingZeros(mask)
			g.Local[i] = append(g.Local[i], c)
		case 2:
			g.Edges = append(g.Edges, Edge{Pred: c, Mask: mask})
		default:
			g.Residual = append(g.Residual, c)
		}
	}
	return g
}

// Index is the FROM position of the relation bound as binding.
func (g *Graph) Index(binding string) (int, bool) {
	for i := range g.From {
		if strings.EqualFold(g.From[i].Binding(), binding) {
			return i, true
		}
	}
	return 0, false
}

// LocalPred is the conjunction of relation i's selections, over the query's
// own conjuncts; nil when it has none.
func (g *Graph) LocalPred(i int) expr.Expr { return expr.And(g.Local[i]) }

// Connected reports whether an edge joins a relation of a to one of b.
func (g *Graph) Connected(a, b uint) bool {
	for _, e := range g.Edges {
		if e.Mask&a != 0 && e.Mask&b != 0 {
			return true
		}
	}
	return false
}

// Connecting returns the predicates of the edges joining the disjoint sets a
// and b.
func (g *Graph) Connecting(a, b uint) []expr.Expr {
	var out []expr.Expr
	for _, e := range g.Edges {
		if e.Mask&a != 0 && e.Mask&b != 0 {
			out = append(out, e.Pred)
		}
	}
	return out
}

// Within returns the conjuncts a subquery over the relations of set can
// evaluate, in WHERE order: those naming only relations of set (a constant
// names none, so it is within every set).
func (g *Graph) Within(set uint) []expr.Expr {
	var out []expr.Expr
	for k, c := range g.conj {
		if g.masks[k]&^set == 0 {
			out = append(out, c)
		}
	}
	return out
}

// Prunes is the partition test: no row of p can satisfy relation i's
// selections, so the query need not read p. Both sides are compared over bare
// column names; a whole-table partition or a relation without selections
// prunes nothing.
func (g *Graph) Prunes(i int, p *catalog.Partition) bool {
	if len(g.Local[i]) == 0 || p.Predicate == nil {
		return false
	}
	if g.sels == nil {
		g.sels = make([]*expr.Selection, len(g.From))
	}
	if g.sels[i] == nil {
		g.sels[i] = expr.AnalyzeSelection(g.Local[i])
	}
	return g.sels[i].Disjoint(p.Selection())
}

// Relevant lists, in definition order, the partitions of relation i that its
// selections do not prune: the fragments the query actually needs.
func (g *Graph) Relevant(sch *catalog.Schema, i int) []string {
	var out []string
	for _, p := range sch.Partitions(g.From[i].Name) {
		if !g.Prunes(i, p) {
			out = append(out, p.ID)
		}
	}
	return out
}
