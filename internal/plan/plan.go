// Package plan defines the operator trees shared by the local optimizers,
// the buyer plan generator and the executor. A plan combines local operators
// (scan, filter, project, join, aggregate, sort, union) with Remote nodes,
// which stand for query-answers purchased from other federation nodes during
// trading — the executor resolves them by actually fetching the answer.
package plan

import (
	"fmt"
	"strings"

	"qtrade/internal/catalog"
	"qtrade/internal/expr"
)

// Node is one operator of a plan tree. Expressions held by nodes are
// unbound; the executor binds them against child schemas when it runs the
// plan, so plans can be freely rewritten and shipped.
type Node interface {
	// Schema lists the output columns in order.
	Schema() []expr.ColumnID
	// Children returns input operators.
	Children() []Node
	// Describe renders a one-line operator summary for EXPLAIN output.
	Describe() string
}

// Card is an optional estimated-cardinality annotation embedded in the
// operator structs. The buyer plan generator stamps it on operators as it
// assembles candidates (a plain field store, so the DP hot path pays no
// side-table cost) and EXPLAIN ANALYZE reads it back to print estimates
// next to actuals. Zero means "not annotated".
type Card struct {
	// Est is the estimated number of output rows (0 = unknown).
	Est int64
}

func (c *Card) card() *Card { return c }

type carded interface{ card() *Card }

// SetEst stamps the row estimate on n when its operator type carries a Card.
func SetEst(n Node, rows int64) {
	if c, ok := n.(carded); ok {
		c.card().Est = rows
	}
}

// EstOf reads n's row estimate; ok is false when n is un-annotated. Remote
// nodes always know theirs (the seller's offered cardinality).
func EstOf(n Node) (rows int64, ok bool) {
	if r, isRemote := n.(*Remote); isRemote {
		return r.EstRows, true
	}
	if c, isCarded := n.(carded); isCarded && c.card().Est != 0 {
		return c.card().Est, true
	}
	return 0, false
}

// Scan reads one fragment of a table, exposing columns under Alias.
type Scan struct {
	Card
	Def    *catalog.TableDef
	Alias  string
	PartID string
	Pred   expr.Expr // optional pushed-down filter
}

// Schema implements Node.
func (s *Scan) Schema() []expr.ColumnID { return s.Def.ColumnIDs(s.Alias) }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// Describe implements Node.
func (s *Scan) Describe() string {
	out := fmt.Sprintf("Scan %s/%s as %s", s.Def.Name, s.PartID, s.Alias)
	if s.Pred != nil {
		out += " filter " + s.Pred.String()
	}
	return out
}

// Filter drops rows not satisfying Pred.
type Filter struct {
	Card
	Input Node
	Pred  expr.Expr
}

func (f *Filter) Schema() []expr.ColumnID { return f.Input.Schema() }
func (f *Filter) Children() []Node        { return []Node{f.Input} }
func (f *Filter) Describe() string        { return "Filter " + f.Pred.String() }

// Project computes output expressions. Names supplies the exposed column
// identities (same length as Exprs).
type Project struct {
	Card
	Input Node
	Exprs []expr.Expr
	Names []expr.ColumnID
}

func (p *Project) Schema() []expr.ColumnID { return p.Names }
func (p *Project) Children() []Node        { return []Node{p.Input} }
func (p *Project) Describe() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return "Project " + strings.Join(parts, ", ")
}

// Join combines two inputs on a predicate. When every conjunct of On is an
// equality between one left and one right column the executor uses a hash
// join, otherwise nested loops. A nil On is a cross product.
type Join struct {
	Card
	L, R Node
	On   expr.Expr
}

func (j *Join) Schema() []expr.ColumnID {
	return append(append([]expr.ColumnID{}, j.L.Schema()...), j.R.Schema()...)
}
func (j *Join) Children() []Node { return []Node{j.L, j.R} }
func (j *Join) Describe() string {
	if j.On == nil {
		return "CrossJoin"
	}
	return "Join on " + j.On.String()
}

// AggItem is one aggregate computed by an Aggregate node.
type AggItem struct {
	Agg  *expr.Agg
	Name expr.ColumnID
}

// Aggregate groups by the GroupBy expressions and computes Aggs per group.
// Output schema is [group columns..., aggregate columns...]. GroupNames
// supplies identities for the group columns.
type Aggregate struct {
	Card
	Input      Node
	GroupBy    []expr.Expr
	GroupNames []expr.ColumnID
	Aggs       []AggItem
}

func (a *Aggregate) Schema() []expr.ColumnID {
	out := append([]expr.ColumnID{}, a.GroupNames...)
	for _, it := range a.Aggs {
		out = append(out, it.Name)
	}
	return out
}
func (a *Aggregate) Children() []Node { return []Node{a.Input} }
func (a *Aggregate) Describe() string {
	var parts []string
	for _, g := range a.GroupBy {
		parts = append(parts, g.String())
	}
	var aggs []string
	for _, it := range a.Aggs {
		aggs = append(aggs, it.Agg.String())
	}
	return "Aggregate [" + strings.Join(parts, ", ") + "] " + strings.Join(aggs, ", ")
}

// SortKey is one ORDER BY key.
type SortKey struct {
	Expr expr.Expr
	Desc bool
}

// Sort orders rows by Keys.
type Sort struct {
	Card
	Input Node
	Keys  []SortKey
}

func (s *Sort) Schema() []expr.ColumnID { return s.Input.Schema() }
func (s *Sort) Children() []Node        { return []Node{s.Input} }
func (s *Sort) Describe() string {
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		parts[i] = k.Expr.String()
		if k.Desc {
			parts[i] += " DESC"
		}
	}
	return "Sort " + strings.Join(parts, ", ")
}

// Limit passes at most N rows.
type Limit struct {
	Card
	Input Node
	N     int64
}

func (l *Limit) Schema() []expr.ColumnID { return l.Input.Schema() }
func (l *Limit) Children() []Node        { return []Node{l.Input} }
func (l *Limit) Describe() string        { return fmt.Sprintf("Limit %d", l.N) }

// Distinct removes duplicate rows.
type Distinct struct {
	Card
	Input Node
}

func (d *Distinct) Schema() []expr.ColumnID { return d.Input.Schema() }
func (d *Distinct) Children() []Node        { return []Node{d.Input} }
func (d *Distinct) Describe() string        { return "Distinct" }

// Union concatenates inputs (schemas must be union-compatible by position).
// When All is false a Distinct must be applied by the builder; Union itself
// always behaves as UNION ALL.
type Union struct {
	Card
	Inputs []Node
}

func (u *Union) Schema() []expr.ColumnID {
	if len(u.Inputs) == 0 {
		return nil
	}
	return u.Inputs[0].Schema()
}
func (u *Union) Children() []Node { return u.Inputs }
func (u *Union) Describe() string { return fmt.Sprintf("UnionAll (%d inputs)", len(u.Inputs)) }

// Empty yields no rows under the given schema: the FROM rows of a query whose
// WHERE clause is known false before anything is read.
type Empty struct {
	Cols []expr.ColumnID
}

func (e *Empty) Schema() []expr.ColumnID { return e.Cols }
func (e *Empty) Children() []Node        { return nil }
func (e *Empty) Describe() string        { return "Empty" }

// Remote is a purchased query-answer: the named seller node evaluates SQL
// and ships the result. Cols is the result schema the buyer exposes to the
// rest of the plan (qualified by Binding). The Est* fields carry the seller's
// offered properties for cost accounting and EXPLAIN.
type Remote struct {
	NodeID  string
	SQL     string
	Binding string
	Cols    []expr.ColumnID
	EstRows int64
	EstCost float64
	OfferID string
}

func (r *Remote) Schema() []expr.ColumnID { return r.Cols }
func (r *Remote) Children() []Node        { return nil }
func (r *Remote) Describe() string {
	return fmt.Sprintf("Remote[%s] cost=%.1f rows=%d: %s", r.NodeID, r.EstCost, r.EstRows, r.SQL)
}

// ViewScan reads a locally stored materialized view.
type ViewScan struct {
	Card
	Name string
	Cols []expr.ColumnID
	Pred expr.Expr
}

func (v *ViewScan) Schema() []expr.ColumnID { return v.Cols }
func (v *ViewScan) Children() []Node        { return nil }
func (v *ViewScan) Describe() string {
	out := "ViewScan " + v.Name
	if v.Pred != nil {
		out += " filter " + v.Pred.String()
	}
	return out
}

// Explain renders the tree as an indented multi-line string.
func Explain(n Node) string {
	var sb strings.Builder
	var walk func(Node, int)
	walk = func(x Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(x.Describe())
		sb.WriteString("\n")
		for _, c := range x.Children() {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return sb.String()
}

// Remotes collects every Remote node of the plan in visit order.
func Remotes(n Node) []*Remote {
	var out []*Remote
	var walk func(Node)
	walk = func(x Node) {
		if r, ok := x.(*Remote); ok {
			out = append(out, r)
		}
		for _, c := range x.Children() {
			walk(c)
		}
	}
	walk(n)
	return out
}

// CountNodes returns the number of operators in the tree.
func CountNodes(n Node) int {
	count := 1
	for _, c := range n.Children() {
		count += CountNodes(c)
	}
	return count
}
