// Package sqlparse implements the SQL subset used by the query trading
// engine: select-project-join blocks with aggregation, grouping, ordering and
// UNION [ALL], i.e. the query class the paper optimizes. It provides a lexer,
// a recursive-descent parser producing expr-based ASTs, and an SQL printer so
// queries can be shipped between nodes as text (the trading messages carry
// SQL, exactly as in the paper's examples).
package sqlparse

import (
	"strconv"
	"strings"

	"qtrade/internal/expr"
)

// Stmt is a parsed query: either *Select or *Union.
type Stmt interface {
	// SQL renders the statement back to parseable SQL text.
	SQL() string
	stmt()
}

// SelectItem is one projection of a SELECT list. Star marks a bare `*`.
type SelectItem struct {
	Expr  expr.Expr
	Alias string
	Star  bool
}

// TableRef is a FROM-list entry. Alias is the exposed name (defaults to the
// table name when no alias was written).
type TableRef struct {
	Name  string
	Alias string
}

// Binding returns the name by which columns reference this table.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr expr.Expr
	Desc bool
}

// Select is a single SPJ(+aggregate) block. JOIN ... ON syntax is normalized
// at parse time into the FROM list plus WHERE conjuncts. Limit is -1 when
// absent.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    expr.Expr
	GroupBy  []expr.Expr
	Having   expr.Expr
	OrderBy  []OrderItem
	Limit    int64
}

// Union is a UNION or UNION ALL chain of SELECT blocks.
type Union struct {
	Inputs []*Select
	All    bool
}

func (*Select) stmt() {}
func (*Union) stmt()  {}

// SQL renders the select block.
func (s *Select) SQL() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		if it.Star {
			sb.WriteString("*")
			continue
		}
		sb.WriteString(it.Expr.String())
		if it.Alias != "" {
			sb.WriteString(" AS ")
			sb.WriteString(it.Alias)
		}
	}
	sb.WriteString(" FROM ")
	for i, t := range s.From {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(t.Name)
		if t.Alias != "" && !strings.EqualFold(t.Alias, t.Name) {
			sb.WriteString(" ")
			sb.WriteString(t.Alias)
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.String())
		}
	}
	if s.Having != nil {
		sb.WriteString(" HAVING ")
		sb.WriteString(s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.Expr.String())
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		sb.WriteString(" LIMIT ")
		sb.WriteString(strconv.FormatInt(s.Limit, 10))
	}
	return sb.String()
}

// SQL renders the union chain.
func (u *Union) SQL() string {
	sep := " UNION "
	if u.All {
		sep = " UNION ALL "
	}
	parts := make([]string, len(u.Inputs))
	for i, s := range u.Inputs {
		parts[i] = s.SQL()
	}
	return strings.Join(parts, sep)
}

// Clone deep-copies the select block.
func (s *Select) Clone() *Select {
	out := &Select{Distinct: s.Distinct, Limit: s.Limit}
	for _, it := range s.Items {
		ni := SelectItem{Alias: it.Alias, Star: it.Star}
		if it.Expr != nil {
			ni.Expr = expr.Clone(it.Expr)
		}
		out.Items = append(out.Items, ni)
	}
	out.From = append(out.From, s.From...)
	if s.Where != nil {
		out.Where = expr.Clone(s.Where)
	}
	for _, g := range s.GroupBy {
		out.GroupBy = append(out.GroupBy, expr.Clone(g))
	}
	if s.Having != nil {
		out.Having = expr.Clone(s.Having)
	}
	for _, o := range s.OrderBy {
		out.OrderBy = append(out.OrderBy, OrderItem{Expr: expr.Clone(o.Expr), Desc: o.Desc})
	}
	return out
}

// HasAggregates reports whether any select item or HAVING uses an aggregate.
func (s *Select) HasAggregates() bool {
	for _, it := range s.Items {
		if it.Expr != nil && expr.HasAgg(it.Expr) {
			return true
		}
	}
	return s.Having != nil && expr.HasAgg(s.Having)
}

// FindFrom returns the FROM entry whose binding matches name (case
// insensitive), or nil.
func (s *Select) FindFrom(name string) *TableRef {
	for i := range s.From {
		if strings.EqualFold(s.From[i].Binding(), name) {
			return &s.From[i]
		}
	}
	return nil
}
