// Package sqlparse implements the SQL subset used by the query trading
// engine: one select-project-join block per text, with aggregation, grouping,
// ordering and LIMIT, i.e. the query class the paper trades. A union of
// partitions is the buyer's plan operator (plan.Union), never a text. It
// provides a lexer, a recursive-descent parser producing expr-based ASTs, and
// an SQL printer so queries can be shipped between nodes as text (the trading
// messages carry SQL, exactly as in the paper's examples).
package sqlparse

import (
	"slices"
	"strconv"
	"strings"

	"qtrade/internal/expr"
)

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
			sb.WriteString(expr.QuoteName(it.Alias))
		}
	}
	sb.WriteString(" FROM ")
	for i, t := range s.From {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(expr.QuoteName(t.Name))
		if t.Alias != "" && !strings.EqualFold(t.Alias, t.Name) {
			sb.WriteString(" ")
			sb.WriteString(expr.QuoteName(t.Alias))
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

// Clone copies the select block's own slices — items, FROM, GROUP BY, ORDER
// BY — so a caller may set or append to them; the expressions in them are
// shared, since no expression is written after it is built.
func (s *Select) Clone() *Select {
	out := *s
	out.Items = slices.Clone(s.Items)
	out.From = slices.Clone(s.From)
	out.GroupBy = slices.Clone(s.GroupBy)
	out.OrderBy = slices.Clone(s.OrderBy)
	return &out
}

// Aggregates reports whether the block aggregates: it has a GROUP BY, or an
// aggregate call in a select item or HAVING.
func (s *Select) Aggregates() bool {
	if len(s.GroupBy) > 0 {
		return true
	}
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
