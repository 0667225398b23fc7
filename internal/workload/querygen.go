package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"qtrade/internal/catalog"
	"qtrade/internal/expr"
	"qtrade/internal/value"
)

// GenQuery is one select-project-join query drawn from a federation's own
// catalog, kept in parts so that a shrinker can take it apart: the relations
// of its FROM list, the equi-joins that connect them, its other conjuncts and
// the columns it projects. Rel fields index Rels.
type GenQuery struct {
	Rels  []GenRel
	Joins []GenJoin
	Where []GenConj
	Cols  []GenCol
}

// GenRel is one FROM entry; an empty Alias binds the table by its name.
type GenRel struct{ Table, Alias string }

// GenJoin is the conjunct L.LCol = R.RCol.
type GenJoin struct {
	L, R       int
	LCol, RCol string
}

// GenConj is a conjunct over relation Rel's column Col, printed as the
// qualified column followed by Pred; Rel -1 is a constant conjunct, Pred alone.
type GenConj struct {
	Rel       int
	Col, Pred string
}

// GenCol is one projected column.
type GenCol struct {
	Rel int
	Col string
}

func (q GenQuery) binding(i int) string {
	r := q.Rels[i]
	if r.Alias != "" {
		return expr.QuoteName(r.Alias)
	}
	return r.Table
}

// SQL prints the query.
func (q GenQuery) SQL() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i, c := range q.Cols {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(q.binding(c.Rel) + "." + c.Col)
	}
	sb.WriteString(" FROM ")
	for i, r := range q.Rels {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(r.Table)
		if r.Alias != "" {
			sb.WriteString(" " + expr.QuoteName(r.Alias))
		}
	}
	var where []string
	for _, j := range q.Joins {
		where = append(where, fmt.Sprintf("%s.%s = %s.%s", q.binding(j.L), j.LCol, q.binding(j.R), j.RCol))
	}
	for _, c := range q.Where {
		if c.Rel < 0 {
			where = append(where, c.Pred)
		} else {
			where = append(where, q.binding(c.Rel)+"."+c.Col+" "+c.Pred)
		}
	}
	if len(where) > 0 {
		sb.WriteString(" WHERE " + strings.Join(where, " AND "))
	}
	return sb.String()
}

// QueryGen draws GenQuerys over one schema from its own seeded source: a
// connected join subgraph of the schema's join edges, local predicates on the
// partition boundaries and on boundary values (NULL, all-NULL IN lists, int64
// extremes, ±0.0, strings that need quoting), IN, BETWEEN and constant
// conjuncts.
type QueryGen struct {
	sch    *catalog.Schema
	rng    *rand.Rand
	tables []*catalog.TableDef
	edges  []genEdge
}

// genEdge is a join edge between two tables of the schema (indexes into
// QueryGen.tables).
type genEdge struct {
	a, b       int
	aCol, bCol string
}

// NewQueryGen returns a generator over sch. Two tables join where the first
// is r<k> with an fk column and the second r<k+1> with a pk column (the chain
// schema), or on a column name they share other than pk, fk and v (the telco
// schema's custid).
func NewQueryGen(sch *catalog.Schema, seed int64) *QueryGen {
	g := &QueryGen{sch: sch, rng: rand.New(rand.NewSource(seed)), tables: sch.Tables()}
	for i, a := range g.tables {
		for j, b := range g.tables {
			if i == j {
				continue
			}
			if hasCol(a, "fk") && hasCol(b, "pk") && chainNext(a.Name) == strings.ToLower(b.Name) {
				g.edges = append(g.edges, genEdge{i, j, "fk", "pk"})
			}
			if i < j {
				for _, c := range a.Columns {
					if n := strings.ToLower(c.Name); n != "pk" && n != "fk" && n != "v" && hasCol(b, n) {
						g.edges = append(g.edges, genEdge{i, j, c.Name, c.Name})
					}
				}
			}
		}
	}
	return g
}

// chainNext names the relation after r<k> in a chain schema, or "".
func chainNext(name string) string {
	var k int
	if _, err := fmt.Sscanf(strings.ToLower(name), "r%d", &k); err != nil || fmt.Sprintf("r%d", k) != strings.ToLower(name) {
		return ""
	}
	return fmt.Sprintf("r%d", k+1)
}

func hasCol(t *catalog.TableDef, name string) bool {
	return slices.ContainsFunc(t.Columns, func(c catalog.ColumnDef) bool { return strings.EqualFold(c.Name, name) })
}

// genAliases are the aliases a relation may take: none, plain ones, and
// names that print only in quotes.
var genAliases = []string{"", "", "", "a", "b2", "from", "Select", "my rel", "x-y"}

// Next draws the next query.
func (g *QueryGen) Next() GenQuery {
	rng := g.rng
	var q GenQuery
	picked := []int{rng.Intn(len(g.tables))}
	want := 1 + rng.Intn(min(4, len(g.tables)))
	for len(picked) < want {
		var grow []genEdge
		for _, e := range g.edges {
			if slices.Contains(picked, e.a) != slices.Contains(picked, e.b) {
				grow = append(grow, e)
			}
		}
		if len(grow) == 0 {
			break
		}
		e := grow[rng.Intn(len(grow))]
		if slices.Contains(picked, e.a) {
			picked = append(picked, e.b)
		} else {
			picked = append(picked, e.a)
		}
	}
	used := map[string]bool{}
	for _, ti := range picked {
		alias := genAliases[rng.Intn(len(genAliases))]
		if used[strings.ToLower(alias)] {
			alias = ""
		}
		used[strings.ToLower(alias)] = alias != ""
		q.Rels = append(q.Rels, GenRel{Table: g.tables[ti].Name, Alias: alias})
	}
	for _, e := range g.edges {
		ia, ib := slices.Index(picked, e.a), slices.Index(picked, e.b)
		if ia >= 0 && ib >= 0 {
			q.Joins = append(q.Joins, GenJoin{L: ia, R: ib, LCol: e.aCol, RCol: e.bCol})
		}
	}
	for n := rng.Intn(4); n > 0; n-- {
		if rng.Intn(6) == 0 {
			q.Where = append(q.Where, GenConj{Rel: -1, Pred: genConstants[rng.Intn(len(genConstants))]})
			continue
		}
		ri := rng.Intn(len(q.Rels))
		def, _ := g.sch.Table(q.Rels[ri].Table)
		col := def.Columns[rng.Intn(len(def.Columns))]
		q.Where = append(q.Where, GenConj{Rel: ri, Col: col.Name, Pred: g.pred(def, col)})
	}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		ri := rng.Intn(len(q.Rels))
		def, _ := g.sch.Table(q.Rels[ri].Table)
		q.Cols = append(q.Cols, GenCol{Rel: ri, Col: def.Columns[rng.Intn(len(def.Columns))].Name})
	}
	return q
}

// genConstants are conjuncts that name no relation.
var genConstants = []string{"1 = 1", "1 = 0", "NULL IS NULL", "2 > 1", "'a' < 'b'", "NULL = NULL"}

// pred draws the predicate part of a conjunct over col of table def.
func (g *QueryGen) pred(def *catalog.TableDef, col catalog.ColumnDef) string {
	rng := g.rng
	lits := g.literals(def, col)
	lit := func() string { return lits[rng.Intn(len(lits))] }
	switch rng.Intn(10) {
	case 0:
		return fmt.Sprintf("BETWEEN %s AND %s", lit(), lit())
	case 1:
		return fmt.Sprintf("NOT BETWEEN %s AND %s", lit(), lit())
	case 2:
		return fmt.Sprintf("IN (%s, %s, %s)", lit(), lit(), lit())
	case 3:
		return fmt.Sprintf("NOT IN (%s, %s)", lit(), lit())
	case 4:
		return "IN (NULL, NULL)"
	case 5:
		return []string{"IS NULL", "IS NOT NULL", "= NULL", "<> NULL"}[rng.Intn(4)]
	}
	return []string{"=", "<>", "<", "<=", ">", ">="}[rng.Intn(6)] + " " + lit()
}

// literals lists the values worth comparing col with: the boundaries the
// table's partition predicates draw on it (and their neighbours), NULL, and
// the edges of the column's kind.
func (g *QueryGen) literals(def *catalog.TableDef, col catalog.ColumnDef) []string {
	out := []string{"NULL"}
	for _, p := range g.sch.Partitions(def.Name) {
		expr.Walk(p.Predicate, func(e expr.Expr) bool {
			b, ok := e.(*expr.Binary)
			if !ok {
				return true
			}
			c, isCol := b.L.(*expr.Column)
			l, isLit := b.R.(*expr.Lit)
			if !isCol || !isLit || !strings.EqualFold(c.Name, col.Name) {
				return true
			}
			out = append(out, l.String())
			if l.V.K == value.Int {
				out = append(out, fmt.Sprint(l.V.I-1), fmt.Sprint(l.V.I+1), fmt.Sprintf("%d.5", l.V.I))
			}
			return true
		})
	}
	switch col.Kind {
	case value.Int:
		out = append(out, "0", "-1", "9223372036854775807", "-9223372036854775807", "7")
	case value.Float:
		out = append(out, "0.0", "-0.0", "50.5", "99.9", "1e300", "-1e300", "3")
	case value.Str:
		out = append(out, "''", "'it''s'", "'cust3'", "'Corfu'", "'zzz'")
	}
	return out
}

// Shrink returns a smallest form of q that still fails: it drops whole
// relations (with their conjuncts and columns, keeping the rest joined) and
// single conjuncts while fails holds, until no single drop keeps it failing.
func Shrink(q GenQuery, fails func(GenQuery) bool) GenQuery {
	for changed := true; changed; {
		changed = false
		for i := len(q.Rels) - 1; i >= 0 && len(q.Rels) > 1; i-- {
			if s, ok := q.withoutRel(i); ok && fails(s) {
				q, changed = s, true
			}
		}
		for i := len(q.Where) - 1; i >= 0; i-- {
			s := q
			s.Where = slices.Delete(slices.Clone(q.Where), i, i+1)
			if fails(s) {
				q, changed = s, true
			}
		}
		for i := len(q.Cols) - 1; i >= 0 && len(q.Cols) > 1; i-- {
			s := q
			s.Cols = slices.Delete(slices.Clone(q.Cols), i, i+1)
			if fails(s) {
				q, changed = s, true
			}
		}
	}
	return q
}

// withoutRel is q with relation i and everything naming it dropped; false
// when what is left does not stay joined or projects nothing.
func (q GenQuery) withoutRel(i int) (GenQuery, bool) {
	at := func(r int) int {
		if r > i {
			return r - 1
		}
		return r
	}
	s := GenQuery{Rels: slices.Delete(slices.Clone(q.Rels), i, i+1)}
	for _, j := range q.Joins {
		if j.L != i && j.R != i {
			s.Joins = append(s.Joins, GenJoin{L: at(j.L), R: at(j.R), LCol: j.LCol, RCol: j.RCol})
		}
	}
	for _, c := range q.Where {
		if c.Rel != i {
			s.Where = append(s.Where, GenConj{Rel: at(c.Rel), Col: c.Col, Pred: c.Pred})
		}
	}
	for _, c := range q.Cols {
		if c.Rel != i {
			s.Cols = append(s.Cols, GenCol{Rel: at(c.Rel), Col: c.Col})
		}
	}
	reached := map[int]bool{0: true}
	for grew := true; grew; {
		grew = false
		for _, j := range s.Joins {
			if reached[j.L] != reached[j.R] {
				reached[j.L], reached[j.R], grew = true, true, true
			}
		}
	}
	return s, len(s.Cols) > 0 && len(reached) == len(s.Rels)
}
