package qgraph

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"qtrade/internal/catalog"
	"qtrade/internal/expr"
	"qtrade/internal/sqlparse"
	"qtrade/internal/value"
)

// chainSchema is workload.ChainSchema in small: r1..r3(pk, fk, v), each split
// on pk into p0 [0,16) p1 [16,32) p2 [32,48) p3 [48,∞).
func chainSchema() *catalog.Schema {
	sch := catalog.NewSchema()
	for _, name := range []string{"r1", "r2", "r3"} {
		sch.MustAddTable(&catalog.TableDef{Name: name, Columns: []catalog.ColumnDef{
			{Name: "pk", Kind: value.Int}, {Name: "fk", Kind: value.Int}, {Name: "v", Kind: value.Float},
		}})
		parts := []*catalog.Partition{
			{Table: name, ID: "p0", Predicate: sqlparse.MustParseExpr("pk >= 0 AND pk < 16")},
			{Table: name, ID: "p1", Predicate: sqlparse.MustParseExpr("pk >= 16 AND pk < 32")},
			{Table: name, ID: "p2", Predicate: sqlparse.MustParseExpr("pk >= 32 AND pk < 48")},
			{Table: name, ID: "p3", Predicate: sqlparse.MustParseExpr("pk >= 48")},
		}
		if err := sch.SetPartitions(name, parts); err != nil {
			panic(err)
		}
	}
	return sch
}

func strs(es []expr.Expr) []string {
	var out []string
	for _, e := range es {
		out = append(out, e.String())
	}
	return out
}

func TestGraphBuckets(t *testing.T) {
	cases := []struct {
		name     string
		sql      string
		local    [][]string
		edges    []string
		residual []string
	}{
		{"self-join by alias: two relations, each with its own selections",
			"SELECT a.pk FROM r1 a, r1 b WHERE a.fk = b.pk AND a.pk < 10 AND b.pk >= 40",
			[][]string{{"a.pk < 10"}, {"b.pk >= 40"}}, []string{"a.fk = b.pk"}, nil},
		{"a conjunct over three relations is residual",
			"SELECT r1.pk FROM r1, r2, r3 WHERE r1.fk = r2.pk AND r2.fk = r3.pk AND r1.pk + r2.pk < r3.pk + 40",
			[][]string{nil, nil, nil}, []string{"r1.fk = r2.pk", "r2.fk = r3.pk"}, []string{"r1.pk + r2.pk < r3.pk + 40"}},
		{"a disjunction across two relations is an edge",
			"SELECT r1.pk FROM r1, r2 WHERE (r1.pk < 10 OR r2.pk > 50) AND r2.v > 1",
			[][]string{nil, {"r2.v > 1"}}, []string{"r1.pk < 10 OR r2.pk > 50"}, nil},
		{"constants name no relation",
			"SELECT r1.pk FROM r1 WHERE 1 = 0 AND r1.pk < 5 AND 2 < 1",
			[][]string{{"r1.pk < 5"}}, nil, []string{"1 = 0", "2 < 1"}},
		{"a bare column and an unknown qualifier belong to no relation",
			"SELECT r1.pk FROM r1, r2 WHERE pk < 5 AND zz.pk = r1.pk AND r1.fk = r2.pk",
			[][]string{nil, nil}, []string{"r1.fk = r2.pk"}, []string{"pk < 5", "zz.pk = r1.pk"}},
		{"bindings match case-insensitively",
			"SELECT R1.pk FROM r1 WHERE R1.PK < 3", [][]string{{"R1.PK < 3"}}, nil, nil},
		{"no WHERE clause", "SELECT r1.pk FROM r1, r2", [][]string{nil, nil}, nil, nil},
	}
	for _, tc := range cases {
		g := New(sqlparse.MustParseSelect(tc.sql))
		for i := range tc.local {
			if got := strs(g.Local[i]); !slices.Equal(got, tc.local[i]) {
				t.Errorf("%s: Local[%d] = %q, want %q", tc.name, i, got, tc.local[i])
			}
		}
		var edges []string
		for _, e := range g.Edges {
			edges = append(edges, e.Pred.String())
			if n := len(strs(g.Connecting(e.Mask&-e.Mask, e.Mask&(e.Mask-1)))); n == 0 {
				t.Errorf("%s: edge %s does not connect its own two relations", tc.name, e.Pred)
			}
		}
		if !slices.Equal(edges, tc.edges) {
			t.Errorf("%s: Edges = %q, want %q", tc.name, edges, tc.edges)
		}
		if got := strs(g.Residual); !slices.Equal(got, tc.residual) {
			t.Errorf("%s: Residual = %q, want %q", tc.name, got, tc.residual)
		}
	}
}

func TestGraphConnectedIgnoresResidual(t *testing.T) {
	g := New(sqlparse.MustParseSelect(
		"SELECT r1.pk FROM r1, r2, r3 WHERE r1.fk = r2.pk AND r2.fk = r3.pk AND r1.pk + r2.pk < r3.pk + 40"))
	r1, r2, r3 := uint(1), uint(2), uint(4)
	if !g.Connected(r1, r2) || !g.Connected(r2, r3) || !g.Connected(r1|r2, r3) {
		t.Error("chain edges must connect")
	}
	if g.Connected(r1, r3) {
		t.Error("the three-relation conjunct must not connect r1 to r3")
	}
	if got := strs(g.Connecting(r1|r2, r3)); !slices.Equal(got, []string{"r2.fk = r3.pk"}) {
		t.Errorf("Connecting({r1,r2},{r3}) = %q", got)
	}
	if got := g.Connecting(r1, r3); got != nil {
		t.Errorf("Connecting(r1, r3) = %q, want none", strs(got))
	}
}

func TestGraphWithin(t *testing.T) {
	g := New(sqlparse.MustParseSelect("SELECT r1.pk FROM r1, r2, r3 WHERE " +
		"r3.v > 2 AND r1.fk = r2.pk AND 1 = 1 AND r1.pk < 9 AND zz.v = 1 AND fk = 3 AND r2.fk = r3.pk AND r1.v + r2.v > r3.v"))
	cases := []struct {
		set  []string
		want []string
	}{
		{[]string{"r1"}, []string{"1 = 1", "r1.pk < 9"}},
		{[]string{"R2", "r1"}, []string{"r1.fk = r2.pk", "1 = 1", "r1.pk < 9"}},
		{[]string{"r3", "nobody"}, []string{"r3.v > 2", "1 = 1"}},
		{nil, []string{"1 = 1"}},
		// The whole query: everything but the two conjuncts of no relation.
		{[]string{"r1", "r2", "r3"}, []string{"r3.v > 2", "r1.fk = r2.pk", "1 = 1", "r1.pk < 9", "r2.fk = r3.pk", "r1.v + r2.v > r3.v"}},
	}
	for _, tc := range cases {
		var set uint
		for _, b := range tc.set {
			if i, ok := g.Index(b); ok {
				set |= 1 << i
			}
		}
		if got := strs(g.Within(set)); !slices.Equal(got, tc.want) {
			t.Errorf("Within(%v) = %q, want %q", tc.set, got, tc.want)
		}
	}
	if i, ok := g.Index("R3"); !ok || i != 2 {
		t.Errorf("Index(R3) = %d, %v", i, ok)
	}
	if _, ok := g.Index(""); ok {
		t.Error("the empty qualifier names no relation")
	}
}

// The graph hands out the query's own conjuncts, shared and never copied (an
// expression is never written), and nothing it does changes the query.
func TestGraphHandsOutItsOwnConjuncts(t *testing.T) {
	sel := sqlparse.MustParseSelect("SELECT r1.pk FROM r1, r2 WHERE r1.pk < 9 AND r1.v > 1 AND r1.fk = r2.pk")
	before := sel.Where.String()
	own := expr.Conjuncts(sel.Where)
	g := New(sel)
	lp := g.LocalPred(0)
	if lp.String() != "r1.pk < 9 AND r1.v > 1" {
		t.Fatalf("LocalPred(0) = %s", lp)
	}
	if g.LocalPred(1) != nil {
		t.Error("a relation without selections has no local predicate")
	}
	for _, got := range []struct {
		name string
		list []expr.Expr
		want []expr.Expr
	}{
		{"LocalPred(0)", expr.Conjuncts(lp), own[:2]},
		{"Within(3)", g.Within(3), own},
		{"Connecting(1, 2)", g.Connecting(1, 2), own[2:]},
	} {
		if len(got.list) != len(got.want) {
			t.Fatalf("%s = %v, want %v", got.name, got.list, got.want)
		}
		for k := range got.list {
			if got.list[k] != got.want[k] {
				t.Errorf("%s hands out a copy of %s", got.name, got.want[k])
			}
		}
	}
	if !g.Prunes(0, &catalog.Partition{Table: "r1", ID: "high", Predicate: sqlparse.MustParseExpr("pk > 20")}) {
		t.Error("pk > 20 must be pruned by r1.pk < 9")
	}
	if sel.Where.String() != before {
		t.Errorf("the graph changed the query: %s", sel.Where)
	}
}

func TestRelevantPartitions(t *testing.T) {
	sch := catalog.NewSchema()
	sch.MustAddTable(&catalog.TableDef{Name: "customer", Columns: []catalog.ColumnDef{
		{Name: "custid", Kind: value.Int}, {Name: "office", Kind: value.Str}}})
	sch.MustAddTable(&catalog.TableDef{Name: "invoiceline", Columns: []catalog.ColumnDef{
		{Name: "custid", Kind: value.Int}, {Name: "charge", Kind: value.Float}}})
	if err := sch.SetPartitions("customer", []*catalog.Partition{
		{Table: "customer", ID: "corfu", Predicate: sqlparse.MustParseExpr("office = 'Corfu'")},
		{Table: "customer", ID: "myconos", Predicate: sqlparse.MustParseExpr("office = 'Myconos'")},
		{Table: "customer", ID: "athens", Predicate: sqlparse.MustParseExpr("office = 'Athens'")},
	}); err != nil {
		t.Fatal(err)
	}
	relevant := func(sql string, i int) []string {
		return New(sqlparse.MustParseSelect(sql)).Relevant(sch, i)
	}
	if got := relevant("SELECT c.custid FROM customer c WHERE c.office IN ('Corfu', 'Myconos')", 0); !slices.Equal(got, []string{"corfu", "myconos"}) {
		t.Fatalf("relevant: %v", got)
	}
	if got := relevant("SELECT c.custid FROM customer c", 0); len(got) != 3 {
		t.Fatalf("no selection keeps all: %v", got)
	}
	if got := relevant("SELECT c.custid FROM customer c WHERE c.office = 'Athens' AND c.custid > 3", 0); !slices.Equal(got, []string{"athens"}) {
		t.Fatalf("athens only: %v", got)
	}
	if got := relevant("SELECT c.custid FROM customer c WHERE c.office = 'Paris'", 0); got != nil {
		t.Fatalf("no office matches: %v", got)
	}
	// A self-join prunes each side by its own selections; another relation's
	// selections, an edge and a whole-table partition prune nothing.
	const self = "SELECT a.custid FROM customer a, customer b, invoiceline i " +
		"WHERE a.custid = b.custid AND a.office = 'Corfu' AND b.office <> 'Corfu' AND i.charge < 0 AND i.charge > 1"
	if a, b := relevant(self, 0), relevant(self, 1); !slices.Equal(a, []string{"corfu"}) || !slices.Equal(b, []string{"myconos", "athens"}) {
		t.Fatalf("self-join: a %v, b %v", a, b)
	}
	if got := relevant(self, 2); !slices.Equal(got, []string{"p0"}) {
		t.Fatalf("whole-table partition: %v", got)
	}
	athens, _ := sch.Partition("customer", "athens")
	if New(sqlparse.MustParseSelect("SELECT x.custid FROM customer x")).Prunes(0, athens) ||
		!New(sqlparse.MustParseSelect("SELECT x.custid FROM customer x WHERE x.office = 'Corfu'")).Prunes(0, athens) {
		t.Fatal("Prunes: a relation without selections prunes nothing; qualifiers are ignored")
	}
}

// prunesReference is the partition test as it was before selections were
// analysed once: the conjunction of both predicates over bare names, copied,
// simplified and tested for a contradiction, per pair. Prunes must agree with
// it on every pair.
func prunesReference(pred expr.Expr, p *catalog.Partition) bool {
	if pred == nil || p.Predicate == nil {
		return false
	}
	both := expr.And([]expr.Expr{expr.Unqualify(pred), expr.Unqualify(p.Predicate)})
	return expr.Unsatisfiable(expr.Simplify(both))
}

// randomSelection prints a conjunction of up to max conjuncts over the
// columns pk, fk, v and office, each qualified by q: comparisons either way
// round, IN / NOT IN lists, BETWEEN, negations, foldable arithmetic, literals
// of every kind and NULL, and conjuncts that fold to a constant.
func randomSelection(rng *rand.Rand, q string, max int) string {
	col := func() string { return q + []string{"pk", "pk", "fk", "v", "office"}[rng.Intn(5)] }
	lit := func() string {
		switch rng.Intn(12) {
		case 0:
			return "NULL"
		case 1:
			return fmt.Sprintf("%d.5", rng.Intn(8))
		case 2:
			return fmt.Sprintf("'%c'", 'a'+rune(rng.Intn(3)))
		case 3:
			return fmt.Sprintf("%d + %d", rng.Intn(4), rng.Intn(4))
		case 4:
			return fmt.Sprintf("-(%d)", rng.Intn(3))
		case 5:
			return "TRUE"
		}
		return fmt.Sprint(rng.Intn(8))
	}
	list := func() string {
		items := make([]string, 1+rng.Intn(3))
		for i := range items {
			items[i] = lit()
		}
		return strings.Join(items, ", ")
	}
	op := func() string { return []string{"=", "=", "<>", "<", "<=", ">", ">="}[rng.Intn(7)] }
	var atom func(depth int) string
	atom = func(depth int) string {
		switch k := rng.Intn(16); {
		case k < 5:
			return col() + " " + op() + " " + lit()
		case k < 7:
			return lit() + " " + op() + " " + col()
		case k == 7:
			return col() + " IN (" + list() + ")"
		case k == 8:
			return col() + " NOT IN (" + list() + ")"
		case k == 9:
			return col() + " BETWEEN " + lit() + " AND " + lit()
		case k == 10:
			return col() + " NOT BETWEEN " + lit() + " AND " + lit()
		case k == 11:
			return col() + " IS NULL"
		case k == 12 && depth < 2:
			return "NOT (" + atom(depth+1) + ")"
		case k == 13 && depth < 2:
			return "NOT (" + atom(depth+1) + " AND " + atom(depth+1) + ")"
		case k == 14 && depth < 2:
			return "(" + atom(depth+1) + " OR " + []string{"FALSE", "TRUE", "1 = 0", atom(depth + 1)}[rng.Intn(4)] + ")"
		}
		// Folds to a constant, but names the relation: it stays a selection.
		return "(" + col() + " < 0 AND " + []string{"1 = 0", "FALSE", "2 > 1", "NULL = 1"}[rng.Intn(4)] + ")"
	}
	conj := make([]string, 1+rng.Intn(max))
	for i := range conj {
		conj[i] = atom(0)
	}
	return strings.Join(conj, " AND ")
}

// TestPrunesMatchesReference: the range comparison decides every (selection,
// partition) pair as simplifying their conjunction did.
func TestPrunesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	parts := []*catalog.Partition{{Table: "t", ID: "whole"}}
	for k := 0; k < 60; k++ {
		parts = append(parts, &catalog.Partition{Table: "t", ID: fmt.Sprint("p", k),
			Predicate: sqlparse.MustParseExpr(randomSelection(rng, "", 3))})
	}
	pruned, kept := 0, 0
	for k := 0; k < 400; k++ {
		sql := "SELECT t.pk FROM t WHERE " + randomSelection(rng, "t.", 4)
		g := New(sqlparse.MustParseSelect(sql))
		pred := expr.And(g.Local[0])
		for _, p := range parts {
			got, want := g.Prunes(0, p), prunesReference(pred, p)
			if got != want {
				t.Fatalf("%s\nagainst partition %v: Prunes = %v, reference %v", sql, p.Predicate, got, want)
			}
			if got {
				pruned++
			} else {
				kept++
			}
		}
	}
	if pruned < 1000 || kept < 1000 {
		t.Fatalf("%d pairs pruned, %d kept: the generator exercises one outcome only", pruned, kept)
	}
}

// BenchmarkPrunes is one relation of one query tested against its 14 range
// partitions, as a seller's rewrite does it: the selections are analysed once,
// the partitions were analysed by an earlier query.
func BenchmarkPrunes(b *testing.B) {
	var parts []*catalog.Partition
	for k := 0; k < 14; k++ {
		parts = append(parts, &catalog.Partition{Table: "r1", ID: fmt.Sprint("p", k),
			Predicate: sqlparse.MustParseExpr(fmt.Sprintf("pk >= %d AND pk < %d", 16*k, 16*k+16))})
	}
	sel := sqlparse.MustParseSelect("SELECT r1.pk FROM r1, r2 WHERE r1.fk = r2.pk AND r1.pk >= 40 AND r1.pk < 100")
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		g, n := New(sel), 0
		for _, p := range parts {
			if g.Prunes(0, p) {
				n++
			}
		}
		if n != 9 {
			b.Fatalf("%d of 14 partitions pruned, want 9", n)
		}
	}
}

// fuzzFrom binds every name the seed corpus uses.
const fuzzFrom = "SELECT r1.pk FROM r1, r2, r3, r1 a, r1 b, customer c, invoiceline i, fact, dim1 WHERE "

// FuzzGraph checks, on arbitrary WHERE clauses, that classification loses and
// duplicates nothing, that the whole query can evaluate every conjunct that
// names only FROM relations, that the partition test decides as its reference
// does, and that pruning is sound: a pk value that
// satisfies a relation's selections and a partition's predicate puts that
// partition among the relevant ones.
func FuzzGraph(f *testing.F) {
	for _, where := range []string{
		// internal/node/sqllogic_test.go
		"c.office = 'Corfu'", "c.custid > 2 AND c.custid <= 5", "c.custid IN (1, 5)", "c.custid NOT IN (1, 5)",
		"c.custid BETWEEN 2 AND 3", "NOT c.office = 'Corfu'", "c.office = 'Corfu' OR c.custid = 5", "c.custid % 2 = 0",
		"c.custid = i.custid AND i.charge > 9", "a.office = b.office AND a.custid < b.custid", "c.custname IS NOT NULL",
		"c.custname < 'bz' AND c.custname > 'am'", "c.custid < 3 AND 1 = 0", "2 < 1 AND c.custid < 3",
		// workload.ChainQuery, TotalsQuery, StarQuery and the fuzz test's edge list
		"r1.fk = r2.pk AND r2.fk = r3.pk AND r1.pk < 200", "c.custid = i.custid AND c.office IN ('Corfu', 'Myconos')",
		"fact.d1 = dim1.pk AND fact.pk < 50", "a.fk = b.pk AND a.pk < 20", "r1.fk = r2.pk AND r1.pk + r2.pk < r3.pk + 40",
		"r1.fk = r2.pk AND (r1.pk < 10 OR r2.pk > 50)", "r1.pk < r2.pk", "r1.pk < 5 AND r2.pk >= 25",
		"r1.pk < 30 AND r1.pk < 20", "r1.fk = r2.pk AND 1 = 1", "r1.pk < 10 AND r1.pk > 30", "pk < 5 AND zz.pk = 1",
		"r2.pk >= 16 AND r2.pk < 32 AND NOT r2.pk = 20", "r3.pk BETWEEN 40 AND 50 OR r3.pk = 3", "r1.pk <> 7 AND r1.pk IN (7, 15, 16)",
	} {
		f.Add(where)
	}
	sch := chainSchema()
	f.Fuzz(func(t *testing.T, where string) {
		sel, err := sqlparse.ParseSelect(fuzzFrom + where)
		if err != nil || sel.Where == nil || len(sel.From) != 9 {
			t.Skip()
		}
		g := New(sel)
		conj := expr.Conjuncts(sel.Where)
		n := len(g.Edges) + len(g.Residual)
		for i := range g.Local {
			n += len(g.Local[i])
		}
		if n != len(conj) {
			t.Fatalf("%d conjuncts classified into %d", len(conj), n)
		}
		var inFrom []string
		for _, c := range conj {
			if !slices.ContainsFunc(expr.Columns(c), func(col *expr.Column) bool { _, ok := g.Index(col.Table); return !ok }) {
				inFrom = append(inFrom, c.String())
			}
		}
		if got := strs(g.Within(1<<len(sel.From) - 1)); !slices.Equal(got, inFrom) {
			t.Fatalf("Within(all) = %q, want %q", got, inFrom)
		}
		// Every relation's selections against every other's, standing in for a
		// partition predicate: the range comparison and the reference agree.
		for i := range sel.From {
			for j := range sel.From {
				p := &catalog.Partition{Table: sel.From[i].Name, ID: "p", Predicate: expr.And(g.Local[j])}
				if got, want := g.Prunes(i, p), prunesReference(expr.And(g.Local[i]), p); got != want {
					t.Fatalf("selections %s against partition %s: Prunes = %v, reference %v",
						expr.And(g.Local[i]), p.Predicate, got, want)
				}
			}
		}
		for i := range sel.From[:3] {
			pred := g.LocalPred(i)
			if pred == nil || slices.ContainsFunc(expr.Columns(pred), func(c *expr.Column) bool { return !strings.EqualFold(c.Name, "pk") }) {
				continue
			}
			schema := []expr.ColumnID{{Table: sel.From[i].Binding(), Name: "pk"}}
			bound, err := expr.Bind(pred, schema)
			if err != nil {
				continue
			}
			relevant := g.Relevant(sch, i)
			for _, p := range sch.Partitions(sel.From[i].Name) {
				in := expr.MustBind(p.Predicate, schema)
				for v := int64(0); v < 64; v++ {
					row := value.Row{value.NewInt(v)}
					if ok, err := expr.EvalBool(bound, row); err != nil || !ok {
						continue
					}
					if ok, _ := expr.EvalBool(in, row); ok && !slices.Contains(relevant, p.ID) {
						t.Fatalf("pk = %d satisfies %s and partition %s (%s), which was pruned: relevant %v",
							v, pred, p.ID, p.Predicate, relevant)
					}
				}
			}
		}
	})
}
