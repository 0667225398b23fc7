package localopt

import (
	"sort"
	"strings"
	"testing"

	"qtrade/internal/catalog"
	"qtrade/internal/cost"
	"qtrade/internal/exec"
	"qtrade/internal/expr"
	"qtrade/internal/plan"
	"qtrade/internal/sqlparse"
	"qtrade/internal/storage"
	"qtrade/internal/value"
)

func telcoSchema() *catalog.Schema {
	sch := catalog.NewSchema()
	sch.MustAddTable(&catalog.TableDef{Name: "customer", Columns: []catalog.ColumnDef{
		{Name: "custid", Kind: value.Int},
		{Name: "custname", Kind: value.Str},
		{Name: "office", Kind: value.Str},
	}})
	sch.MustAddTable(&catalog.TableDef{Name: "invoiceline", Columns: []catalog.ColumnDef{
		{Name: "invid", Kind: value.Int},
		{Name: "linenum", Kind: value.Int},
		{Name: "custid", Kind: value.Int},
		{Name: "charge", Kind: value.Float},
	}})
	if err := sch.SetPartitions("customer", []*catalog.Partition{
		{Table: "customer", ID: "corfu", Predicate: sqlparse.MustParseExpr("office = 'Corfu'")},
		{Table: "customer", ID: "athens", Predicate: sqlparse.MustParseExpr("office = 'Athens'")},
	}); err != nil {
		panic(err)
	}
	return sch
}

func telcoStore(t *testing.T, sch *catalog.Schema) *storage.Store {
	t.Helper()
	st := storage.NewStore()
	cust, _ := sch.Table("customer")
	inv, _ := sch.Table("invoiceline")
	for _, p := range []string{"corfu", "athens"} {
		if _, err := st.CreateFragment(cust, p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.CreateFragment(inv, "p0"); err != nil {
		t.Fatal(err)
	}
	add := func(part string, id int64, name, office string) {
		if err := st.Insert("customer", part, value.Row{value.NewInt(id), value.NewStr(name), value.NewStr(office)}); err != nil {
			t.Fatal(err)
		}
	}
	add("corfu", 1, "alice", "Corfu")
	add("corfu", 2, "bob", "Corfu")
	add("athens", 3, "carol", "Athens")
	lines := [][4]int64{{100, 1, 1, 10}, {101, 1, 2, 7}, {102, 1, 3, 20}, {103, 2, 1, 5}}
	for _, l := range lines {
		if err := st.Insert("invoiceline", "p0", value.Row{
			value.NewInt(l[0]), value.NewInt(l[1]), value.NewInt(l[2]), value.NewFloat(float64(l[3])),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// runRows executes a plan and returns its rows as sorted canonical strings.
func runRows(t *testing.T, st *storage.Store, n plan.Node) []string {
	t.Helper()
	ex := &exec.Executor{Store: st}
	res, err := ex.Run(n)
	if err != nil {
		t.Fatalf("execute: %v\n%s", err, plan.Explain(n))
	}
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		idx := make([]int, len(r))
		for j := range idx {
			idx[j] = j
		}
		out[i] = value.Key(r, idx)
	}
	sort.Strings(out)
	return out
}

// naivePlan builds the brute-force plan: cross join everything, filter,
// finalize. Used as the correctness oracle.
func naivePlan(t *testing.T, sel *sqlparse.Select, sch *catalog.Schema, st *storage.Store) plan.Node {
	t.Helper()
	var node plan.Node
	for _, tr := range sel.From {
		def, _ := sch.Table(tr.Name)
		var rel plan.Node
		var scans []plan.Node
		for _, f := range st.Fragments(tr.Name) {
			scans = append(scans, &plan.Scan{Def: def, Alias: tr.Binding(), PartID: f.PartID})
		}
		if len(scans) == 1 {
			rel = scans[0]
		} else {
			rel = &plan.Union{Inputs: scans}
		}
		if node == nil {
			node = rel
		} else {
			node = &plan.Join{L: node, R: rel}
		}
	}
	if sel.Where != nil {
		node = &plan.Filter{Input: node, Pred: expr.Clone(sel.Where)}
	}
	p, err := plan.FinalizeSelect(sel, node)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func optimize(t *testing.T, q string, sch *catalog.Schema, st *storage.Store) *Result {
	t.Helper()
	sel := sqlparse.MustParseSelect(q)
	res, err := Optimize(sel, sch, st, cost.Default())
	if err != nil {
		t.Fatalf("optimize %q: %v", q, err)
	}
	return res
}

func TestOptimizeTwoWayJoin(t *testing.T) {
	sch := telcoSchema()
	st := telcoStore(t, sch)
	q := "SELECT c.custname, i.charge FROM customer c, invoiceline i WHERE c.custid = i.custid AND i.charge > 6"
	res := optimize(t, q, sch, st)
	if res.Best == nil {
		t.Fatal("no best plan")
	}
	if len(res.Partials) != 3 {
		t.Fatalf("partials: %d, want 3 (c, i, c⋈i)", len(res.Partials))
	}
	// Best plan result equals naive evaluation.
	sel := sqlparse.MustParseSelect(q)
	want := runRows(t, st, naivePlan(t, sel, sch, st))
	got := runRows(t, st, res.Best.Plan)
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("plan wrong:\ngot  %v\nwant %v\n%s", got, want, plan.Explain(res.Best.Plan))
	}
	if res.Best.Cost <= 0 || res.Best.Rows <= 0 || res.Best.Bytes <= 0 {
		t.Fatalf("estimates: %+v", res.Best)
	}
}

func TestPartialSubqueriesExecutable(t *testing.T) {
	sch := telcoSchema()
	st := telcoStore(t, sch)
	q := "SELECT c.custname, i.charge FROM customer c, invoiceline i WHERE c.custid = i.custid AND c.office = 'Corfu'"
	res := optimize(t, q, sch, st)
	for _, p := range res.Partials {
		if p.SQL == nil {
			t.Fatalf("partial without SQL: %+v", p)
		}
		if _, err := sqlparse.Parse(p.SQL.SQL()); err != nil {
			t.Fatalf("partial SQL does not re-parse: %q: %v", p.SQL.SQL(), err)
		}
		got := runRows(t, st, p.Plan)
		want := runRows(t, st, naivePlan(t, p.SQL, sch, st))
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("partial %v wrong:\ngot  %v\nwant %v", p.Bindings, got, want)
		}
	}
	// The single-relation partial for c must carry the local predicate and
	// the join column.
	var cPart *Partial
	for _, p := range res.Partials {
		if len(p.Bindings) == 1 && p.Bindings[0] == "c" {
			cPart = p
		}
	}
	if cPart == nil {
		t.Fatal("no c partial")
	}
	sql := cPart.SQL.SQL()
	if !strings.Contains(sql, "office = 'Corfu'") || !strings.Contains(strings.ToLower(sql), "custid") {
		t.Fatalf("c partial SQL: %s", sql)
	}
}

func TestPartitionPruning(t *testing.T) {
	sch := telcoSchema()
	st := telcoStore(t, sch)
	res := optimize(t, "SELECT c.custname FROM customer c WHERE c.office = 'Corfu'", sch, st)
	explain := plan.Explain(res.Best.Plan)
	if strings.Contains(explain, "athens") {
		t.Fatalf("athens fragment must be pruned:\n%s", explain)
	}
	if !strings.Contains(explain, "corfu") {
		t.Fatalf("corfu fragment missing:\n%s", explain)
	}
	got := runRows(t, st, res.Best.Plan)
	if len(got) != 2 {
		t.Fatalf("pruned plan rows: %v", got)
	}
}

func TestAllFragmentsPrunedYieldsEmptyPlan(t *testing.T) {
	sch := telcoSchema()
	st := telcoStore(t, sch)
	res := optimize(t, "SELECT c.custname FROM customer c WHERE c.office = 'Paris'", sch, st)
	got := runRows(t, st, res.Best.Plan)
	if len(got) != 0 {
		t.Fatalf("must be empty: %v", got)
	}
}

func TestThreeWayJoinOrderAndCorrectness(t *testing.T) {
	sch := catalog.NewSchema()
	for _, name := range []string{"r1", "r2", "r3"} {
		sch.MustAddTable(&catalog.TableDef{Name: name, Columns: []catalog.ColumnDef{
			{Name: "a", Kind: value.Int}, {Name: "b", Kind: value.Int},
		}})
	}
	st := storage.NewStore()
	for _, name := range []string{"r1", "r2", "r3"} {
		def, _ := sch.Table(name)
		if _, err := st.CreateFragment(def, "p0"); err != nil {
			t.Fatal(err)
		}
	}
	// r1 small, r2 medium, r3 large; chain join r1.b=r2.a, r2.b=r3.a.
	for i := 0; i < 3; i++ {
		if err := st.Insert("r1", "p0", value.Row{value.NewInt(int64(i)), value.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := st.Insert("r2", "p0", value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 5))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		if err := st.Insert("r3", "p0", value.Row{value.NewInt(int64(i % 5)), value.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	q := "SELECT r1.a, r3.b FROM r1, r2, r3 WHERE r1.b = r2.a AND r2.b = r3.a"
	res := optimize(t, q, sch, st)
	if len(res.Partials) != 7 {
		t.Fatalf("partials: %d, want 7 subsets", len(res.Partials))
	}
	sel := sqlparse.MustParseSelect(q)
	want := runRows(t, st, naivePlan(t, sel, sch, st))
	got := runRows(t, st, res.Best.Plan)
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("3-way join wrong:\ngot  %d rows\nwant %d rows", len(got), len(want))
	}
	// The disconnected pair {r1,r3} must still have a (cross product) entry.
	found := false
	for _, p := range res.Partials {
		if len(p.Bindings) == 2 && p.Bindings[0] == "r1" && p.Bindings[1] == "r3" {
			found = true
		}
	}
	if !found {
		t.Fatal("disconnected subset missing from partials")
	}
}

func TestAggregationPlan(t *testing.T) {
	sch := telcoSchema()
	st := telcoStore(t, sch)
	q := `SELECT c.office, SUM(i.charge) AS total FROM customer c, invoiceline i
	      WHERE c.custid = i.custid GROUP BY c.office ORDER BY total DESC`
	res := optimize(t, q, sch, st)
	sel := sqlparse.MustParseSelect(q)
	want := runRows(t, st, naivePlan(t, sel, sch, st))
	got := runRows(t, st, res.Best.Plan)
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("aggregate plan wrong:\ngot  %v\nwant %v", got, want)
	}
	if res.Best.SQL.SQL() != sel.SQL() {
		t.Fatalf("full partial must carry original SQL: %s", res.Best.SQL.SQL())
	}
}

func TestErrors(t *testing.T) {
	sch := telcoSchema()
	st := telcoStore(t, sch)
	sel := sqlparse.MustParseSelect("SELECT g.x FROM ghost g")
	if _, err := Optimize(sel, sch, st, cost.Default()); err == nil {
		t.Fatal("unknown table must error")
	}
	sch2 := telcoSchema()
	st2 := storage.NewStore() // empty store
	sel2 := sqlparse.MustParseSelect("SELECT c.custid FROM customer c")
	if _, err := Optimize(sel2, sch2, st2, cost.Default()); err == nil {
		t.Fatal("missing fragments must error")
	}
	empty := &sqlparse.Select{Limit: -1}
	if _, err := Optimize(empty, sch, st, cost.Default()); err == nil {
		t.Fatal("no FROM must error")
	}
}

func TestCheaperPlanPreferred(t *testing.T) {
	// With one tiny and one huge relation, DP must build the hash table on
	// the tiny side (executor builds on R; optimizer puts smaller input
	// right).
	sch := catalog.NewSchema()
	sch.MustAddTable(&catalog.TableDef{Name: "small", Columns: []catalog.ColumnDef{{Name: "k", Kind: value.Int}}})
	sch.MustAddTable(&catalog.TableDef{Name: "big", Columns: []catalog.ColumnDef{{Name: "k", Kind: value.Int}}})
	st := storage.NewStore()
	sdef, _ := sch.Table("small")
	bdef, _ := sch.Table("big")
	if _, err := st.CreateFragment(sdef, "p0"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.CreateFragment(bdef, "p0"); err != nil {
		t.Fatal(err)
	}
	if err := st.Insert("small", "p0", value.Row{value.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := st.Insert("big", "p0", value.Row{value.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	res := optimize(t, "SELECT s.k FROM small s, big b WHERE s.k = b.k", sch, st)
	// Find the Join node and check its right child scans `small`.
	var join *plan.Join
	var find func(n plan.Node)
	find = func(n plan.Node) {
		if jn, ok := n.(*plan.Join); ok {
			join = jn
		}
		for _, c := range n.Children() {
			find(c)
		}
	}
	find(res.Best.Plan)
	if join == nil {
		t.Fatal("no join in plan")
	}
	if sc, ok := join.R.(*plan.Scan); !ok || sc.Def.Name != "small" {
		t.Fatalf("build side must be the small relation:\n%s", plan.Explain(res.Best.Plan))
	}
}

func TestSubqueryFor(t *testing.T) {
	sel := sqlparse.MustParseSelect(
		"SELECT c.custname, i.charge FROM customer c, invoiceline i WHERE c.custid = i.custid AND c.office = 'X'")
	sub := SubqueryFor(sel, []string{"c"})
	sql := sub.SQL()
	if strings.Contains(sql, "invoiceline") {
		t.Fatalf("subquery must drop i: %s", sql)
	}
	if !strings.Contains(sql, "office = 'X'") {
		t.Fatalf("subquery must keep local predicate: %s", sql)
	}
	if !strings.Contains(strings.ToLower(sql), "c.custid") {
		t.Fatalf("subquery must keep join column: %s", sql)
	}
}

// TestSubqueryColumnsWithAndWithoutDefinitions pins the one clause walk behind
// every offer's subquery text: with table definitions a star names every
// column and an unqualified column goes to the one relation exposing it (an
// ambiguous one to none); without them only qualified references count, and a
// relation nothing refers to gets the placeholder column.
func TestSubqueryColumnsWithAndWithoutDefinitions(t *testing.T) {
	sch := telcoSchema()
	st := telcoStore(t, sch)
	partial := func(sql string, binding string) string {
		t.Helper()
		res, err := Optimize(sqlparse.MustParseSelect(sql), sch, st, cost.Default())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Partials {
			if len(p.Bindings) == 1 && p.Bindings[0] == binding {
				return p.SQL.SQL()
			}
		}
		t.Fatalf("no partial over %s", binding)
		return ""
	}
	const unqualified = "SELECT charge, custid, office FROM customer c, invoiceline i WHERE c.custid = i.custid"
	for _, c := range []struct{ name, got, want string }{
		{"star, defined", partial("SELECT * FROM customer c, invoiceline i WHERE c.custid = i.custid", "c"),
			"SELECT c.custid, c.custname, c.office FROM customer c"},
		{"unqualified, defined: i", partial(unqualified, "i"),
			"SELECT i.charge, i.custid FROM invoiceline i"},
		{"unqualified, defined: c", partial(unqualified, "c"),
			"SELECT c.custid, c.office FROM customer c"},
		{"unqualified, undefined", SubqueryFor(sqlparse.MustParseSelect(unqualified), []string{"i"}).SQL(),
			"SELECT i.custid FROM invoiceline i"},
		{"star, undefined", SubqueryFor(sqlparse.MustParseSelect("SELECT * FROM customer c, invoiceline i"), []string{"c"}).SQL(),
			"SELECT c._ FROM customer c"},
	} {
		if c.got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, c.got, c.want)
		}
	}
}
