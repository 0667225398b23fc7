package exec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"qtrade/internal/catalog"
	"qtrade/internal/expr"
	"qtrade/internal/plan"
	"qtrade/internal/sqlparse"
	"qtrade/internal/storage"
	"qtrade/internal/value"
)

var custDef = &catalog.TableDef{Name: "customer", Columns: []catalog.ColumnDef{
	{Name: "custid", Kind: value.Int},
	{Name: "custname", Kind: value.Str},
	{Name: "office", Kind: value.Str},
}}

var invDef = &catalog.TableDef{Name: "invoiceline", Columns: []catalog.ColumnDef{
	{Name: "invid", Kind: value.Int},
	{Name: "linenum", Kind: value.Int},
	{Name: "custid", Kind: value.Int},
	{Name: "charge", Kind: value.Float},
}}

func telcoStore(t *testing.T) *storage.Store {
	t.Helper()
	s := storage.NewStore()
	mustCreate(t, s, custDef, "p0")
	mustCreate(t, s, invDef, "p0")
	customers := []struct {
		id     int64
		name   string
		office string
	}{
		{1, "alice", "Corfu"}, {2, "bob", "Corfu"}, {3, "carol", "Myconos"},
		{4, "dave", "Athens"}, {5, "eve", "Myconos"},
	}
	for _, c := range customers {
		if err := s.Insert("customer", "p0", value.Row{value.NewInt(c.id), value.NewStr(c.name), value.NewStr(c.office)}); err != nil {
			t.Fatal(err)
		}
	}
	lines := []struct {
		inv, line, cust int64
		charge          float64
	}{
		{100, 1, 1, 10}, {100, 2, 1, 5}, {101, 1, 2, 7},
		{102, 1, 3, 20}, {103, 1, 5, 2}, {104, 1, 4, 100},
	}
	for _, l := range lines {
		if err := s.Insert("invoiceline", "p0", value.Row{value.NewInt(l.inv), value.NewInt(l.line), value.NewInt(l.cust), value.NewFloat(l.charge)}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func mustCreate(t *testing.T, s *storage.Store, def *catalog.TableDef, part string) {
	t.Helper()
	if _, err := s.CreateFragment(def, part); err != nil {
		t.Fatal(err)
	}
}

func runPlan(t *testing.T, s *storage.Store, n plan.Node) *Result {
	t.Helper()
	ex := &Executor{Store: s}
	res, err := ex.Run(n)
	if err != nil {
		t.Fatalf("run %s: %v", n.Describe(), err)
	}
	return res
}

func TestScanAndFilter(t *testing.T) {
	s := telcoStore(t)
	scan := &plan.Scan{Def: custDef, Alias: "c", PartID: "p0"}
	res := runPlan(t, s, scan)
	if len(res.Rows) != 5 || len(res.Cols) != 3 {
		t.Fatalf("scan: %d rows %d cols", len(res.Rows), len(res.Cols))
	}
	if res.Cols[0].Table != "c" {
		t.Fatalf("alias exposure: %+v", res.Cols[0])
	}
	scan.Pred = sqlparse.MustParseExpr("office = 'Corfu'")
	res = runPlan(t, s, scan)
	if len(res.Rows) != 2 {
		t.Fatalf("pushed filter: %d", len(res.Rows))
	}
	f := &plan.Filter{Input: &plan.Scan{Def: custDef, Alias: "c", PartID: "p0"}, Pred: sqlparse.MustParseExpr("c.custid > 3")}
	res = runPlan(t, s, f)
	if len(res.Rows) != 2 {
		t.Fatalf("filter: %d", len(res.Rows))
	}
}

func TestProject(t *testing.T) {
	s := telcoStore(t)
	p := &plan.Project{
		Input: &plan.Scan{Def: custDef, Alias: "c", PartID: "p0"},
		Exprs: []expr.Expr{sqlparse.MustParseExpr("c.custid * 10"), sqlparse.MustParseExpr("c.office")},
		Names: []expr.ColumnID{{Name: "x10"}, {Table: "c", Name: "office"}},
	}
	res := runPlan(t, s, p)
	if res.Rows[0][0].I != 10 {
		t.Fatalf("projection: %v", res.Rows[0])
	}
	if res.Cols[0].Name != "x10" {
		t.Fatalf("names: %+v", res.Cols)
	}
}

func TestHashJoin(t *testing.T) {
	s := telcoStore(t)
	j := &plan.Join{
		L:  &plan.Scan{Def: custDef, Alias: "c", PartID: "p0"},
		R:  &plan.Scan{Def: invDef, Alias: "i", PartID: "p0"},
		On: sqlparse.MustParseExpr("c.custid = i.custid"),
	}
	res := runPlan(t, s, j)
	if len(res.Rows) != 6 {
		t.Fatalf("join rows: %d, want 6", len(res.Rows))
	}
	if len(res.Cols) != 7 {
		t.Fatalf("join schema width: %d", len(res.Cols))
	}
	// Every output row satisfies the join predicate.
	for _, r := range res.Rows {
		if r[0].I != r[5].I {
			t.Fatalf("join mismatch: %v", r)
		}
	}
}

func TestJoinWithResidualPredicate(t *testing.T) {
	s := telcoStore(t)
	j := &plan.Join{
		L:  &plan.Scan{Def: custDef, Alias: "c", PartID: "p0"},
		R:  &plan.Scan{Def: invDef, Alias: "i", PartID: "p0"},
		On: sqlparse.MustParseExpr("c.custid = i.custid AND i.charge > 6"),
	}
	res := runPlan(t, s, j)
	if len(res.Rows) != 4 {
		t.Fatalf("residual join rows: %d, want 4", len(res.Rows))
	}
}

func TestCrossJoin(t *testing.T) {
	s := telcoStore(t)
	j := &plan.Join{
		L: &plan.Scan{Def: custDef, Alias: "a", PartID: "p0"},
		R: &plan.Scan{Def: custDef, Alias: "b", PartID: "p0"},
	}
	res := runPlan(t, s, j)
	if len(res.Rows) != 25 {
		t.Fatalf("cross join: %d", len(res.Rows))
	}
}

func TestNonEquiJoinFallsBackToNL(t *testing.T) {
	s := telcoStore(t)
	j := &plan.Join{
		L:  &plan.Scan{Def: custDef, Alias: "a", PartID: "p0"},
		R:  &plan.Scan{Def: custDef, Alias: "b", PartID: "p0"},
		On: sqlparse.MustParseExpr("a.custid < b.custid"),
	}
	res := runPlan(t, s, j)
	if len(res.Rows) != 10 {
		t.Fatalf("non-equi join: %d, want 10", len(res.Rows))
	}
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	s := storage.NewStore()
	mustCreate(t, s, custDef, "p0")
	if err := s.Insert("customer", "p0",
		value.Row{value.NewNull(), value.NewStr("n1"), value.NewStr("X")},
		value.Row{value.NewInt(1), value.NewStr("n2"), value.NewStr("X")},
	); err != nil {
		t.Fatal(err)
	}
	j := &plan.Join{
		L:  &plan.Scan{Def: custDef, Alias: "a", PartID: "p0"},
		R:  &plan.Scan{Def: custDef, Alias: "b", PartID: "p0"},
		On: sqlparse.MustParseExpr("a.custid = b.custid"),
	}
	res := runPlan(t, s, j)
	if len(res.Rows) != 1 {
		t.Fatalf("NULL join keys must not match: %d rows", len(res.Rows))
	}
}

func TestAggregateGroupBy(t *testing.T) {
	s := telcoStore(t)
	join := &plan.Join{
		L:  &plan.Scan{Def: custDef, Alias: "c", PartID: "p0"},
		R:  &plan.Scan{Def: invDef, Alias: "i", PartID: "p0"},
		On: sqlparse.MustParseExpr("c.custid = i.custid"),
	}
	agg := &plan.Aggregate{
		Input:      join,
		GroupBy:    []expr.Expr{sqlparse.MustParseExpr("c.office")},
		GroupNames: []expr.ColumnID{{Table: "c", Name: "office"}},
		Aggs: []plan.AggItem{
			{Agg: &expr.Agg{Fn: "SUM", Arg: sqlparse.MustParseExpr("i.charge")}, Name: expr.ColumnID{Name: "total"}},
			{Agg: &expr.Agg{Fn: "COUNT", Star: true}, Name: expr.ColumnID{Name: "n"}},
			{Agg: &expr.Agg{Fn: "MIN", Arg: sqlparse.MustParseExpr("i.charge")}, Name: expr.ColumnID{Name: "lo"}},
			{Agg: &expr.Agg{Fn: "MAX", Arg: sqlparse.MustParseExpr("i.charge")}, Name: expr.ColumnID{Name: "hi"}},
			{Agg: &expr.Agg{Fn: "AVG", Arg: sqlparse.MustParseExpr("i.charge")}, Name: expr.ColumnID{Name: "avg"}},
		},
	}
	res := runPlan(t, s, agg)
	if len(res.Rows) != 3 {
		t.Fatalf("groups: %d", len(res.Rows))
	}
	byOffice := map[string]value.Row{}
	for _, r := range res.Rows {
		byOffice[r[0].S] = r
	}
	corfu := byOffice["Corfu"]
	if corfu[1].AsFloat() != 22 || corfu[2].I != 3 || corfu[3].AsFloat() != 5 || corfu[4].AsFloat() != 10 {
		t.Fatalf("corfu aggregates: %v", corfu)
	}
	my := byOffice["Myconos"]
	if my[1].AsFloat() != 22 || my[2].I != 2 {
		t.Fatalf("myconos aggregates: %v", my)
	}
	if av := my[5].AsFloat(); av != 11 {
		t.Fatalf("avg: %v", av)
	}
}

func TestAggregateGlobalEmptyInput(t *testing.T) {
	s := storage.NewStore()
	mustCreate(t, s, custDef, "p0")
	agg := &plan.Aggregate{
		Input: &plan.Scan{Def: custDef, Alias: "c", PartID: "p0"},
		Aggs: []plan.AggItem{
			{Agg: &expr.Agg{Fn: "COUNT", Star: true}, Name: expr.ColumnID{Name: "n"}},
			{Agg: &expr.Agg{Fn: "SUM", Arg: sqlparse.MustParseExpr("c.custid")}, Name: expr.ColumnID{Name: "s"}},
		},
	}
	res := runPlan(t, s, agg)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 0 || !res.Rows[0][1].IsNull() {
		t.Fatalf("empty global agg: %v", res.Rows)
	}
}

func TestAggregateDistinctAndNulls(t *testing.T) {
	s := storage.NewStore()
	mustCreate(t, s, custDef, "p0")
	rows := []value.Row{
		{value.NewInt(1), value.NewStr("a"), value.NewStr("X")},
		{value.NewInt(1), value.NewStr("b"), value.NewStr("X")},
		{value.NewInt(2), value.NewStr("c"), value.NewStr("X")},
		{value.NewNull(), value.NewStr("d"), value.NewStr("X")},
	}
	if err := s.Insert("customer", "p0", rows...); err != nil {
		t.Fatal(err)
	}
	agg := &plan.Aggregate{
		Input: &plan.Scan{Def: custDef, Alias: "c", PartID: "p0"},
		Aggs: []plan.AggItem{
			{Agg: &expr.Agg{Fn: "COUNT", Arg: sqlparse.MustParseExpr("c.custid"), Distinct: true}, Name: expr.ColumnID{Name: "d"}},
			{Agg: &expr.Agg{Fn: "COUNT", Arg: sqlparse.MustParseExpr("c.custid")}, Name: expr.ColumnID{Name: "n"}},
			{Agg: &expr.Agg{Fn: "SUM", Arg: sqlparse.MustParseExpr("c.custid"), Distinct: true}, Name: expr.ColumnID{Name: "sd"}},
			{Agg: &expr.Agg{Fn: "COUNT", Star: true}, Name: expr.ColumnID{Name: "all"}},
		},
	}
	res := runPlan(t, s, agg)
	r := res.Rows[0]
	if r[0].I != 2 || r[1].I != 3 || r[2].I != 3 || r[3].I != 4 {
		t.Fatalf("distinct/null aggregates: %v", r)
	}
}

func TestSortOrderAndNulls(t *testing.T) {
	s := storage.NewStore()
	mustCreate(t, s, custDef, "p0")
	if err := s.Insert("customer", "p0",
		value.Row{value.NewInt(2), value.NewStr("b"), value.NewStr("X")},
		value.Row{value.NewNull(), value.NewStr("n"), value.NewStr("X")},
		value.Row{value.NewInt(1), value.NewStr("a"), value.NewStr("X")},
	); err != nil {
		t.Fatal(err)
	}
	srt := &plan.Sort{
		Input: &plan.Scan{Def: custDef, Alias: "c", PartID: "p0"},
		Keys:  []plan.SortKey{{Expr: sqlparse.MustParseExpr("c.custid")}},
	}
	res := runPlan(t, s, srt)
	if !res.Rows[0][0].IsNull() || res.Rows[1][0].I != 1 || res.Rows[2][0].I != 2 {
		t.Fatalf("asc nulls first: %v", res.Rows)
	}
	srt.Keys[0].Desc = true
	res = runPlan(t, s, srt)
	if res.Rows[0][0].I != 2 || !res.Rows[2][0].IsNull() {
		t.Fatalf("desc: %v", res.Rows)
	}
}

func TestLimitDistinctUnion(t *testing.T) {
	s := telcoStore(t)
	scan := func() plan.Node { return &plan.Scan{Def: custDef, Alias: "c", PartID: "p0"} }
	lim := &plan.Limit{Input: scan(), N: 2}
	if res := runPlan(t, s, lim); len(res.Rows) != 2 {
		t.Fatalf("limit: %d", len(res.Rows))
	}
	proj := &plan.Project{Input: scan(), Exprs: []expr.Expr{sqlparse.MustParseExpr("c.office")}, Names: []expr.ColumnID{{Name: "office"}}}
	dis := &plan.Distinct{Input: proj}
	if res := runPlan(t, s, dis); len(res.Rows) != 3 {
		t.Fatalf("distinct: %d", len(res.Rows))
	}
	un := &plan.Union{Inputs: []plan.Node{scan(), scan()}}
	if res := runPlan(t, s, un); len(res.Rows) != 10 {
		t.Fatalf("union all: %d", len(res.Rows))
	}
}

func TestUnionWidthMismatch(t *testing.T) {
	s := telcoStore(t)
	un := &plan.Union{Inputs: []plan.Node{
		&plan.Scan{Def: custDef, Alias: "c", PartID: "p0"},
		&plan.Scan{Def: invDef, Alias: "i", PartID: "p0"},
	}}
	ex := &Executor{Store: s}
	if _, err := ex.Run(un); err == nil {
		t.Fatal("width mismatch must error")
	}
}

func TestRemoteFetch(t *testing.T) {
	called := ""
	ex := &Executor{
		FetchStream: func(nodeID, sql, offerID string) (RowStream, error) {
			called = nodeID + ":" + sql
			return NewRows([]expr.ColumnID{{Name: "x"}}, []value.Row{{value.NewInt(42)}}, 0), nil
		},
	}
	r := &plan.Remote{NodeID: "corfu", SQL: "SELECT x FROM t", Cols: []expr.ColumnID{{Table: "r", Name: "x"}}}
	res, err := ex.Run(r)
	if err != nil || res.Rows[0][0].I != 42 {
		t.Fatalf("remote: %v %v", res, err)
	}
	if called != "corfu:SELECT x FROM t" {
		t.Fatalf("fetch call: %s", called)
	}
	// No fetcher configured.
	ex2 := &Executor{}
	if _, err := ex2.Run(r); err == nil {
		t.Fatal("missing fetcher must error")
	}
	// Width mismatch.
	ex3 := &Executor{FetchStream: func(string, string, string) (RowStream, error) {
		return NewRows(nil, []value.Row{{value.NewInt(1), value.NewInt(2)}}, 0), nil
	}}
	if _, err := ex3.Run(r); err == nil {
		t.Fatal("remote width mismatch must error")
	}
	// Fetch error propagates.
	ex4 := &Executor{FetchStream: func(string, string, string) (RowStream, error) { return nil, fmt.Errorf("boom") }}
	if _, err := ex4.Run(r); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("fetch error: %v", err)
	}
}

func TestViewScan(t *testing.T) {
	s := storage.NewStore()
	if err := s.AddView(&storage.MaterializedView{
		Name: "totals",
		Columns: []catalog.ColumnDef{
			{Name: "office", Kind: value.Str}, {Name: "total", Kind: value.Float},
		},
		Rows: []value.Row{
			{value.NewStr("Corfu"), value.NewFloat(22)},
			{value.NewStr("Myconos"), value.NewFloat(22)},
		},
	}); err != nil {
		t.Fatal(err)
	}
	v := &plan.ViewScan{
		Name: "totals",
		Cols: []expr.ColumnID{{Table: "v", Name: "office"}, {Table: "v", Name: "total"}},
		Pred: sqlparse.MustParseExpr("office = 'Corfu'"),
	}
	res := runPlan(t, s, v)
	if len(res.Rows) != 1 || res.Rows[0][1].F != 22 {
		t.Fatalf("view scan: %v", res.Rows)
	}
	bad := &plan.ViewScan{Name: "ghost"}
	ex := &Executor{Store: s}
	if _, err := ex.Run(bad); err == nil {
		t.Fatal("unknown view must error")
	}
}

func TestFinalizeSelectEndToEnd(t *testing.T) {
	s := telcoStore(t)
	sel := sqlparse.MustParseSelect(`
		SELECT c.office, SUM(i.charge) AS total
		FROM customer c, invoiceline i
		WHERE c.custid = i.custid AND c.office IN ('Corfu', 'Myconos')
		GROUP BY c.office
		ORDER BY total DESC`)
	join := &plan.Join{
		L:  &plan.Scan{Def: custDef, Alias: "c", PartID: "p0"},
		R:  &plan.Scan{Def: invDef, Alias: "i", PartID: "p0"},
		On: sel.Where,
	}
	p, err := plan.FinalizeSelect(sel, join)
	if err != nil {
		t.Fatal(err)
	}
	res := runPlan(t, s, p)
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %v", res.Rows)
	}
	// Both offices total 22; ordering by total DESC is stable.
	if res.Rows[0][1].AsFloat() != 22 || res.Rows[1][1].AsFloat() != 22 {
		t.Fatalf("totals: %v", res.Rows)
	}
	if res.Cols[1].Name != "total" {
		t.Fatalf("output name: %+v", res.Cols)
	}
}

func TestFinalizeHavingAndExpressions(t *testing.T) {
	s := telcoStore(t)
	sel := sqlparse.MustParseSelect(`
		SELECT c.office, COUNT(*) AS n, SUM(i.charge) * 2 AS dbl
		FROM customer c, invoiceline i
		WHERE c.custid = i.custid
		GROUP BY c.office
		HAVING COUNT(*) > 1`)
	join := &plan.Join{
		L:  &plan.Scan{Def: custDef, Alias: "c", PartID: "p0"},
		R:  &plan.Scan{Def: invDef, Alias: "i", PartID: "p0"},
		On: sel.Where,
	}
	p, err := plan.FinalizeSelect(sel, join)
	if err != nil {
		t.Fatal(err)
	}
	res := runPlan(t, s, p)
	if len(res.Rows) != 2 {
		t.Fatalf("having rows: %v", res.Rows)
	}
	for _, r := range res.Rows {
		if r[1].I < 2 {
			t.Fatalf("having violated: %v", r)
		}
		if r[2].AsFloat() != 44 {
			t.Fatalf("expression over aggregate: %v", r)
		}
	}
}

func TestFinalizeStarAndDistinct(t *testing.T) {
	s := telcoStore(t)
	sel := sqlparse.MustParseSelect("SELECT DISTINCT * FROM customer c LIMIT 3")
	p, err := plan.FinalizeSelect(sel, &plan.Scan{Def: custDef, Alias: "c", PartID: "p0"})
	if err != nil {
		t.Fatal(err)
	}
	res := runPlan(t, s, p)
	if len(res.Rows) != 3 || len(res.Cols) != 3 {
		t.Fatalf("star/distinct/limit: %d x %d", len(res.Rows), len(res.Cols))
	}
}

func TestFinalizeInvalidGroupColumn(t *testing.T) {
	sel := sqlparse.MustParseSelect("SELECT c.custname, COUNT(*) FROM customer c GROUP BY c.office")
	_, err := plan.FinalizeSelect(sel, &plan.Scan{Def: custDef, Alias: "c", PartID: "p0"})
	if err == nil {
		t.Fatal("non-grouped column must be rejected")
	}
}

func TestExplainAndHelpers(t *testing.T) {
	j := &plan.Join{
		L:  &plan.Scan{Def: custDef, Alias: "c", PartID: "p0"},
		R:  &plan.Remote{NodeID: "n2", SQL: "SELECT 1", Cols: []expr.ColumnID{{Name: "one"}}},
		On: sqlparse.MustParseExpr("c.custid = one"),
	}
	out := plan.Explain(j)
	if !strings.Contains(out, "Join") || !strings.Contains(out, "Remote[n2]") {
		t.Fatalf("explain: %s", out)
	}
	if len(plan.Remotes(j)) != 1 {
		t.Fatal("Remotes helper")
	}
	if plan.CountNodes(j) != 3 {
		t.Fatalf("CountNodes: %d", plan.CountNodes(j))
	}
}

// Property: hash join output equals brute-force nested-loop evaluation on
// random data.
func TestQuickJoinEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		s := storage.NewStore()
		mustCreate(t, s, custDef, "p0")
		mustCreate(t, s, invDef, "p0")
		nl, nr := 1+r.Intn(20), 1+r.Intn(30)
		lrows := make([]value.Row, nl)
		for i := range lrows {
			lrows[i] = value.Row{value.NewInt(int64(r.Intn(8))), value.NewStr("n"), value.NewStr("X")}
		}
		rrows := make([]value.Row, nr)
		for i := range rrows {
			rrows[i] = value.Row{value.NewInt(int64(i)), value.NewInt(1), value.NewInt(int64(r.Intn(8))), value.NewFloat(1)}
		}
		if err := s.Insert("customer", "p0", lrows...); err != nil {
			t.Fatal(err)
		}
		if err := s.Insert("invoiceline", "p0", rrows...); err != nil {
			t.Fatal(err)
		}
		j := &plan.Join{
			L:  &plan.Scan{Def: custDef, Alias: "c", PartID: "p0"},
			R:  &plan.Scan{Def: invDef, Alias: "i", PartID: "p0"},
			On: sqlparse.MustParseExpr("c.custid = i.custid"),
		}
		res := runPlan(t, s, j)
		want := 0
		for _, lr := range lrows {
			for _, rr := range rrows {
				if lr[0].I == rr[2].I {
					want++
				}
			}
		}
		if len(res.Rows) != want {
			t.Fatalf("trial %d: hash join %d rows, brute force %d", trial, len(res.Rows), want)
		}
	}
}

// Property: Distinct(Union(x, x)) == Distinct(x).
func TestQuickUnionDistinctIdempotent(t *testing.T) {
	s := telcoStore(t)
	scan := func() plan.Node { return &plan.Scan{Def: custDef, Alias: "c", PartID: "p0"} }
	d1 := runPlan(t, s, &plan.Distinct{Input: scan()})
	d2 := runPlan(t, s, &plan.Distinct{Input: &plan.Union{Inputs: []plan.Node{scan(), scan()}}})
	if len(d1.Rows) != len(d2.Rows) {
		t.Fatalf("distinct union: %d vs %d", len(d1.Rows), len(d2.Rows))
	}
}
