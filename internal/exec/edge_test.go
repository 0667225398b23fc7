package exec

import (
	"math"
	"testing"

	"qtrade/internal/expr"
	"qtrade/internal/plan"
	"qtrade/internal/sqlparse"
	"qtrade/internal/storage"
	"qtrade/internal/value"
)

func TestDivisionByZeroYieldsNull(t *testing.T) {
	s := telcoStore(t)
	p := &plan.Project{
		Input: &plan.Limit{Input: &plan.Scan{Def: custDef, Alias: "c", PartID: "p0"}, N: 1},
		Exprs: []expr.Expr{sqlparse.MustParseExpr("c.custid / 0"), sqlparse.MustParseExpr("c.custid % 0")},
		Names: []expr.ColumnID{{Name: "div"}, {Name: "mod"}},
	}
	res := runPlan(t, s, p)
	if !res.Rows[0][0].IsNull() || !res.Rows[0][1].IsNull() {
		t.Fatalf("x/0 and x%%0 must be NULL: %v", res.Rows[0])
	}
}

func TestLimitZero(t *testing.T) {
	s := telcoStore(t)
	res := runPlan(t, s, &plan.Limit{Input: &plan.Scan{Def: custDef, Alias: "c", PartID: "p0"}, N: 0})
	if len(res.Rows) != 0 {
		t.Fatalf("LIMIT 0: %d rows", len(res.Rows))
	}
}

func TestFilterErrorPropagates(t *testing.T) {
	s := telcoStore(t)
	// Unknown column in the filter: binding fails at run time.
	f := &plan.Filter{
		Input: &plan.Scan{Def: custDef, Alias: "c", PartID: "p0"},
		Pred:  sqlparse.MustParseExpr("c.ghost = 1"),
	}
	ex := &Executor{Store: s}
	if _, err := ex.Run(f); err == nil {
		t.Fatal("unknown filter column must error")
	}
}

func TestMixedIntFloatAggregation(t *testing.T) {
	s := storage.NewStore()
	mustCreate(t, s, invDef, "p0")
	// charge column is float; custid is int — SUM over each keeps its kind.
	rows := []value.Row{
		{value.NewInt(1), value.NewInt(1), value.NewInt(2), value.NewFloat(1.5)},
		{value.NewInt(2), value.NewInt(1), value.NewInt(3), value.NewFloat(2.5)},
	}
	if err := s.Insert("invoiceline", "p0", rows...); err != nil {
		t.Fatal(err)
	}
	agg := &plan.Aggregate{
		Input: &plan.Scan{Def: invDef, Alias: "i", PartID: "p0"},
		Aggs: []plan.AggItem{
			{Agg: &expr.Agg{Fn: "SUM", Arg: sqlparse.MustParseExpr("i.custid")}, Name: expr.ColumnID{Name: "si"}},
			{Agg: &expr.Agg{Fn: "SUM", Arg: sqlparse.MustParseExpr("i.charge")}, Name: expr.ColumnID{Name: "sf"}},
		},
	}
	res := runPlan(t, s, agg)
	if res.Rows[0][0].K != value.Int || res.Rows[0][0].I != 5 {
		t.Fatalf("int sum: %v", res.Rows[0][0])
	}
	if res.Rows[0][1].K != value.Float || res.Rows[0][1].F != 4.0 {
		t.Fatalf("float sum: %v", res.Rows[0][1])
	}
}

// An integer SUM that overflows int64 carries on as a DOUBLE, by
// value.Arith's rule, instead of wrapping to a negative total.
func TestIntSumOverflowIsDouble(t *testing.T) {
	s := storage.NewStore()
	mustCreate(t, s, invDef, "p0")
	for i, id := range []int64{math.MaxInt64, 1, 1} {
		if err := s.Insert("invoiceline", "p0", value.Row{value.NewInt(id), value.NewInt(int64(i)), value.NewInt(1), value.NewFloat(0)}); err != nil {
			t.Fatal(err)
		}
	}
	res := runPlan(t, s, &plan.Aggregate{
		Input: &plan.Scan{Def: invDef, Alias: "i", PartID: "p0"},
		Aggs:  []plan.AggItem{{Agg: &expr.Agg{Fn: "SUM", Arg: sqlparse.MustParseExpr("i.invid")}, Name: expr.ColumnID{Name: "s"}}},
	})
	if got, want := res.Rows[0][0], value.NewFloat(math.MaxInt64+2.0); got != want {
		t.Fatalf("SUM past MaxInt64 = %s %v, want %s %v", got.K, got, want.K, want)
	}
}

func TestAggregateOverNonNumericErrors(t *testing.T) {
	s := telcoStore(t)
	agg := &plan.Aggregate{
		Input: &plan.Scan{Def: custDef, Alias: "c", PartID: "p0"},
		Aggs: []plan.AggItem{
			{Agg: &expr.Agg{Fn: "SUM", Arg: sqlparse.MustParseExpr("c.custname")}, Name: expr.ColumnID{Name: "s"}},
		},
	}
	ex := &Executor{Store: s}
	if _, err := ex.Run(agg); err == nil {
		t.Fatal("SUM over strings must error")
	}
}

func TestMinMaxOverStrings(t *testing.T) {
	s := telcoStore(t)
	agg := &plan.Aggregate{
		Input: &plan.Scan{Def: custDef, Alias: "c", PartID: "p0"},
		Aggs: []plan.AggItem{
			{Agg: &expr.Agg{Fn: "MIN", Arg: sqlparse.MustParseExpr("c.custname")}, Name: expr.ColumnID{Name: "lo"}},
			{Agg: &expr.Agg{Fn: "MAX", Arg: sqlparse.MustParseExpr("c.custname")}, Name: expr.ColumnID{Name: "hi"}},
		},
	}
	res := runPlan(t, s, agg)
	if res.Rows[0][0].S != "alice" || res.Rows[0][1].S != "eve" {
		t.Fatalf("string min/max: %v", res.Rows[0])
	}
}

func TestScanMissingFragmentErrors(t *testing.T) {
	s := telcoStore(t)
	ex := &Executor{Store: s}
	if _, err := ex.Run(&plan.Scan{Def: custDef, Alias: "c", PartID: "ghost"}); err == nil {
		t.Fatal("missing fragment must error")
	}
	noStore := &Executor{}
	if _, err := noStore.Run(&plan.Scan{Def: custDef, Alias: "c", PartID: "p0"}); err == nil {
		t.Fatal("scan without store must error")
	}
	if _, err := noStore.Run(&plan.ViewScan{Name: "v"}); err == nil {
		t.Fatal("view scan without store must error")
	}
}

func TestEmptyUnion(t *testing.T) {
	s := telcoStore(t)
	res := runPlan(t, s, &plan.Union{})
	if len(res.Rows) != 0 {
		t.Fatalf("empty union: %v", res.Rows)
	}
}

func TestSortByExpression(t *testing.T) {
	s := telcoStore(t)
	srt := &plan.Sort{
		Input: &plan.Scan{Def: custDef, Alias: "c", PartID: "p0"},
		Keys:  []plan.SortKey{{Expr: sqlparse.MustParseExpr("c.custid % 3")}, {Expr: sqlparse.MustParseExpr("c.custid")}},
	}
	res := runPlan(t, s, srt)
	// custid%3: 3->0, 1->1, 4->1, 2->2, 5->2; within group by custid.
	wantOrder := []int64{3, 1, 4, 2, 5}
	for i, w := range wantOrder {
		if res.Rows[i][0].I != w {
			t.Fatalf("expression sort order: %v", res.Rows)
		}
	}
}

func TestStringConcatInProjection(t *testing.T) {
	s := telcoStore(t)
	p := &plan.Project{
		Input: &plan.Filter{
			Input: &plan.Scan{Def: custDef, Alias: "c", PartID: "p0"},
			Pred:  sqlparse.MustParseExpr("c.custid = 1"),
		},
		Exprs: []expr.Expr{sqlparse.MustParseExpr("c.custname + '@' + c.office")},
		Names: []expr.ColumnID{{Name: "email"}},
	}
	res := runPlan(t, s, p)
	if res.Rows[0][0].S != "alice@Corfu" {
		t.Fatalf("concat: %v", res.Rows[0][0])
	}
}
