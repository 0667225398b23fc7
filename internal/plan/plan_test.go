package plan

import (
	"strings"
	"testing"

	"qtrade/internal/catalog"
	"qtrade/internal/expr"
	"qtrade/internal/sqlparse"
	"qtrade/internal/value"
)

var custDef = &catalog.TableDef{Name: "customer", Columns: []catalog.ColumnDef{
	{Name: "custid", Kind: value.Int},
	{Name: "office", Kind: value.Str},
}}

func TestScanNode(t *testing.T) {
	s := &Scan{Def: custDef, Alias: "c", PartID: "p1", Pred: sqlparse.MustParseExpr("office = 'X'")}
	schema := s.Schema()
	if len(schema) != 2 || schema[0].Table != "c" || schema[0].Name != "custid" {
		t.Fatalf("schema: %+v", schema)
	}
	if s.Children() != nil {
		t.Fatal("scan is a leaf")
	}
	if !strings.Contains(s.Describe(), "customer/p1") || !strings.Contains(s.Describe(), "filter") {
		t.Fatalf("describe: %s", s.Describe())
	}
}

func TestJoinSchemaConcat(t *testing.T) {
	j := &Join{
		L: &Scan{Def: custDef, Alias: "a", PartID: "p0"},
		R: &Scan{Def: custDef, Alias: "b", PartID: "p0"},
	}
	if len(j.Schema()) != 4 {
		t.Fatalf("join schema: %+v", j.Schema())
	}
	if j.Describe() != "CrossJoin" {
		t.Fatalf("cross describe: %s", j.Describe())
	}
	j.On = sqlparse.MustParseExpr("a.custid = b.custid")
	if !strings.Contains(j.Describe(), "Join on") {
		t.Fatalf("describe: %s", j.Describe())
	}
}

func TestAggregateSchema(t *testing.T) {
	a := &Aggregate{
		Input:      &Scan{Def: custDef, Alias: "c", PartID: "p0"},
		GroupBy:    []expr.Expr{sqlparse.MustParseExpr("c.office")},
		GroupNames: []expr.ColumnID{{Table: "c", Name: "office"}},
		Aggs: []AggItem{
			{Agg: &expr.Agg{Fn: "COUNT", Star: true}, Name: expr.ColumnID{Name: "n"}},
		},
	}
	schema := a.Schema()
	if len(schema) != 2 || schema[1].Name != "n" {
		t.Fatalf("agg schema: %+v", schema)
	}
	if !strings.Contains(a.Describe(), "COUNT(*)") {
		t.Fatalf("describe: %s", a.Describe())
	}
}

func TestWrapperNodes(t *testing.T) {
	scan := &Scan{Def: custDef, Alias: "c", PartID: "p0"}
	f := &Filter{Input: scan, Pred: sqlparse.MustParseExpr("c.custid > 1")}
	p := &Project{Input: f, Exprs: []expr.Expr{sqlparse.MustParseExpr("c.custid")}, Names: []expr.ColumnID{{Name: "id"}}}
	srt := &Sort{Input: p, Keys: []SortKey{{Expr: sqlparse.MustParseExpr("id"), Desc: true}}}
	lim := &Limit{Input: srt, N: 5}
	d := &Distinct{Input: lim}
	if len(d.Schema()) != 1 || d.Schema()[0].Name != "id" {
		t.Fatalf("pipeline schema: %+v", d.Schema())
	}
	for _, n := range []Node{f, p, srt, lim, d} {
		if len(n.Children()) != 1 {
			t.Fatalf("%T children", n)
		}
		if n.Describe() == "" {
			t.Fatalf("%T describe empty", n)
		}
	}
	if !strings.Contains(srt.Describe(), "DESC") {
		t.Fatalf("sort describe: %s", srt.Describe())
	}
}

func TestUnionAndRemote(t *testing.T) {
	r1 := &Remote{NodeID: "n1", SQL: "SELECT 1", Cols: []expr.ColumnID{{Name: "x"}}, EstRows: 10, EstCost: 1.5}
	r2 := &Remote{NodeID: "n2", SQL: "SELECT 2", Cols: []expr.ColumnID{{Name: "x"}}}
	u := &Union{Inputs: []Node{r1, r2}}
	if len(u.Schema()) != 1 {
		t.Fatalf("union schema: %+v", u.Schema())
	}
	if (&Union{}).Schema() != nil {
		t.Fatal("empty union schema must be nil")
	}
	if !strings.Contains(r1.Describe(), "Remote[n1]") || !strings.Contains(r1.Describe(), "1.5") {
		t.Fatalf("remote describe: %s", r1.Describe())
	}
	if got := Remotes(u); len(got) != 2 || got[0].NodeID != "n1" {
		t.Fatalf("remotes: %+v", got)
	}
	if CountNodes(u) != 3 {
		t.Fatalf("count: %d", CountNodes(u))
	}
}

func TestViewScanNode(t *testing.T) {
	v := &ViewScan{Name: "totals", Cols: []expr.ColumnID{{Name: "x"}}, Pred: sqlparse.MustParseExpr("x > 1")}
	if len(v.Schema()) != 1 || v.Children() != nil {
		t.Fatal("view scan shape")
	}
	if !strings.Contains(v.Describe(), "totals") || !strings.Contains(v.Describe(), "filter") {
		t.Fatalf("describe: %s", v.Describe())
	}
}

func TestExplainIndentation(t *testing.T) {
	tree := &Filter{
		Input: &Join{
			L: &Scan{Def: custDef, Alias: "a", PartID: "p0"},
			R: &Scan{Def: custDef, Alias: "b", PartID: "p0"},
		},
		Pred: sqlparse.MustParseExpr("a.custid = b.custid"),
	}
	out := Explain(tree)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("explain lines: %v", lines)
	}
	if !strings.HasPrefix(lines[1], "  ") || !strings.HasPrefix(lines[2], "    ") {
		t.Fatalf("indentation:\n%s", out)
	}
}

func TestFinalizeSelectProjectionNames(t *testing.T) {
	sel := sqlparse.MustParseSelect("SELECT c.custid AS id, c.custid + 1 FROM customer c")
	p, err := FinalizeSelect(sel, &Scan{Def: custDef, Alias: "c", PartID: "p0"})
	if err != nil {
		t.Fatal(err)
	}
	schema := p.Schema()
	if schema[0].Name != "id" {
		t.Fatalf("alias name: %+v", schema[0])
	}
	if schema[1].Name != "_col1" {
		t.Fatalf("synth name: %+v", schema[1])
	}
}

func TestFinalizeSelectEmptySelectList(t *testing.T) {
	sel := &sqlparse.Select{Limit: -1}
	if _, err := FinalizeSelect(sel, &Scan{Def: custDef, Alias: "c", PartID: "p0"}); err == nil {
		t.Fatal("empty select list must error")
	}
}

func TestFinalizeOrderByHiddenColumn(t *testing.T) {
	// ORDER BY a non-projected column: the key rides along hidden and the
	// final schema shows only the select list.
	sel := sqlparse.MustParseSelect("SELECT c.office FROM customer c ORDER BY c.custid DESC")
	p, err := FinalizeSelect(sel, &Scan{Def: custDef, Alias: "c", PartID: "p0"})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Schema(); len(got) != 1 || got[0].Name != "office" {
		t.Fatalf("hidden column leaked: %+v", got)
	}
	if !strings.Contains(Explain(p), "_ord0") {
		t.Fatalf("expected hidden sort column:\n%s", Explain(p))
	}
}

func TestFinalizeDistinctOrderByNonProjectedRejected(t *testing.T) {
	sel := sqlparse.MustParseSelect("SELECT DISTINCT c.office FROM customer c ORDER BY c.custid")
	if _, err := FinalizeSelect(sel, &Scan{Def: custDef, Alias: "c", PartID: "p0"}); err == nil {
		t.Fatal("DISTINCT with non-projected ORDER BY must be rejected")
	}
}

func TestFinalizeGroupByExpression(t *testing.T) {
	// Grouping by an expression (not a plain column) gets a synthetic name.
	sel := sqlparse.MustParseSelect("SELECT c.custid % 2, COUNT(*) FROM customer c GROUP BY c.custid % 2")
	p, err := FinalizeSelect(sel, &Scan{Def: custDef, Alias: "c", PartID: "p0"})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Schema(); len(got) != 2 {
		t.Fatalf("schema: %+v", got)
	}
}

func TestFinalizeOrderByAggregateNotSelected(t *testing.T) {
	// The key is aggregated by the same stage as the select list and rides
	// along hidden; one that is also selected is sorted by its output column.
	sel := sqlparse.MustParseSelect("SELECT c.office FROM customer c GROUP BY c.office ORDER BY COUNT(*) DESC, c.office")
	p, err := FinalizeSelect(sel, &Scan{Def: custDef, Alias: "c", PartID: "p0"})
	if err != nil {
		t.Fatal(err)
	}
	out := Explain(p)
	for _, want := range []string{"Sort _ord0 DESC, c.office", "Project c.office, _agg0", "Aggregate [c.office] COUNT(*)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	sel = sqlparse.MustParseSelect("SELECT DISTINCT c.office, COUNT(*) AS n FROM customer c GROUP BY c.office ORDER BY COUNT(*)")
	if p, err = FinalizeSelect(sel, &Scan{Def: custDef, Alias: "c", PartID: "p0"}); err != nil {
		t.Fatal(err)
	}
	if out := Explain(p); !strings.Contains(out, "Sort n\n") || strings.Contains(out, "_ord") {
		t.Fatalf("a selected aggregate sorts by its output:\n%s", out)
	}
}

func TestFinalizeRefusesWhatHasNoValue(t *testing.T) {
	for _, q := range []string{
		"SELECT c.custid FROM customer c HAVING c.custid > 5",                 // HAVING without grouping
		"SELECT c.office FROM customer c GROUP BY c.office ORDER BY c.custid", // neither grouped nor aggregated
		"SELECT c.office FROM customer c ORDER BY COUNT(*)",                   // an aggregate without grouping
		"SELECT c.office FROM customer c ORDER BY c.nosuch",
	} {
		if p, err := FinalizeSelect(sqlparse.MustParseSelect(q), &Scan{Def: custDef, Alias: "c", PartID: "p0"}); err == nil {
			t.Errorf("%s: planned\n%s", q, Explain(p))
		}
	}
}
