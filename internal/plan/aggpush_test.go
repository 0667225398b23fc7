package plan

import (
	"strings"
	"testing"

	"qtrade/internal/catalog"
	"qtrade/internal/expr"
	"qtrade/internal/sqlparse"
	"qtrade/internal/value"
)

func mergeInput() Node {
	// An input producing [c.office, _pa0, _pa1] partial rows.
	return &Remote{NodeID: "x", SQL: "…", Cols: []expr.ColumnID{
		{Table: "c", Name: "office"}, {Name: "_pa0"}, {Name: "_pa1"},
	}}
}

func TestBuildMergePlanShape(t *testing.T) {
	sel := sqlparse.MustParseSelect(`SELECT c.office, SUM(i.charge) AS total, COUNT(*) AS n
		FROM customer c, invoiceline i WHERE c.custid = i.custid
		GROUP BY c.office HAVING COUNT(*) > 2 ORDER BY total DESC LIMIT 5`)
	d, ok := DecomposeAggregates(sel)
	if !ok {
		t.Fatal("must decompose")
	}
	root, err := d.BuildMergePlan(sel, mergeInput())
	if err != nil {
		t.Fatal(err)
	}
	out := Explain(root)
	for _, want := range []string{"Limit 5", "Sort total DESC", "Project", "Filter", "Aggregate", "SUM(_pa0)", "SUM(_pa1)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("merge plan missing %q:\n%s", want, out)
		}
	}
	// Output schema matches the query's select list.
	schema := root.Schema()
	if len(schema) != 3 || schema[1].Name != "total" || schema[2].Name != "n" {
		t.Fatalf("schema: %+v", schema)
	}
}

func TestBuildMergePlanAvgDivision(t *testing.T) {
	sel := sqlparse.MustParseSelect(`SELECT c.office, AVG(i.charge) AS mean
		FROM customer c, invoiceline i WHERE c.custid = i.custid GROUP BY c.office`)
	d, ok := DecomposeAggregates(sel)
	if !ok {
		t.Fatal("must decompose")
	}
	if d.Partials[0].Merge != "SUM" || d.Partials[1].Merge != "SUM" {
		t.Fatalf("AVG partial merges: %+v", d.Partials)
	}
	input := &Remote{NodeID: "x", SQL: "…", Cols: []expr.ColumnID{
		{Table: "c", Name: "office"}, {Name: "_pa0"}, {Name: "_pa1"},
	}}
	root, err := d.BuildMergePlan(sel, input)
	if err != nil {
		t.Fatal(err)
	}
	out := Explain(root)
	if !strings.Contains(out, "_m0 * 1.0 / _m1") {
		t.Fatalf("AVG must merge as SUM/COUNT division:\n%s", out)
	}
}

func TestBuildMergePlanOrderByUnavailable(t *testing.T) {
	// ORDER BY a raw column that does not survive aggregation pushdown.
	sel := sqlparse.MustParseSelect(`SELECT c.office, SUM(i.charge) AS total
		FROM customer c, invoiceline i WHERE c.custid = i.custid
		GROUP BY c.office ORDER BY i.charge`)
	d, ok := DecomposeAggregates(sel)
	if !ok {
		t.Fatal("must decompose")
	}
	if _, err := d.BuildMergePlan(sel, mergeInput()); err == nil {
		t.Fatal("unavailable ORDER BY must be rejected")
	}
}

func TestQualify(t *testing.T) {
	sch := catalog.NewSchema()
	sch.MustAddTable(&catalog.TableDef{Name: "customer", Columns: []catalog.ColumnDef{
		{Name: "custid", Kind: value.Int}, {Name: "office", Kind: value.Str},
	}})
	sch.MustAddTable(&catalog.TableDef{Name: "invoiceline", Columns: []catalog.ColumnDef{
		{Name: "invid", Kind: value.Int}, {Name: "custid", Kind: value.Int}, {Name: "charge", Kind: value.Float},
	}})
	sel := sqlparse.MustParseSelect(`SELECT office, SUM(charge) AS total
		FROM customer c, invoiceline i WHERE c.custid = i.custid AND charge > 5
		GROUP BY office ORDER BY office`)
	Qualify(sel, sch)
	sql := sel.SQL()
	for _, want := range []string{"c.office", "SUM(i.charge)", "i.charge > 5", "GROUP BY c.office", "ORDER BY c.office"} {
		if !strings.Contains(sql, want) {
			t.Fatalf("qualification missing %q: %s", want, sql)
		}
	}
	// Ambiguous custid stays untouched; aliases in ORDER BY stay untouched.
	sel2 := sqlparse.MustParseSelect("SELECT custid FROM customer c, invoiceline i ORDER BY total")
	Qualify(sel2, sch)
	if strings.Contains(sel2.SQL(), "c.custid") || strings.Contains(sel2.SQL(), "i.custid") {
		t.Fatalf("ambiguous column must stay bare: %s", sel2.SQL())
	}
	if !strings.Contains(sel2.SQL(), "ORDER BY total") {
		t.Fatalf("alias key must stay bare: %s", sel2.SQL())
	}
}

func TestDecomposePartialItemsNaming(t *testing.T) {
	sel := sqlparse.MustParseSelect(`SELECT c.office, MIN(i.charge), MAX(i.charge), COUNT(i.charge)
		FROM customer c, invoiceline i GROUP BY c.office`)
	d, ok := DecomposeAggregates(sel)
	if !ok {
		t.Fatal("must decompose")
	}
	items := d.PartialItems()
	if items[0].Expr.String() != "c.office" {
		t.Fatalf("group item: %s", items[0].Expr)
	}
	for i, it := range items[1:] {
		if it.Alias != "_pa"+string(rune('0'+i)) {
			t.Fatalf("partial alias: %+v", it)
		}
	}
	if d.Partials[0].Merge != "MIN" || d.Partials[1].Merge != "MAX" || d.Partials[2].Merge != "SUM" {
		t.Fatalf("merges: %+v", d.Partials)
	}
}

// TestBuildMergePlanIsTheTail: the merge plan lowers DISTINCT and an ORDER BY
// aggregate the select list leaves out, as FinalizeSelect does.
func TestBuildMergePlanIsTheTail(t *testing.T) {
	sel := sqlparse.MustParseSelect(`SELECT DISTINCT c.office FROM customer c, invoiceline i
		WHERE c.custid = i.custid GROUP BY c.office ORDER BY SUM(i.charge) DESC`)
	d, ok := DecomposeAggregates(sel)
	if !ok || len(d.Partials) != 1 || d.Partials[0].Agg.String() != "SUM(i.charge)" {
		t.Fatalf("the ORDER BY aggregate must be decomposed: %+v", d)
	}
	if _, err := d.BuildMergePlan(sel, mergeInput()); err == nil {
		t.Fatal("DISTINCT with an unselected ORDER BY key must be refused")
	}
	sel.Distinct = false
	root, err := d.BuildMergePlan(sel, mergeInput())
	if err != nil {
		t.Fatal(err)
	}
	if out := Explain(root); !strings.Contains(out, "Sort _ord0 DESC") || !strings.Contains(out, "Project c.office, _m0") {
		t.Fatalf("merge plan:\n%s", out)
	}
	sel = sqlparse.MustParseSelect(`SELECT DISTINCT COUNT(*) AS n FROM customer c, invoiceline i
		WHERE c.custid = i.custid GROUP BY c.office`)
	if d, ok = DecomposeAggregates(sel); !ok {
		t.Fatal("must decompose")
	}
	if root, err = d.BuildMergePlan(sel, mergeInput()); err != nil || !strings.HasPrefix(Explain(root), "Distinct\n") {
		t.Fatalf("DISTINCT must survive the merge: %v\n%s", err, Explain(root))
	}
}
