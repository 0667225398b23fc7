package rewrite

import (
	"errors"
	"strings"
	"testing"

	"qtrade/internal/catalog"
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
		{Table: "customer", ID: "myconos", Predicate: sqlparse.MustParseExpr("office = 'Myconos'")},
		{Table: "customer", ID: "athens", Predicate: sqlparse.MustParseExpr("office = 'Athens'")},
	}); err != nil {
		panic(err)
	}
	return sch
}

// myconosStore mimics the paper's example: the Myconos node holds the whole
// invoiceline table but only its own customer partition.
func myconosStore(t *testing.T, sch *catalog.Schema) *storage.Store {
	t.Helper()
	st := storage.NewStore()
	cust, _ := sch.Table("customer")
	inv, _ := sch.Table("invoiceline")
	if _, err := st.CreateFragment(cust, "myconos"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.CreateFragment(inv, "p0"); err != nil {
		t.Fatal(err)
	}
	return st
}

// paperQuery is the motivating query: total issued bills in Corfu and
// Myconos.
const paperQuery = `SELECT c.office, SUM(i.charge) AS total
	FROM customer c, invoiceline i
	WHERE c.custid = i.custid AND c.office IN ('Corfu', 'Myconos')
	GROUP BY c.office`

func TestPaperExampleMyconosRewrite(t *testing.T) {
	sch := telcoSchema()
	st := myconosStore(t, sch)
	sel := sqlparse.MustParseSelect(paperQuery)
	rw, err := ForSeller(sel, sch, st)
	if err != nil {
		t.Fatal(err)
	}
	sql := rw.Sel.SQL()
	// The paper: the restriction office='Myconos' is added because the node
	// holds only that partition.
	if !strings.Contains(sql, "c.office = 'Myconos'") {
		t.Fatalf("missing partition restriction: %s", sql)
	}
	if !strings.Contains(sql, "c.custid = i.custid") {
		t.Fatalf("join predicate must survive: %s", sql)
	}
	if rw.Complete {
		t.Fatal("Myconos holds only part of customer: not complete")
	}
	// Aggregation must be stripped (buyer re-aggregates across nodes) since
	// the extent is partial.
	if !rw.Stripped {
		t.Fatal("aggregation must be stripped on partial extents")
	}
	if got := rw.Parts["c"]; len(got) != 1 || got[0] != "myconos" {
		t.Fatalf("parts metadata: %+v", rw.Parts)
	}
	if got := rw.Parts["i"]; len(got) != 1 || got[0] != "p0" {
		t.Fatalf("invoiceline parts: %+v", rw.Parts)
	}
	// The stripped query must expose office (group by), charge (agg arg) and
	// custid (join) columns.
	low := strings.ToLower(sql)
	for _, col := range []string{"office", "charge", "custid"} {
		if !strings.Contains(low, col) {
			t.Fatalf("stripped select must expose %s: %s", col, sql)
		}
	}
}

func TestRestrictionSkippedWhenImplied(t *testing.T) {
	sch := telcoSchema()
	st := myconosStore(t, sch)
	sel := sqlparse.MustParseSelect(
		"SELECT c.custname FROM customer c WHERE c.office = 'Myconos'")
	rw, err := ForSeller(sel, sch, st)
	if err != nil {
		t.Fatal(err)
	}
	// Query already implies the restriction; it must not be duplicated.
	if n := strings.Count(rw.Sel.SQL(), "Myconos"); n != 1 {
		t.Fatalf("restriction duplicated: %s", rw.Sel.SQL())
	}
}

func TestContradictionRejected(t *testing.T) {
	sch := telcoSchema()
	st := myconosStore(t, sch)
	sel := sqlparse.MustParseSelect(
		"SELECT c.custname FROM customer c WHERE c.office = 'Athens'")
	_, err := ForSeller(sel, sch, st)
	if !errors.Is(err, ErrContradiction) {
		t.Fatalf("want ErrContradiction, got %v", err)
	}
}

func TestNothingLocal(t *testing.T) {
	sch := telcoSchema()
	st := storage.NewStore()
	sel := sqlparse.MustParseSelect("SELECT c.custname FROM customer c")
	_, err := ForSeller(sel, sch, st)
	if !errors.Is(err, ErrNothingLocal) {
		t.Fatalf("want ErrNothingLocal, got %v", err)
	}
}

func TestDropForeignRelationKeepsJoinColumns(t *testing.T) {
	sch := telcoSchema()
	st := storage.NewStore()
	inv, _ := sch.Table("invoiceline")
	if _, err := st.CreateFragment(inv, "p0"); err != nil {
		t.Fatal(err)
	}
	sel := sqlparse.MustParseSelect(
		"SELECT c.custname FROM customer c, invoiceline i WHERE c.custid = i.custid AND i.charge > 5")
	rw, err := ForSeller(sel, sch, st)
	if err != nil {
		t.Fatal(err)
	}
	sql := rw.Sel.SQL()
	if strings.Contains(strings.ToLower(sql), "customer") {
		t.Fatalf("customer must be dropped: %s", sql)
	}
	if !strings.Contains(sql, "i.charge > 5") {
		t.Fatalf("local predicate must survive: %s", sql)
	}
	if !strings.Contains(strings.ToLower(sql), "i.custid") {
		t.Fatalf("join column must be exposed for the buyer: %s", sql)
	}
	if len(rw.Dropped) != 1 || rw.Dropped[0] != "c" {
		t.Fatalf("dropped: %v", rw.Dropped)
	}
	if rw.Complete {
		t.Fatal("dropping a relation cannot be complete")
	}
}

func TestCompleteNodeKeepsAggregation(t *testing.T) {
	sch := telcoSchema()
	st := storage.NewStore()
	cust, _ := sch.Table("customer")
	inv, _ := sch.Table("invoiceline")
	for _, p := range []string{"corfu", "myconos", "athens"} {
		if _, err := st.CreateFragment(cust, p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.CreateFragment(inv, "p0"); err != nil {
		t.Fatal(err)
	}
	sel := sqlparse.MustParseSelect(paperQuery)
	rw, err := ForSeller(sel, sch, st)
	if err != nil {
		t.Fatal(err)
	}
	if !rw.Complete || rw.Stripped {
		t.Fatalf("full holder must keep aggregation: complete=%v stripped=%v", rw.Complete, rw.Stripped)
	}
	sql := rw.Sel.SQL()
	if !strings.Contains(sql, "SUM(i.charge)") || !strings.Contains(sql, "GROUP BY c.office") {
		t.Fatalf("aggregation must survive: %s", sql)
	}
	// No restriction needed: the node holds every partition.
	if strings.Contains(sql, "Myconos' OR") {
		t.Fatalf("no restriction expected: %s", sql)
	}
}

func TestOrderLimitSurviveOnlyWhenComplete(t *testing.T) {
	sch := telcoSchema()
	full := storage.NewStore()
	cust, _ := sch.Table("customer")
	for _, p := range []string{"corfu", "myconos", "athens"} {
		if _, err := full.CreateFragment(cust, p); err != nil {
			t.Fatal(err)
		}
	}
	sel := sqlparse.MustParseSelect("SELECT c.custname FROM customer c ORDER BY c.custname LIMIT 5")
	rw, err := ForSeller(sel, sch, full)
	if err != nil {
		t.Fatal(err)
	}
	if rw.Sel.Limit != 5 || len(rw.Sel.OrderBy) != 1 {
		t.Fatalf("complete holder keeps order/limit: %s", rw.Sel.SQL())
	}
	partial := storage.NewStore()
	if _, err := partial.CreateFragment(cust, "corfu"); err != nil {
		t.Fatal(err)
	}
	rw2, err := ForSeller(sel, sch, partial)
	if err != nil {
		t.Fatal(err)
	}
	if rw2.Sel.Limit >= 0 || len(rw2.Sel.OrderBy) != 0 {
		t.Fatalf("partial holder must drop order/limit: %s", rw2.Sel.SQL())
	}
}

func TestPartitionRestrictionHelpers(t *testing.T) {
	sch := telcoSchema()
	r := PartitionRestriction(sch, "customer", "c", []string{"corfu", "myconos"})
	if r == nil || !strings.Contains(r.String(), "OR") {
		t.Fatalf("restriction: %v", r)
	}
	// A whole-table partition yields no restriction.
	if PartitionRestriction(sch, "invoiceline", "i", []string{"p0"}) != nil {
		t.Fatal("whole-table fragment must not restrict")
	}
}

func TestMultiplePartitionsRestrictionIsDisjunction(t *testing.T) {
	sch := telcoSchema()
	st := storage.NewStore()
	cust, _ := sch.Table("customer")
	for _, p := range []string{"corfu", "myconos"} {
		if _, err := st.CreateFragment(cust, p); err != nil {
			t.Fatal(err)
		}
	}
	sel := sqlparse.MustParseSelect("SELECT c.custname FROM customer c")
	rw, err := ForSeller(sel, sch, st)
	if err != nil {
		t.Fatal(err)
	}
	sql := rw.Sel.SQL()
	if !strings.Contains(sql, "Corfu") || !strings.Contains(sql, "Myconos") {
		t.Fatalf("disjunction of held partitions expected: %s", sql)
	}
}

func TestRewrittenQueryReParses(t *testing.T) {
	sch := telcoSchema()
	st := myconosStore(t, sch)
	for _, q := range []string{
		paperQuery,
		"SELECT c.custname FROM customer c WHERE c.office IN ('Corfu','Myconos')",
		"SELECT i.charge FROM invoiceline i WHERE i.charge BETWEEN 1 AND 9",
		"SELECT c.office, i.invid FROM customer c, invoiceline i WHERE c.custid = i.custid",
	} {
		rw, err := ForSeller(sqlparse.MustParseSelect(q), sch, st)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if _, err := sqlparse.ParseSelect(rw.Sel.SQL()); err != nil {
			t.Fatalf("rewritten SQL unparseable: %q: %v", rw.Sel.SQL(), err)
		}
	}
}
