package rewrite

import (
	"strings"
	"testing"

	"qtrade/internal/plan"
	"qtrade/internal/sqlparse"
	"qtrade/internal/storage"
)

// TestUnqualifiedColumnsResolve: a bare column the query names, qualified by
// plan.Qualify as every caller does before the rewrite, survives it.
func TestUnqualifiedColumnsResolve(t *testing.T) {
	sch := telcoSchema()
	st := myconosStore(t, sch)
	sel := sqlparse.MustParseSelect(
		"SELECT custname FROM customer c WHERE office = 'Myconos'")
	if err := plan.Qualify(sel, sch); err != nil {
		t.Fatal(err)
	}
	rw, err := ForSeller(sel, sch, st)
	if err != nil {
		t.Fatal(err)
	}
	sql := rw.Sel.SQL()
	if !strings.Contains(sql, "custname") {
		t.Fatalf("unqualified item lost: %s", sql)
	}
	if _, err := sqlparse.ParseSelect(sql); err != nil {
		t.Fatalf("unparseable rewrite: %q: %v", sql, err)
	}
}

func TestAmbiguousUnqualifiedColumnConjunctDropped(t *testing.T) {
	// custid exists in both tables: an unqualified custid conjunct cannot
	// be attributed and must not survive into a single-relation rewrite.
	sch := telcoSchema()
	st := storage.NewStore()
	cust, _ := sch.Table("customer")
	if _, err := st.CreateFragment(cust, "myconos"); err != nil {
		t.Fatal(err)
	}
	sel := sqlparse.MustParseSelect(
		"SELECT c.custname FROM customer c, invoiceline i WHERE custid = 3")
	rw, err := ForSeller(sel, sch, st)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(rw.Sel.SQL(), "custid = 3") {
		t.Fatalf("ambiguous conjunct must be dropped (buyer re-applies): %s", rw.Sel.SQL())
	}
}

func TestGroupByForeignColumnStripsAggregation(t *testing.T) {
	// The node holds only invoiceline; grouping is by a customer column it
	// lacks — aggregation must be stripped and the local agg argument
	// exposed raw.
	sch := telcoSchema()
	st := storage.NewStore()
	inv, _ := sch.Table("invoiceline")
	if _, err := st.CreateFragment(inv, "p0"); err != nil {
		t.Fatal(err)
	}
	sel := sqlparse.MustParseSelect(`SELECT c.office, SUM(i.charge) AS total
		FROM customer c, invoiceline i WHERE c.custid = i.custid GROUP BY c.office`)
	rw, err := ForSeller(sel, sch, st)
	if err != nil {
		t.Fatal(err)
	}
	if !rw.Stripped {
		t.Fatal("aggregation must be stripped")
	}
	sql := strings.ToLower(rw.Sel.SQL())
	if !strings.Contains(sql, "i.charge") || !strings.Contains(sql, "i.custid") {
		t.Fatalf("agg argument and join key must be exposed: %s", sql)
	}
	if strings.Contains(sql, "group by") || strings.Contains(sql, "sum(") {
		t.Fatalf("no aggregation may survive: %s", sql)
	}
}

func TestHavingSurvivesOnlyWithAggregation(t *testing.T) {
	sch := telcoSchema()
	full := storage.NewStore()
	cust, _ := sch.Table("customer")
	inv, _ := sch.Table("invoiceline")
	for _, p := range []string{"corfu", "myconos", "athens"} {
		if _, err := full.CreateFragment(cust, p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := full.CreateFragment(inv, "p0"); err != nil {
		t.Fatal(err)
	}
	sel := sqlparse.MustParseSelect(`SELECT c.office, COUNT(*) AS n
		FROM customer c, invoiceline i WHERE c.custid = i.custid
		GROUP BY c.office HAVING COUNT(*) > 2`)
	rw, err := ForSeller(sel, sch, full)
	if err != nil {
		t.Fatal(err)
	}
	if rw.Sel.Having == nil {
		t.Fatalf("complete holder keeps HAVING: %s", rw.Sel.SQL())
	}
	partial := storage.NewStore()
	if _, err := partial.CreateFragment(cust, "corfu"); err != nil {
		t.Fatal(err)
	}
	if _, err := partial.CreateFragment(inv, "p0"); err != nil {
		t.Fatal(err)
	}
	rw2, err := ForSeller(sel, sch, partial)
	if err != nil {
		t.Fatal(err)
	}
	if rw2.Sel.Having != nil {
		t.Fatalf("partial holder must drop HAVING: %s", rw2.Sel.SQL())
	}
}

func TestOnlyIrrelevantPartitionsHeld(t *testing.T) {
	// Athens holds only the athens partition; for a Corfu-only query its
	// customer relation is dropped entirely, but the invoice replica is
	// still offered.
	sch := telcoSchema()
	st := storage.NewStore()
	cust, _ := sch.Table("customer")
	inv, _ := sch.Table("invoiceline")
	if _, err := st.CreateFragment(cust, "athens"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.CreateFragment(inv, "p0"); err != nil {
		t.Fatal(err)
	}
	sel := sqlparse.MustParseSelect(`SELECT c.custname, i.charge FROM customer c, invoiceline i
		WHERE c.custid = i.custid AND c.office = 'Corfu'`)
	rw, err := ForSeller(sel, sch, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(rw.Dropped) != 1 || rw.Dropped[0] != "c" {
		t.Fatalf("customer must be dropped: %+v", rw.Dropped)
	}
	if !strings.Contains(strings.ToLower(rw.Sel.SQL()), "invoiceline") {
		t.Fatalf("invoice replica must survive: %s", rw.Sel.SQL())
	}
}
