package catalog

import (
	"testing"

	"qtrade/internal/sqlparse"
	"qtrade/internal/value"
)

func custTable() *TableDef {
	return &TableDef{Name: "customer", Columns: []ColumnDef{
		{Name: "custid", Kind: value.Int},
		{Name: "custname", Kind: value.Str},
		{Name: "office", Kind: value.Str},
	}}
}

func TestAddTableAndLookup(t *testing.T) {
	s := NewSchema()
	if err := s.AddTable(custTable()); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Table("CUSTOMER"); !ok {
		t.Fatal("case-insensitive lookup failed")
	}
	if err := s.AddTable(custTable()); err == nil {
		t.Fatal("duplicate table must error")
	}
	if err := s.AddTable(&TableDef{Name: "empty"}); err == nil {
		t.Fatal("no columns must error")
	}
	if err := s.AddTable(&TableDef{Name: "dup", Columns: []ColumnDef{{Name: "x"}, {Name: "X"}}}); err == nil {
		t.Fatal("duplicate column must error")
	}
}

func TestColumnIndexAndIDs(t *testing.T) {
	tab := custTable()
	if tab.ColumnIndex("OFFICE") != 2 || tab.ColumnIndex("nope") != -1 {
		t.Fatal("ColumnIndex")
	}
	ids := tab.ColumnIDs("c")
	if ids[0].Table != "c" || ids[0].Name != "custid" {
		t.Fatalf("ColumnIDs: %+v", ids[0])
	}
	ids = tab.ColumnIDs("")
	if ids[0].Table != "customer" {
		t.Fatal("default alias must be table name")
	}
}

func TestImplicitPartition(t *testing.T) {
	s := NewSchema()
	s.MustAddTable(custTable())
	ps := s.Partitions("customer")
	if len(ps) != 1 || ps[0].ID != "p0" || ps[0].Predicate != nil {
		t.Fatalf("implicit partition: %+v", ps)
	}
	if s.Partitions("ghost") != nil {
		t.Fatal("unknown table partitions must be nil")
	}
}

func TestSetPartitions(t *testing.T) {
	s := NewSchema()
	s.MustAddTable(custTable())
	parts := []*Partition{
		{Table: "customer", ID: "corfu", Predicate: sqlparse.MustParseExpr("office = 'Corfu'")},
		{Table: "customer", ID: "myconos", Predicate: sqlparse.MustParseExpr("office = 'Myconos'")},
	}
	if err := s.SetPartitions("customer", parts); err != nil {
		t.Fatal(err)
	}
	if got := s.PartitionIDs("customer"); len(got) != 2 || got[0] != "corfu" {
		t.Fatalf("ids: %v", got)
	}
	p, ok := s.Partition("customer", "myconos")
	if !ok || p.Predicate.String() != "office = 'Myconos'" {
		t.Fatalf("partition lookup: %v %v", p, ok)
	}
	if _, ok := s.Partition("customer", "nope"); ok {
		t.Fatal("missing partition must not resolve")
	}
	if err := s.SetPartitions("ghost", parts); err == nil {
		t.Fatal("unknown table must error")
	}
	if err := s.SetPartitions("customer", nil); err == nil {
		t.Fatal("empty partitions must error")
	}
	if err := s.SetPartitions("customer", []*Partition{{Table: "other", ID: "x"}}); err == nil {
		t.Fatal("wrong table in partition must error")
	}
	if err := s.SetPartitions("customer", []*Partition{
		{Table: "customer", ID: "a"}, {Table: "customer", ID: "a"},
	}); err == nil {
		t.Fatal("duplicate ids must error")
	}
}

func TestPartitionKey(t *testing.T) {
	p := &Partition{Table: "Customer", ID: "p1"}
	if p.Key() != "customer/p1" {
		t.Fatalf("key: %s", p.Key())
	}
}

func TestSchemaClone(t *testing.T) {
	s := NewSchema()
	s.MustAddTable(custTable())
	if err := s.SetPartitions("customer", []*Partition{
		{Table: "customer", ID: "a", Predicate: sqlparse.MustParseExpr("office = 'X'")},
	}); err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	// Mutating the clone must not touch the original.
	cp, _ := c.Partition("customer", "a")
	cp.ID = "changed"
	if _, ok := s.Partition("customer", "a"); !ok {
		t.Fatal("clone aliased partitions")
	}
	ct, _ := c.Table("customer")
	ct.Columns[0].Name = "zzz"
	ot, _ := s.Table("customer")
	if ot.Columns[0].Name != "custid" {
		t.Fatal("clone aliased columns")
	}
}

func TestTablesSorted(t *testing.T) {
	s := NewSchema()
	s.MustAddTable(&TableDef{Name: "zebra", Columns: []ColumnDef{{Name: "x"}}})
	s.MustAddTable(&TableDef{Name: "ant", Columns: []ColumnDef{{Name: "x"}}})
	ts := s.Tables()
	if len(ts) != 2 || ts[0].Name != "ant" {
		t.Fatalf("sorted tables: %v", ts)
	}
}

func TestPlacement(t *testing.T) {
	p := NewPlacement()
	f1 := FragmentRef{Table: "Customer", Part: "a"}
	f2 := FragmentRef{Table: "customer", Part: "b"}
	p.Assign("n1", f1)
	p.Assign("n2", f1)
	p.Assign("n1", f1) // duplicate, no-op
	p.Assign("n2", f2)
	if h := p.Holders(f1); len(h) != 2 {
		t.Fatalf("holders: %v", h)
	}
	if nodes := p.Nodes(); len(nodes) != 2 || nodes[0] != "n1" {
		t.Fatalf("nodes: %v", nodes)
	}
	if f1.Key() != "customer/a" {
		t.Fatalf("fragment key: %s", f1.Key())
	}
}
