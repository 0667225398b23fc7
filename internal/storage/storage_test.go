package storage

import (
	"testing"

	"qtrade/internal/catalog"
	"qtrade/internal/expr"
	"qtrade/internal/sqlparse"
	"qtrade/internal/stats"
	"qtrade/internal/value"
)

func custDef() *catalog.TableDef {
	return &catalog.TableDef{Name: "customer", Columns: []catalog.ColumnDef{
		{Name: "custid", Kind: value.Int},
		{Name: "office", Kind: value.Str},
	}}
}

func row(id int64, office string) value.Row {
	return value.Row{value.NewInt(id), value.NewStr(office)}
}

func TestCreateInsertScan(t *testing.T) {
	s := NewStore()
	if _, err := s.CreateFragment(custDef(), "corfu"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateFragment(custDef(), "corfu"); err == nil {
		t.Fatal("duplicate fragment must error")
	}
	if err := s.Insert("customer", "corfu", row(1, "Corfu"), row(2, "Corfu")); err != nil {
		t.Fatal(err)
	}
	var got []int64
	err := s.Scan("customer", "corfu", nil, func(r value.Row) bool {
		got = append(got, r[0].I)
		return true
	})
	if err != nil || len(got) != 2 {
		t.Fatalf("scan: %v %v", got, err)
	}
}

func TestInsertValidation(t *testing.T) {
	s := NewStore()
	if _, err := s.CreateFragment(custDef(), "p0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("customer", "p0", value.Row{value.NewInt(1)}); err == nil {
		t.Fatal("width mismatch must error")
	}
	if err := s.Insert("customer", "p0", value.Row{value.NewStr("x"), value.NewStr("y")}); err == nil {
		t.Fatal("kind mismatch must error")
	}
	if err := s.Insert("customer", "p0", value.Row{value.NewNull(), value.NewNull()}); err != nil {
		t.Fatalf("nulls are allowed: %v", err)
	}
	if err := s.Insert("ghost", "p0", row(1, "x")); err != nil {
		// expected
	} else {
		t.Fatal("unknown fragment must error")
	}
	// Numeric coercion: float into int column is accepted.
	if err := s.Insert("customer", "p0", value.Row{value.NewFloat(2.0), value.NewStr("x")}); err != nil {
		t.Fatalf("numeric coercion: %v", err)
	}
}

func TestScanWithPredicate(t *testing.T) {
	s := NewStore()
	def := custDef()
	if _, err := s.CreateFragment(def, "p0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("customer", "p0", row(1, "Corfu"), row(2, "Myconos"), row(3, "Corfu")); err != nil {
		t.Fatal(err)
	}
	pred := expr.MustBind(sqlparse.MustParseExpr("office = 'Corfu'"), def.ColumnIDs(""))
	n := 0
	if err := s.Scan("customer", "p0", pred, func(value.Row) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("filtered scan: %d", n)
	}
	// Early termination.
	n = 0
	if err := s.Scan("customer", "p0", nil, func(value.Row) bool { n++; return false }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("early stop: %d", n)
	}
	if err := s.Scan("ghost", "p0", nil, func(value.Row) bool { return true }); err == nil {
		t.Fatal("scan of missing fragment must error")
	}
}

func TestFragmentListingSorted(t *testing.T) {
	s := NewStore()
	def := custDef()
	for _, p := range []string{"z", "a", "m"} {
		if _, err := s.CreateFragment(def, p); err != nil {
			t.Fatal(err)
		}
	}
	fr := s.Fragments("customer")
	if len(fr) != 3 || fr[0].PartID != "a" || fr[2].PartID != "z" {
		t.Fatalf("sorted fragments: %v", fr)
	}
	if got := s.PartIDs("customer"); got[0] != "a" {
		t.Fatalf("part ids: %v", got)
	}
	if s.Fragments("ghost") != nil {
		t.Fatal("no fragments must be nil")
	}
	if tabs := s.Tables(); len(tabs) != 1 || tabs[0] != "customer" {
		t.Fatalf("tables: %v", tabs)
	}
	if s.Fragment("customer", "a") == nil || s.Fragment("customer", "q") != nil {
		t.Fatal("fragment lookup")
	}
	if (catalog.FragmentRef{Table: "customer", Part: "a"}) != fr[0].Ref() {
		t.Fatal("Ref identity")
	}
}

func TestStatsLifecycle(t *testing.T) {
	s := NewStore()
	if _, err := s.CreateFragment(custDef(), "p0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("customer", "p0", row(1, "a"), row(2, "b")); err != nil {
		t.Fatal(err)
	}
	ts, err := s.FragmentStats("customer", "p0")
	if err != nil || ts.Rows != 2 {
		t.Fatalf("stats: %+v %v", ts, err)
	}
	// Insert invalidates cached stats.
	if err := s.Insert("customer", "p0", row(3, "c")); err != nil {
		t.Fatal(err)
	}
	ts, _ = s.FragmentStats("customer", "p0")
	if ts.Rows != 3 {
		t.Fatalf("stats must refresh after insert: %d", ts.Rows)
	}
	if _, err := s.FragmentStats("customer", "nope"); err == nil {
		t.Fatal("missing fragment stats must error")
	}
}

func TestSetFragmentStatsAndTableStats(t *testing.T) {
	s := NewStore()
	def := custDef()
	for _, p := range []string{"a", "b"} {
		if _, err := s.CreateFragment(def, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetFragmentStats("customer", "a", stats.Synthetic(def, 100, 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetFragmentStats("customer", "b", stats.Synthetic(def, 50, 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetFragmentStats("customer", "zzz", nil); err == nil {
		t.Fatal("missing fragment must error")
	}
	ts, err := s.TableStats("customer")
	if err != nil || ts.Rows != 150 {
		t.Fatalf("merged table stats: %+v %v", ts, err)
	}
	if _, err := s.TableStats("ghost"); err == nil {
		t.Fatal("missing table stats must error")
	}
}

func TestViews(t *testing.T) {
	s := NewStore()
	v := &MaterializedView{
		Name: "officetotals",
		SQL:  "SELECT office, SUM(custid) AS total FROM customer GROUP BY office",
		Columns: []catalog.ColumnDef{
			{Name: "office", Kind: value.Str},
			{Name: "total", Kind: value.Int},
		},
		Rows: []value.Row{{value.NewStr("Corfu"), value.NewInt(10)}},
	}
	if err := s.AddView(v); err != nil {
		t.Fatal(err)
	}
	if err := s.AddView(v); err == nil {
		t.Fatal("duplicate view must error")
	}
	got := s.View("OFFICETOTALS")
	if got == nil || got.Stats == nil || got.Stats.Rows != 1 {
		t.Fatalf("view stats: %+v", got)
	}
	if len(s.Views()) != 1 {
		t.Fatal("views listing")
	}
	if s.View("nope") != nil {
		t.Fatal("missing view must be nil")
	}
}

func TestTotalRows(t *testing.T) {
	s := NewStore()
	if _, err := s.CreateFragment(custDef(), "p0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("customer", "p0", row(1, "a"), row(2, "b")); err != nil {
		t.Fatal(err)
	}
	if s.TotalRows() != 2 {
		t.Fatalf("total rows: %d", s.TotalRows())
	}
}

func TestEpochAndStatsVersionTick(t *testing.T) {
	s := NewStore()
	if s.Epoch() != 0 || s.StatsVersion() != 0 {
		t.Fatalf("fresh store versions %d/%d, want 0/0", s.Epoch(), s.StatsVersion())
	}
	if _, err := s.CreateFragment(custDef(), "corfu"); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 1 {
		t.Fatalf("CreateFragment must tick the epoch, got %d", s.Epoch())
	}
	if err := s.Insert("customer", "corfu", row(1, "Corfu")); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 2 || s.StatsVersion() != 1 {
		t.Fatalf("Insert must tick both versions, got %d/%d", s.Epoch(), s.StatsVersion())
	}
	// Lazily building stats reads unchanged rows: no version tick.
	if _, err := s.FragmentStats("customer", "corfu"); err != nil {
		t.Fatal(err)
	}
	if s.StatsVersion() != 1 {
		t.Fatalf("lazy stats build must not tick, got %d", s.StatsVersion())
	}
	if err := s.SetFragmentStats("customer", "corfu", &stats.TableStats{Rows: 99}); err != nil {
		t.Fatal(err)
	}
	if s.StatsVersion() != 2 {
		t.Fatalf("SetFragmentStats must tick the stats version, got %d", s.StatsVersion())
	}
	if err := s.AddView(&MaterializedView{Name: "v", SQL: "SELECT custid FROM customer",
		Columns: custDef().Columns[:1]}); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 3 {
		t.Fatalf("AddView must tick the epoch, got %d", s.Epoch())
	}
}

func TestScanFromResume(t *testing.T) {
	s := NewStore()
	if _, err := s.CreateFragment(custDef(), "p0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("customer", "p0",
		row(1, "A"), row(2, "B"), row(3, "A"), row(4, "B"), row(5, "A")); err != nil {
		t.Fatal(err)
	}
	// Pull the fragment in batches of two via resumable positions.
	var got []int64
	pos := 0
	for {
		n := 0
		next, err := s.ScanFrom("customer", "p0", nil, pos, func(r value.Row) bool {
			got = append(got, r[0].I)
			n++
			return n < 2
		})
		if err != nil {
			t.Fatal(err)
		}
		if next == pos {
			break
		}
		pos = next
	}
	if len(got) != 5 || got[0] != 1 || got[4] != 5 {
		t.Fatalf("batched resume: %v", got)
	}
	// Positions count predicate-rejected rows too: resuming after the first
	// match of a filtered scan must not skip or repeat matches.
	pred, err := expr.Bind(sqlparse.MustParseExpr("office = 'A'"), []expr.ColumnID{{Name: "custid"}, {Name: "office"}})
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	pos = 0
	for {
		took := false
		next, err := s.ScanFrom("customer", "p0", pred, pos, func(r value.Row) bool {
			ids = append(ids, r[0].I)
			took = true
			return false // one match per call
		})
		if err != nil {
			t.Fatal(err)
		}
		if !took {
			break
		}
		pos = next
	}
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 3 || ids[2] != 5 {
		t.Fatalf("filtered resume: %v", ids)
	}
	if _, err := s.ScanFrom("ghost", "p0", nil, 0, func(value.Row) bool { return true }); err == nil {
		t.Fatal("missing fragment must error")
	}
}
