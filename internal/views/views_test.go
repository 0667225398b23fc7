package views

import (
	"sort"
	"strings"
	"testing"

	"qtrade/internal/catalog"
	"qtrade/internal/exec"
	"qtrade/internal/expr"
	"qtrade/internal/plan"
	"qtrade/internal/sqlparse"
	"qtrade/internal/storage"
	"qtrade/internal/value"
)

// aggView is a per-(office, custid) totals view, finer than queries grouping
// by office alone — the paper's §3.5 example shape.
func aggView() *storage.MaterializedView {
	return &storage.MaterializedView{
		Name: "officecusttotals",
		SQL: `SELECT c.office, c.custid, SUM(i.charge) AS total, COUNT(*) AS cnt
		      FROM customer c, invoiceline i WHERE c.custid = i.custid
		      GROUP BY c.office, c.custid`,
		Columns: []catalog.ColumnDef{
			{Name: "office", Kind: value.Str},
			{Name: "custid", Kind: value.Int},
			{Name: "total", Kind: value.Float},
			{Name: "cnt", Kind: value.Int},
		},
		Rows: []value.Row{
			{value.NewStr("Corfu"), value.NewInt(1), value.NewFloat(15), value.NewInt(2)},
			{value.NewStr("Corfu"), value.NewInt(2), value.NewFloat(7), value.NewInt(1)},
			{value.NewStr("Myconos"), value.NewInt(3), value.NewFloat(20), value.NewInt(1)},
		},
	}
}

func spjView() *storage.MaterializedView {
	return &storage.MaterializedView{
		Name: "bigcharges",
		SQL: `SELECT i.invid, i.custid, i.charge FROM invoiceline i
		      WHERE i.charge > 5`,
		Columns: []catalog.ColumnDef{
			{Name: "invid", Kind: value.Int},
			{Name: "custid", Kind: value.Int},
			{Name: "charge", Kind: value.Float},
		},
		Rows: []value.Row{
			{value.NewInt(100), value.NewInt(1), value.NewFloat(10)},
			{value.NewInt(101), value.NewInt(2), value.NewFloat(7)},
			{value.NewInt(102), value.NewInt(3), value.NewFloat(20)},
		},
	}
}

func runComp(t *testing.T, st *storage.Store, m *Match) []string {
	t.Helper()
	v := st.View(m.View.Name)
	cols := make([]expr.ColumnID, len(v.Columns))
	for i, c := range v.Columns {
		cols[i] = expr.ColumnID{Table: m.View.Name, Name: c.Name}
	}
	var node plan.Node = &plan.ViewScan{Name: v.Name, Cols: cols}
	if m.Comp.Where != nil {
		node = &plan.Filter{Input: node, Pred: m.Comp.Where}
	}
	p, err := plan.FinalizeSelect(m.Comp, node)
	if err != nil {
		t.Fatalf("finalize compensation: %v\n%s", err, m.Comp.SQL())
	}
	ex := &exec.Executor{Store: st}
	res, err := ex.Run(p)
	if err != nil {
		t.Fatalf("run compensation: %v", err)
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

func TestRollupCoarserGrouping(t *testing.T) {
	st := storage.NewStore()
	if err := st.AddView(aggView()); err != nil {
		t.Fatal(err)
	}
	q := sqlparse.MustParseSelect(`
		SELECT c.office, SUM(i.charge) AS total FROM customer c, invoiceline i
		WHERE c.custid = i.custid GROUP BY c.office`)
	m, ok := MatchView(q, st.View("officecusttotals"))
	if !ok {
		t.Fatal("rollup must match")
	}
	if !m.ReAggregated {
		t.Fatal("coarser grouping must re-aggregate")
	}
	sql := m.Comp.SQL()
	if !strings.Contains(sql, "SUM(total)") {
		t.Fatalf("SUM must roll up over stored total: %s", sql)
	}
	rows := runComp(t, st, m)
	// Corfu: 15+7=22, Myconos: 20.
	if len(rows) != 2 {
		t.Fatalf("rollup rows: %v", rows)
	}
	joined := strings.Join(rows, "|")
	if !strings.Contains(joined, "Corfu") || !strings.Contains(joined, "22") || !strings.Contains(joined, "20") {
		t.Fatalf("rollup values: %v", rows)
	}
}

func TestRollupCountStarBecomesSum(t *testing.T) {
	st := storage.NewStore()
	if err := st.AddView(aggView()); err != nil {
		t.Fatal(err)
	}
	q := sqlparse.MustParseSelect(`
		SELECT c.office, COUNT(*) AS n FROM customer c, invoiceline i
		WHERE c.custid = i.custid GROUP BY c.office`)
	m, ok := MatchView(q, st.View("officecusttotals"))
	if !ok {
		t.Fatal("count rollup must match")
	}
	if !strings.Contains(m.Comp.SQL(), "SUM(cnt)") {
		t.Fatalf("COUNT(*) must become SUM(cnt): %s", m.Comp.SQL())
	}
	rows := runComp(t, st, m)
	if !strings.Contains(strings.Join(rows, "|"), "3") {
		t.Fatalf("corfu count must be 3: %v", rows)
	}
}

func TestExactGroupingNoReaggregation(t *testing.T) {
	st := storage.NewStore()
	if err := st.AddView(aggView()); err != nil {
		t.Fatal(err)
	}
	q := sqlparse.MustParseSelect(`
		SELECT c.office, c.custid, SUM(i.charge) AS total FROM customer c, invoiceline i
		WHERE c.custid = i.custid GROUP BY c.office, c.custid`)
	m, ok := MatchView(q, st.View("officecusttotals"))
	if !ok {
		t.Fatal("exact grouping must match")
	}
	if m.ReAggregated {
		t.Fatal("same grouping requires no re-aggregation")
	}
	rows := runComp(t, st, m)
	if len(rows) != 3 {
		t.Fatalf("exact rows: %v", rows)
	}
}

func TestCompensationPredicateOnGroupColumn(t *testing.T) {
	st := storage.NewStore()
	if err := st.AddView(aggView()); err != nil {
		t.Fatal(err)
	}
	q := sqlparse.MustParseSelect(`
		SELECT c.office, SUM(i.charge) AS total FROM customer c, invoiceline i
		WHERE c.custid = i.custid AND c.office IN ('Corfu', 'Myconos')
		GROUP BY c.office`)
	m, ok := MatchView(q, st.View("officecusttotals"))
	if !ok {
		t.Fatal("restricted rollup must match")
	}
	if !strings.Contains(m.Comp.SQL(), "IN ('Corfu', 'Myconos')") {
		t.Fatalf("compensation predicate missing: %s", m.Comp.SQL())
	}
}

func TestViewAggQueryDetailRejected(t *testing.T) {
	st := storage.NewStore()
	if err := st.AddView(aggView()); err != nil {
		t.Fatal(err)
	}
	q := sqlparse.MustParseSelect(`
		SELECT i.invid FROM customer c, invoiceline i WHERE c.custid = i.custid`)
	if _, ok := MatchView(q, st.View("officecusttotals")); ok {
		t.Fatal("detail query cannot be answered from aggregate view")
	}
}

func TestPredicateContainment(t *testing.T) {
	v := spjView()
	// Query asks for a subset of the view rows: charge > 8 implies charge > 5.
	q := sqlparse.MustParseSelect("SELECT i.invid FROM invoiceline i WHERE i.charge > 8")
	m, ok := MatchView(q, v)
	if !ok {
		t.Fatal("contained predicate must match")
	}
	if !strings.Contains(m.Comp.SQL(), "charge > 8") {
		t.Fatalf("compensation must re-filter: %s", m.Comp.SQL())
	}
	// Query asks for rows the view lost: charge > 2 does not imply charge > 5.
	q2 := sqlparse.MustParseSelect("SELECT i.invid FROM invoiceline i WHERE i.charge > 2")
	if _, ok := MatchView(q2, v); ok {
		t.Fatal("wider predicate must not match")
	}
}

func TestSPJCompensationRuns(t *testing.T) {
	st := storage.NewStore()
	if err := st.AddView(spjView()); err != nil {
		t.Fatal(err)
	}
	q := sqlparse.MustParseSelect("SELECT i.invid, i.charge FROM invoiceline i WHERE i.charge > 8")
	m, ok := MatchView(q, st.View("bigcharges"))
	if !ok {
		t.Fatal("must match")
	}
	rows := runComp(t, st, m)
	if len(rows) != 2 {
		t.Fatalf("compensated rows: %v", rows)
	}
}

// An IN list of NULLs admits no value: the view's predicate does not imply
// it, so the compensation keeps it and returns nothing, as the query does.
func TestAllNullInListIsCompensated(t *testing.T) {
	st := storage.NewStore()
	if err := st.AddView(spjView()); err != nil {
		t.Fatal(err)
	}
	q := sqlparse.MustParseSelect("SELECT i.invid, i.charge FROM invoiceline i WHERE i.charge > 5 AND i.charge IN (NULL, NULL)")
	m, ok := MatchView(q, st.View("bigcharges"))
	if !ok {
		t.Fatal("must match")
	}
	if rows := runComp(t, st, m); len(rows) != 0 {
		t.Fatalf("%s returns %v, want no rows", m.Comp.SQL(), rows)
	}
}

func TestAggOverSPJView(t *testing.T) {
	st := storage.NewStore()
	if err := st.AddView(spjView()); err != nil {
		t.Fatal(err)
	}
	q := sqlparse.MustParseSelect(`
		SELECT i.custid, SUM(i.charge) AS s FROM invoiceline i
		WHERE i.charge > 5 GROUP BY i.custid`)
	m, ok := MatchView(q, st.View("bigcharges"))
	if !ok {
		t.Fatal("aggregate over SPJ view must match")
	}
	if !m.ReAggregated {
		t.Fatal("must aggregate view rows")
	}
	rows := runComp(t, st, m)
	if len(rows) != 3 {
		t.Fatalf("agg rows: %v", rows)
	}
}

func TestFromSetMismatchRejected(t *testing.T) {
	v := spjView()
	q := sqlparse.MustParseSelect(
		"SELECT c.custid FROM customer c, invoiceline i WHERE c.custid = i.custid")
	if _, ok := MatchView(q, v); ok {
		t.Fatal("different FROM sets must not match")
	}
	q2 := sqlparse.MustParseSelect("SELECT c.custid FROM customer c")
	if _, ok := MatchView(q2, v); ok {
		t.Fatal("different table must not match")
	}
}

func TestMissingOutputColumnRejected(t *testing.T) {
	v := &storage.MaterializedView{
		Name: "narrow",
		SQL:  "SELECT i.invid FROM invoiceline i",
		Columns: []catalog.ColumnDef{
			{Name: "invid", Kind: value.Int},
		},
	}
	q := sqlparse.MustParseSelect("SELECT i.charge FROM invoiceline i")
	if _, ok := MatchView(q, v); ok {
		t.Fatal("column not in view output must reject")
	}
}

func TestDistinctAggregateDoesNotRollUp(t *testing.T) {
	st := storage.NewStore()
	if err := st.AddView(aggView()); err != nil {
		t.Fatal(err)
	}
	q := sqlparse.MustParseSelect(`
		SELECT c.office, SUM(DISTINCT i.charge) AS total FROM customer c, invoiceline i
		WHERE c.custid = i.custid GROUP BY c.office`)
	if _, ok := MatchView(q, st.View("officecusttotals")); ok {
		t.Fatal("DISTINCT aggregates must not roll up")
	}
}

func TestAvgDoesNotRollUpToCoarserGroups(t *testing.T) {
	v := &storage.MaterializedView{
		Name: "avgview",
		SQL: `SELECT c.office, c.custid, AVG(i.charge) AS a FROM customer c, invoiceline i
		      WHERE c.custid = i.custid GROUP BY c.office, c.custid`,
		Columns: []catalog.ColumnDef{
			{Name: "office", Kind: value.Str},
			{Name: "custid", Kind: value.Int},
			{Name: "a", Kind: value.Float},
		},
	}
	q := sqlparse.MustParseSelect(`
		SELECT c.office, AVG(i.charge) AS a FROM customer c, invoiceline i
		WHERE c.custid = i.custid GROUP BY c.office`)
	if _, ok := MatchView(q, v); ok {
		t.Fatal("AVG must not roll up")
	}
	// But exact grouping is fine.
	q2 := sqlparse.MustParseSelect(`
		SELECT c.office, c.custid, AVG(i.charge) AS a FROM customer c, invoiceline i
		WHERE c.custid = i.custid GROUP BY c.office, c.custid`)
	if _, ok := MatchView(q2, v); !ok {
		t.Fatal("exact AVG grouping must match")
	}
}

func TestBestMatches(t *testing.T) {
	st := storage.NewStore()
	if err := st.AddView(aggView()); err != nil {
		t.Fatal(err)
	}
	if err := st.AddView(spjView()); err != nil {
		t.Fatal(err)
	}
	q := sqlparse.MustParseSelect(`
		SELECT c.office, SUM(i.charge) AS total FROM customer c, invoiceline i
		WHERE c.custid = i.custid GROUP BY c.office`)
	ms := BestMatches(q, st)
	if len(ms) != 1 || ms[0].View.Name != "officecusttotals" {
		t.Fatalf("matches: %d", len(ms))
	}
}

func TestUnparseableViewIgnored(t *testing.T) {
	v := &storage.MaterializedView{Name: "broken", SQL: "NOT SQL AT ALL"}
	q := sqlparse.MustParseSelect("SELECT i.invid FROM invoiceline i")
	if _, ok := MatchView(q, v); ok {
		t.Fatal("broken view definition must not match")
	}
}

// TestCompensationCarriesTheTail: every match kind's compensation keeps the
// query's DISTINCT, ORDER BY and LIMIT — an ORDER BY key mapped like an item,
// an output alias kept as it is — and an exact rollup's HAVING filters the
// stored aggregates in WHERE.
func TestCompensationCarriesTheTail(t *testing.T) {
	st := storage.NewStore()
	for _, v := range []*storage.MaterializedView{aggView(), spjView()} {
		if err := st.AddView(v); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		kind, q, view, comp string
		rows                int
	}{
		{"SPJ", "SELECT DISTINCT i.custid FROM invoiceline i WHERE i.charge > 8 ORDER BY i.custid DESC LIMIT 1", "bigcharges",
			"SELECT DISTINCT custid AS custid FROM bigcharges WHERE charge > 8 ORDER BY custid DESC LIMIT 1", 1},
		{"aggregation over SPJ", "SELECT DISTINCT COUNT(*) AS n FROM invoiceline i WHERE i.charge > 5 GROUP BY i.custid ORDER BY n LIMIT 2", "bigcharges",
			"SELECT DISTINCT COUNT(*) AS n FROM bigcharges GROUP BY custid ORDER BY n LIMIT 2", 1},
		{"rollup", `SELECT DISTINCT c.office, SUM(i.charge) AS total FROM customer c, invoiceline i WHERE c.custid = i.custid
			GROUP BY c.office ORDER BY SUM(i.charge) DESC, c.office LIMIT 1`, "officecusttotals",
			"SELECT DISTINCT office, SUM(total) AS total FROM officecusttotals GROUP BY office ORDER BY SUM(total) DESC, office LIMIT 1", 1},
		{"exact rollup", `SELECT DISTINCT c.office FROM customer c, invoiceline i WHERE c.custid = i.custid
			GROUP BY c.office, c.custid HAVING SUM(i.charge) > 10 ORDER BY c.office LIMIT 5`, "officecusttotals",
			"SELECT DISTINCT office FROM officecusttotals WHERE total > 10 ORDER BY office LIMIT 5", 2},
	}
	for _, tc := range cases {
		m, ok := MatchView(sqlparse.MustParseSelect(tc.q), st.View(tc.view))
		if !ok {
			t.Fatalf("%s: no match", tc.kind)
		}
		if got := m.Comp.SQL(); got != tc.comp {
			t.Errorf("%s: compensation\n got %s\nwant %s", tc.kind, got, tc.comp)
		}
		if rows := runComp(t, st, m); len(rows) != tc.rows {
			t.Errorf("%s: %d rows, want %d: %v", tc.kind, len(rows), tc.rows, rows)
		}
	}
	// An ORDER BY key the view cannot express means no match.
	q := sqlparse.MustParseSelect("SELECT i.invid FROM invoiceline i WHERE i.charge > 8 ORDER BY i.linenum")
	if m, ok := MatchView(q, st.View("bigcharges")); ok {
		t.Fatalf("unmappable ORDER BY key matched: %s", m.Comp.SQL())
	}
}
