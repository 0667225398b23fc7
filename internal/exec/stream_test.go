package exec

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"qtrade/internal/expr"
	"qtrade/internal/plan"
	"qtrade/internal/sqlparse"
	"qtrade/internal/storage"
	"qtrade/internal/value"
)

// fakeStream is a scripted RowStream for exercising the remote cursor.
type fakeStream struct {
	cols    []expr.ColumnID
	batches [][]value.Row
	err     error // returned once the batches run out, in place of the end
	i       int
	nexts   int
	closed  bool
}

func (f *fakeStream) Cols() []expr.ColumnID { return f.cols }

func (f *fakeStream) Next() ([]value.Row, error) {
	f.nexts++
	if f.i >= len(f.batches) {
		return nil, f.err
	}
	b := f.batches[f.i]
	f.i++
	return b, nil
}

func (f *fakeStream) Close() error {
	f.closed = true
	return nil
}

// streamingPlans is the operator-coverage corpus for the differential test:
// every cursor type, composed the way real plans compose them.
func streamingPlans() map[string]func() plan.Node {
	scan := func() plan.Node { return &plan.Scan{Def: custDef, Alias: "c", PartID: "p0"} }
	inv := func() plan.Node { return &plan.Scan{Def: invDef, Alias: "i", PartID: "p0"} }
	join := func() plan.Node {
		return &plan.Join{L: scan(), R: inv(), On: sqlparse.MustParseExpr("c.custid = i.custid")}
	}
	project := func(in plan.Node, exprs ...string) plan.Node { // names its columns x0, x1, …
		p := &plan.Project{Input: in}
		for i, e := range exprs {
			p.Exprs = append(p.Exprs, sqlparse.MustParseExpr(e))
			p.Names = append(p.Names, expr.ColumnID{Name: fmt.Sprintf("x%d", i)})
		}
		return p
	}
	filter := func(in plan.Node, pred string) plan.Node {
		return &plan.Filter{Input: in, Pred: sqlparse.MustParseExpr(pred)}
	}
	return map[string]func() plan.Node{
		"scan":   scan,
		"filter": func() plan.Node { return &plan.Filter{Input: scan(), Pred: sqlparse.MustParseExpr("c.custid > 2")} },
		"project": func() plan.Node {
			return &plan.Project{Input: scan(),
				Exprs: []expr.Expr{sqlparse.MustParseExpr("c.custid * 10"), sqlparse.MustParseExpr("c.office")},
				Names: []expr.ColumnID{{Name: "x10"}, {Name: "office"}}}
		},
		"hash-join": join,
		"cross-join": func() plan.Node {
			return &plan.Join{L: scan(), R: &plan.Scan{Def: custDef, Alias: "d", PartID: "p0"}}
		},
		"nonequi-join": func() plan.Node {
			return &plan.Join{L: scan(), R: &plan.Scan{Def: custDef, Alias: "d", PartID: "p0"},
				On: sqlparse.MustParseExpr("c.custid < d.custid")}
		},
		"sort": func() plan.Node {
			return &plan.Sort{Input: join(), Keys: []plan.SortKey{
				{Expr: sqlparse.MustParseExpr("i.charge"), Desc: true},
				{Expr: sqlparse.MustParseExpr("c.custname")}}}
		},
		"agg": func() plan.Node {
			return &plan.Aggregate{Input: join(),
				GroupBy:    []expr.Expr{sqlparse.MustParseExpr("c.office")},
				GroupNames: []expr.ColumnID{{Table: "c", Name: "office"}},
				Aggs: []plan.AggItem{
					{Agg: &expr.Agg{Fn: "SUM", Arg: sqlparse.MustParseExpr("i.charge")}, Name: expr.ColumnID{Name: "total"}},
					{Agg: &expr.Agg{Fn: "COUNT", Star: true}, Name: expr.ColumnID{Name: "n"}}}}
		},
		"limit": func() plan.Node { return &plan.Limit{Input: join(), N: 3} },
		"distinct": func() plan.Node {
			return &plan.Distinct{Input: &plan.Project{Input: scan(),
				Exprs: []expr.Expr{sqlparse.MustParseExpr("c.office")},
				Names: []expr.ColumnID{{Name: "office"}}}}
		},
		"union": func() plan.Node { return &plan.Union{Inputs: []plan.Node{scan(), scan(), scan()}} },
		"empty-agg": func() plan.Node { // a global aggregate over no rows is one row
			return &plan.Aggregate{Input: &plan.Empty{Cols: custDef.ColumnIDs("c")},
				Aggs: []plan.AggItem{{Agg: &expr.Agg{Fn: "COUNT", Star: true}, Name: expr.ColumnID{Name: "n"}}}}
		},
		"empty-union": func() plan.Node {
			return &plan.Union{Inputs: []plan.Node{&plan.Empty{Cols: custDef.ColumnIDs("c")}, scan()}}
		},
		"sort-limit": func() plan.Node {
			return &plan.Limit{Input: &plan.Sort{Input: scan(),
				Keys: []plan.SortKey{{Expr: sqlparse.MustParseExpr("c.custname"), Desc: true}}}, N: 2}
		},
		// The shapes the executor assembles around a join: a filter folded
		// into it, a projection it hands its rows to, and the parents that
		// keep them.
		"project-filter-join": func() plan.Node {
			return project(filter(join(), "i.charge > 6"), "c.custname", "i.charge * 2")
		},
		"project-join-residual": func() plan.Node { // linenum 1's chain is five rows long
			return project(&plan.Join{L: inv(), R: &plan.Scan{Def: invDef, Alias: "j", PartID: "p0"},
				On: sqlparse.MustParseExpr("i.linenum = j.linenum AND i.invid < j.invid")},
				"i.invid", "j.invid", "i.charge + j.charge")
		},
		"project-filter-nullkey-join": func() plan.Node { // x / 0 is NULL: customer 3's key, on both sides
			return project(filter(&plan.Join{L: scan(), R: inv(),
				On: sqlparse.MustParseExpr("c.custid / (c.custid - 3) = i.custid / (i.custid - 3)")}, "i.charge < 50"),
				"c.custname", "i.invid")
		},
		"project-filter-cross-join": func() plan.Node {
			return project(filter(&plan.Join{L: scan(), R: &plan.Scan{Def: custDef, Alias: "d", PartID: "p0"}},
				"c.custid < d.custid AND d.office <> 'Athens'"), "c.custname", "d.custname")
		},
		"sort-project-join": func() plan.Node {
			return &plan.Sort{Input: project(join(), "c.custname", "i.charge"),
				Keys: []plan.SortKey{{Expr: sqlparse.MustParseExpr("x1"), Desc: true}}}
		},
		"distinct-project-join": func() plan.Node { return &plan.Distinct{Input: project(join(), "c.office")} },
		// The buyer's shapes of the bus workloads: chain_scan's projection
		// over its compensating filter, which repeats the ON, over the join
		// of two purchases; telco's aggregate over an IN on the build side;
		// and chain_parts' join of a join under a filter repeating both ONs.
		"project-filter-join-chain": func() plan.Node {
			return project(filter(join(), "c.custid = i.custid AND c.custid >= 2"), "c.custid", "i.charge")
		},
		"agg-filter-build-in": func() plan.Node {
			return &plan.Aggregate{Input: filter(&plan.Join{L: inv(), R: scan(), On: sqlparse.MustParseExpr("i.custid = c.custid")},
				"c.office IN ('Corfu', 'Myconos')"),
				GroupBy:    []expr.Expr{sqlparse.MustParseExpr("c.office")},
				GroupNames: []expr.ColumnID{{Table: "c", Name: "office"}},
				Aggs: []plan.AggItem{
					{Agg: &expr.Agg{Fn: "SUM", Arg: sqlparse.MustParseExpr("i.charge")}, Name: expr.ColumnID{Name: "total"}},
					{Agg: &expr.Agg{Fn: "COUNT", Star: true}, Name: expr.ColumnID{Name: "n"}}}}
		},
		"project-filter-join-join": func() plan.Node {
			return project(filter(&plan.Join{L: join(), R: &plan.Scan{Def: custDef, Alias: "d", PartID: "p0"},
				On: sqlparse.MustParseExpr("i.custid = d.custid")}, "c.custid = i.custid AND i.custid = d.custid AND i.charge > 3"),
				"c.custname", "d.office", "i.charge")
		},
		"agg-filter-join": func() plan.Node {
			return &plan.Aggregate{Input: filter(join(), "i.charge > 6"),
				GroupBy:    []expr.Expr{sqlparse.MustParseExpr("c.office")},
				GroupNames: []expr.ColumnID{{Table: "c", Name: "office"}},
				Aggs: []plan.AggItem{
					{Agg: &expr.Agg{Fn: "SUM", Arg: sqlparse.MustParseExpr("i.charge")}, Name: expr.ColumnID{Name: "total"}},
					{Agg: &expr.Agg{Fn: "COUNT", Star: true}, Name: expr.ColumnID{Name: "n"}}}}
		},
	}
}

// frozenAnswers is where the corpus's answers are kept: computed once by the
// recursive materializing evaluator this package used to carry, before it was
// deleted, and never regenerated since. The join shapes were added later,
// their answers computed by the cursors before the executor learned to fold a
// filter into a join and to reuse a join's rows under a projection; the bus
// workloads' shapes last, by the cursors before a join produced its parent's
// rows.
const frozenAnswers = "testdata/streaming_plans.golden"

// formatAnswer prints one plan's answer as the frozen file holds it: a
// "== name" line, then one line per row with each value after its kind, so
// 1 and 1.0, and NULL and the empty string, print differently.
func formatAnswer(sb *strings.Builder, name string, rows []value.Row) {
	fmt.Fprintf(sb, "== %s\n", name)
	for _, r := range rows {
		for i, v := range r {
			if i > 0 {
				sb.WriteString(" | ")
			}
			if v.IsNull() {
				sb.WriteString("NULL")
				continue
			}
			sb.WriteString(v.K.String() + " " + v.String())
		}
		sb.WriteByte('\n')
	}
}

// The streamed pipeline must print byte-identical rows, in identical order,
// to the frozen answers — at every batch size, including degenerate batch 1.
// Every corpus plan has a section and every section a plan, so the two
// cannot drift apart.
func TestStreamingMatchesFrozenAnswers(t *testing.T) {
	data, err := os.ReadFile(frozenAnswers)
	if err != nil {
		t.Fatal(err)
	}
	frozen := map[string]string{}
	var name string
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if n, ok := strings.CutPrefix(line, "== "); ok {
			name = strings.TrimSuffix(n, "\n")
		}
		frozen[name] += line
	}
	s := telcoStore(t)
	plans := streamingPlans()
	for name := range frozen {
		if plans[name] == nil {
			t.Errorf("%s: frozen section %q names no corpus plan", frozenAnswers, name)
		}
	}
	for name, mk := range plans {
		want, ok := frozen[name]
		if !ok {
			t.Errorf("%s: no frozen answer for plan %q", frozenAnswers, name)
			continue
		}
		for _, batch := range []int{1, 2, 3, DefaultBatchSize} {
			got, err := (&Executor{Store: s, BatchSize: batch}).Run(mk())
			if err != nil {
				t.Fatalf("%s batch %d: %v", name, batch, err)
			}
			var sb strings.Builder
			formatAnswer(&sb, name, got.Rows)
			if sb.String() != want {
				t.Errorf("%s batch %d:\n got %s\nwant %s", name, batch, sb.String(), want)
			}
		}
	}
}

// Incomparable sort keys (same unknown kind on both sides, e.g. rows
// corrupted in transit) must fail the sort — the regression for the dead
// sortErr variable and the dropped value.Compare error.
func TestSortErrorPropagates(t *testing.T) {
	bad := value.Value{K: value.Kind(99)}
	fetch := func(string, string, string) (RowStream, error) {
		return NewRows([]expr.ColumnID{{Name: "x"}}, []value.Row{{bad}, {bad}}, 0), nil
	}
	sorted := &plan.Sort{
		Input: &plan.Remote{NodeID: "corfu", SQL: "SELECT x FROM t", Cols: []expr.ColumnID{{Name: "x"}}},
		Keys:  []plan.SortKey{{Expr: sqlparse.MustParseExpr("x")}},
	}
	ex := &Executor{FetchStream: fetch}
	if _, err := ex.Run(sorted); err == nil || !strings.Contains(err.Error(), "not comparable") {
		t.Fatalf("streaming sort must surface comparison error, got %v", err)
	}
}

// An empty-but-mis-shaped remote answer (zero rows, wrong column spec) must
// fail loudly instead of slipping past the width check, for a whole reply
// wrapped in Rows and for a seller stream alike.
func TestRemoteEmptyAnswerColsValidated(t *testing.T) {
	r := &plan.Remote{NodeID: "corfu", SQL: "SELECT x FROM t", Cols: []expr.ColumnID{{Name: "x"}}}
	ex := &Executor{FetchStream: func(string, string, string) (RowStream, error) {
		return NewRows([]expr.ColumnID{{Name: "a"}, {Name: "b"}}, nil, 0), nil // no rows, two cols
	}}
	if _, err := ex.Run(r); err == nil || !strings.Contains(err.Error(), "columns") {
		t.Fatalf("streaming: empty mis-shaped answer must error, got %v", err)
	}
	st := &fakeStream{cols: []expr.ColumnID{{Name: "a"}, {Name: "b"}}}
	exs := &Executor{FetchStream: func(string, string, string) (RowStream, error) { return st, nil }}
	if _, err := exs.Run(r); err == nil || !strings.Contains(err.Error(), "columns") {
		t.Fatalf("stream fetch: empty mis-shaped answer must error, got %v", err)
	}
	if !st.closed {
		t.Fatal("rejected stream must be closed")
	}
	// A mis-shaped batch mid-stream is also caught.
	st2 := &fakeStream{
		cols:    []expr.ColumnID{{Name: "x"}},
		batches: [][]value.Row{{{value.NewInt(1), value.NewInt(2)}}},
	}
	exs2 := &Executor{FetchStream: func(string, string, string) (RowStream, error) { return st2, nil }}
	if _, err := exs2.Run(r); err == nil || !strings.Contains(err.Error(), "width") {
		t.Fatalf("stream fetch: mis-shaped batch must error, got %v", err)
	}
}

// A union whose first input is empty used to skip width validation
// entirely; every input is now checked against the union's declared schema.
func TestUnionSchemaDriftCaught(t *testing.T) {
	s := telcoStore(t)
	empty := storage.NewStore()
	mustCreate(t, empty, custDef, "p0")
	un := &plan.Union{Inputs: []plan.Node{
		&plan.Scan{Def: custDef, Alias: "c", PartID: "p0"}, // 3 cols, zero rows in `empty`
		&plan.Scan{Def: invDef, Alias: "i", PartID: "p0"},  // 4 cols
	}}
	// Against the empty store the first input yields no rows; the second
	// input's drift from the declared 3-column schema must still fail.
	exEmpty := &Executor{Store: empty}
	// The empty store has no invoiceline fragment, so give it one row.
	mustCreate(t, empty, invDef, "p0")
	if err := empty.Insert("invoiceline", "p0",
		value.Row{value.NewInt(1), value.NewInt(1), value.NewInt(1), value.NewFloat(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := exEmpty.Run(un); err == nil || !strings.Contains(err.Error(), "schema declares") {
		t.Fatalf("streaming: union drift past empty input must error, got %v", err)
	}
	// Sanity: a well-shaped union still works.
	ok := &plan.Union{Inputs: []plan.Node{
		&plan.Scan{Def: custDef, Alias: "c", PartID: "p0"},
		&plan.Scan{Def: custDef, Alias: "c", PartID: "p0"},
	}}
	ex := &Executor{Store: s}
	if res, err := ex.Run(ok); err != nil || len(res.Rows) != 10 {
		t.Fatalf("well-shaped union: %v %v", res, err)
	}
}

// LIMIT 0 must not even open its input — no fetch, no scan — and a LIMIT
// larger than the input drains normally.
func TestLimitStreamingEdges(t *testing.T) {
	s := telcoStore(t)
	fetched := false
	ex := &Executor{
		Store: s,
		FetchStream: func(string, string, string) (RowStream, error) {
			fetched = true
			return &fakeStream{cols: []expr.ColumnID{{Name: "x"}}}, nil
		},
	}
	zero := &plan.Limit{
		Input: &plan.Remote{NodeID: "corfu", SQL: "SELECT x FROM t", Cols: []expr.ColumnID{{Name: "x"}}},
		N:     0,
	}
	res, err := ex.Run(zero)
	if err != nil || len(res.Rows) != 0 {
		t.Fatalf("limit 0: %v %v", res, err)
	}
	if fetched {
		t.Fatal("LIMIT 0 must not fetch its input")
	}
	over := &plan.Limit{Input: &plan.Scan{Def: custDef, Alias: "c", PartID: "p0"}, N: 99}
	if res := runPlan(t, s, over); len(res.Rows) != 5 {
		t.Fatalf("limit over input: %d", len(res.Rows))
	}
}

// Hitting the limit must stop pulling the remote stream and close it: the
// whole point of streaming is that the seller does not ship (or compute)
// the rest of the answer.
func TestLimitReleasesUpstreamStream(t *testing.T) {
	st := &fakeStream{
		cols: []expr.ColumnID{{Name: "x"}},
		batches: [][]value.Row{
			{{value.NewInt(1)}, {value.NewInt(2)}},
			{{value.NewInt(3)}, {value.NewInt(4)}},
			{{value.NewInt(5)}, {value.NewInt(6)}},
		},
	}
	ex := &Executor{
		BatchSize:   2,
		FetchStream: func(string, string, string) (RowStream, error) { return st, nil },
	}
	lim := &plan.Limit{
		Input: &plan.Remote{NodeID: "corfu", SQL: "SELECT x FROM t", Cols: []expr.ColumnID{{Name: "x"}}},
		N:     2,
	}
	res, err := ex.Run(lim)
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("limit over stream: %v %v", res, err)
	}
	if !st.closed {
		t.Fatal("satisfied LIMIT must close the remote stream")
	}
	if st.nexts > 1 {
		t.Fatalf("satisfied LIMIT pulled %d batches, want 1", st.nexts)
	}
}

// DESC ordering with NULL keys through the streaming sort puts NULLs last
// (they come first ascending), at a batch size small enough to split the
// input.
func TestStreamingSortDescNulls(t *testing.T) {
	s := storage.NewStore()
	mustCreate(t, s, custDef, "p0")
	if err := s.Insert("customer", "p0",
		value.Row{value.NewInt(2), value.NewStr("b"), value.NewStr("X")},
		value.Row{value.NewNull(), value.NewStr("n1"), value.NewStr("X")},
		value.Row{value.NewInt(1), value.NewStr("a"), value.NewStr("X")},
		value.Row{value.NewNull(), value.NewStr("n2"), value.NewStr("X")},
		value.Row{value.NewInt(3), value.NewStr("c"), value.NewStr("X")},
	); err != nil {
		t.Fatal(err)
	}
	ex := &Executor{Store: s, BatchSize: 2}
	got, err := ex.Run(&plan.Sort{
		Input: &plan.Scan{Def: custDef, Alias: "c", PartID: "p0"},
		Keys:  []plan.SortKey{{Expr: sqlparse.MustParseExpr("c.custid"), Desc: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows[0][0].I != 3 || got.Rows[1][0].I != 2 || got.Rows[2][0].I != 1 ||
		!got.Rows[3][0].IsNull() || !got.Rows[4][0].IsNull() {
		t.Fatalf("desc with nulls: %v", got.Rows)
	}
	// NULL ties keep input order (stable sort): n1 before n2.
	if got.Rows[3][1].S != "n1" || got.Rows[4][1].S != "n2" {
		t.Fatalf("stability among null keys: %v", got.Rows)
	}
}

// A batch-boundary scan (fragment size an exact multiple of the batch) and
// resumable ScanFrom positions behave.
func TestScanBatchBoundaries(t *testing.T) {
	s := telcoStore(t) // customer has 5 rows
	for _, batch := range []int{1, 5, 6} {
		ex := &Executor{Store: s, BatchSize: batch}
		res, err := ex.Run(&plan.Scan{Def: custDef, Alias: "c", PartID: "p0"})
		if err != nil || len(res.Rows) != 5 {
			t.Fatalf("batch %d: %v %v", batch, res, err)
		}
	}
}

// Stats recording through the cursor pipeline: per-operator rows-out, and
// rows-in as the sum of children's rows-out.
func TestStreamingRunStats(t *testing.T) {
	s := telcoStore(t)
	scan := &plan.Scan{Def: custDef, Alias: "c", PartID: "p0"}
	fil := &plan.Filter{Input: scan, Pred: sqlparse.MustParseExpr("c.custid > 2")}
	stats := NewRunStats()
	ex := &Executor{Store: s, Stats: stats, BatchSize: 2}
	if _, err := ex.Run(fil); err != nil {
		t.Fatal(err)
	}
	if op, ok := stats.Get(scan); !ok || op.RowsOut != 5 {
		t.Fatalf("scan stats: %+v %v", op, ok)
	}
	if op, ok := stats.Get(fil); !ok || op.RowsIn != 5 || op.RowsOut != 3 || op.Calls != 1 {
		t.Fatalf("filter stats: %+v %v", op, ok)
	}
}

// A filter folded into the join under it, and a projection over either that
// the join writes the rows of, leave every plan node's actuals as they were
// when each node ran as a cursor of its own: the join reports the rows it
// joined, the filter the rows it kept, the projection the rows it wrote.
// EXPLAIN ANALYZE and the flight dossier print these. The expected lines are
// the actuals before the fold; the bus workloads' shapes (chain_scan's,
// telco's with the filter on the build side, chain_parts' join of a join),
// the actuals before the join took over the projection.
func TestFoldKeepsEveryNodesActuals(t *testing.T) {
	want := map[string]string{
		"project-filter-join": `
Project c.custname, i.charge * 2: calls 1, rows 4 in, 4 out
  Filter i.charge > 6: calls 1, rows 6 in, 4 out
    Join on c.custid = i.custid: calls 1, rows 11 in, 6 out
      Scan customer/p0 as c: calls 1, rows 0 in, 5 out
      Scan invoiceline/p0 as i: calls 1, rows 0 in, 6 out
`,
		"project-join-residual": `
Project i.invid, j.invid, i.charge + j.charge: calls 1, rows 10 in, 10 out
  Join on i.linenum = j.linenum AND i.invid < j.invid: calls 1, rows 12 in, 10 out
    Scan invoiceline/p0 as i: calls 1, rows 0 in, 6 out
    Scan invoiceline/p0 as j: calls 1, rows 0 in, 6 out
`,
		"project-filter-nullkey-join": `
Project c.custname, i.invid: calls 1, rows 4 in, 4 out
  Filter i.charge < 50: calls 1, rows 5 in, 4 out
    Join on c.custid / (c.custid - 3) = i.custid / (i.custid - 3): calls 1, rows 11 in, 5 out
      Scan customer/p0 as c: calls 1, rows 0 in, 5 out
      Scan invoiceline/p0 as i: calls 1, rows 0 in, 6 out
`,
		"project-filter-cross-join": `
Project c.custname, d.custname: calls 1, rows 7 in, 7 out
  Filter c.custid < d.custid AND d.office <> 'Athens': calls 1, rows 25 in, 7 out
    CrossJoin: calls 1, rows 10 in, 25 out
      Scan customer/p0 as c: calls 1, rows 0 in, 5 out
      Scan customer/p0 as d: calls 1, rows 0 in, 5 out
`,
		"sort-project-join": `
Sort x1 DESC: calls 1, rows 6 in, 6 out
  Project c.custname, i.charge: calls 1, rows 6 in, 6 out
    Join on c.custid = i.custid: calls 1, rows 11 in, 6 out
      Scan customer/p0 as c: calls 1, rows 0 in, 5 out
      Scan invoiceline/p0 as i: calls 1, rows 0 in, 6 out
`,
		"distinct-project-join": `
Distinct: calls 1, rows 6 in, 3 out
  Project c.office: calls 1, rows 6 in, 6 out
    Join on c.custid = i.custid: calls 1, rows 11 in, 6 out
      Scan customer/p0 as c: calls 1, rows 0 in, 5 out
      Scan invoiceline/p0 as i: calls 1, rows 0 in, 6 out
`,
		"project-filter-join-chain": `
Project c.custid, i.charge: calls 1, rows 4 in, 4 out
  Filter c.custid = i.custid AND c.custid >= 2: calls 1, rows 6 in, 4 out
    Join on c.custid = i.custid: calls 1, rows 11 in, 6 out
      Scan customer/p0 as c: calls 1, rows 0 in, 5 out
      Scan invoiceline/p0 as i: calls 1, rows 0 in, 6 out
`,
		"agg-filter-build-in": `
Aggregate [c.office] SUM(i.charge), COUNT(*): calls 1, rows 5 in, 2 out
  Filter c.office IN ('Corfu', 'Myconos'): calls 1, rows 6 in, 5 out
    Join on i.custid = c.custid: calls 1, rows 11 in, 6 out
      Scan invoiceline/p0 as i: calls 1, rows 0 in, 6 out
      Scan customer/p0 as c: calls 1, rows 0 in, 5 out
`,
		"project-filter-join-join": `
Project c.custname, d.office, i.charge: calls 1, rows 5 in, 5 out
  Filter c.custid = i.custid AND i.custid = d.custid AND i.charge > 3: calls 1, rows 6 in, 5 out
    Join on i.custid = d.custid: calls 1, rows 11 in, 6 out
      Join on c.custid = i.custid: calls 1, rows 11 in, 6 out
        Scan customer/p0 as c: calls 1, rows 0 in, 5 out
        Scan invoiceline/p0 as i: calls 1, rows 0 in, 6 out
      Scan customer/p0 as d: calls 1, rows 0 in, 5 out
`,
		"agg-filter-join": `
Aggregate [c.office] SUM(i.charge), COUNT(*): calls 1, rows 4 in, 3 out
  Filter i.charge > 6: calls 1, rows 6 in, 4 out
    Join on c.custid = i.custid: calls 1, rows 11 in, 6 out
      Scan customer/p0 as c: calls 1, rows 0 in, 5 out
      Scan invoiceline/p0 as i: calls 1, rows 0 in, 6 out
`,
	}
	s := telcoStore(t)
	plans := streamingPlans()
	for name, text := range want {
		for _, batch := range []int{1, 2, 3, DefaultBatchSize} {
			root, stats := plans[name](), NewRunStats()
			if _, err := (&Executor{Store: s, Stats: stats, BatchSize: batch}).Run(root); err != nil {
				t.Fatalf("%s batch %d: %v", name, batch, err)
			}
			var sb strings.Builder
			var walk func(n plan.Node, depth int)
			walk = func(n plan.Node, depth int) {
				op, _ := stats.Get(n)
				fmt.Fprintf(&sb, "%s%s: calls %d, rows %d in, %d out\n",
					strings.Repeat("  ", depth), n.Describe(), op.Calls, op.RowsIn, op.RowsOut)
				for _, child := range n.Children() {
					walk(child, depth+1)
				}
			}
			walk(root, 0)
			if got := sb.String(); got != text[1:] {
				t.Errorf("%s batch %d: actuals\n%swant\n%s", name, batch, got, text[1:])
			}
		}
	}
}

// Executor.Open surfaces the first row before the stream is drained, and an
// early Close releases the remote stream.
func TestOpenFirstRowEarlyClose(t *testing.T) {
	st := &fakeStream{
		cols: []expr.ColumnID{{Name: "x"}},
		batches: [][]value.Row{
			{{value.NewInt(1)}},
			{{value.NewInt(2)}},
		},
	}
	ex := &Executor{
		BatchSize:   1,
		FetchStream: func(string, string, string) (RowStream, error) { return st, nil },
	}
	cur, err := ex.Open(&plan.Remote{NodeID: "corfu", SQL: "SELECT x FROM t", Cols: []expr.ColumnID{{Name: "x"}}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := cur.Next()
	if err != nil || len(b) != 1 || b[0][0].I != 1 {
		t.Fatalf("first batch: %v %v", b, err)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if !st.closed {
		t.Fatal("early close must release the stream")
	}
	// Closed cursors are exhausted and re-closable.
	if b, err := cur.Next(); err != nil || len(b) != 0 {
		t.Fatalf("closed cursor must be exhausted: %v %v", b, err)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
}

// Rows adapts materialized answers to the Cursor and RowStream contracts;
// its batching and termination behavior must hold on its own.
func TestRowsContract(t *testing.T) {
	cols := []expr.ColumnID{{Name: "x"}}
	rows := []value.Row{
		{value.NewInt(1)}, {value.NewInt(2)}, {value.NewInt(3)},
	}
	c := NewRows(cols, rows, 2)
	if err := c.Open(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Cols(), cols) {
		t.Fatalf("cols: %v", c.Cols())
	}
	b, err := c.Next()
	if err != nil || len(b) != 2 {
		t.Fatalf("first batch: %v %v", b, err)
	}
	b, err = c.Next()
	if err != nil || len(b) != 1 {
		t.Fatalf("tail batch: %v %v", b, err)
	}
	if b, err = c.Next(); err != nil || b != nil {
		t.Fatalf("exhausted cursor: %v %v", b, err)
	}
	c2 := NewRows(nil, rows, 2)
	if _, err := c2.Next(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	if b, err := c2.Next(); err != nil || b != nil {
		t.Fatalf("closed cursor must be exhausted: %v %v", b, err)
	}
	// An unset batch is the default batch, not an empty one.
	if b, err := NewRows(nil, rows, 0).Next(); err != nil || len(b) != 3 {
		t.Fatalf("default batch: %v %v", b, err)
	}
}
