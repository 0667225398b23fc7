package exec

import (
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
	i       int
	nexts   int
	closed  bool
}

func (f *fakeStream) Cols() []expr.ColumnID { return f.cols }

func (f *fakeStream) Next() ([]value.Row, error) {
	f.nexts++
	if f.i >= len(f.batches) {
		return nil, nil
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
	}
}

// The streamed pipeline must produce byte-identical rows, in identical
// order, to the materializing reference path — at every batch size,
// including degenerate batch 1.
func TestStreamingMatchesMaterialized(t *testing.T) {
	s := telcoStore(t)
	for name, mk := range streamingPlans() {
		for _, batch := range []int{1, 2, 3, DefaultBatchSize} {
			n := mk()
			stream := &Executor{Store: s, BatchSize: batch}
			got, err := stream.Run(n)
			if err != nil {
				t.Fatalf("%s batch %d: streaming: %v", name, batch, err)
			}
			ref := &Executor{Store: s}
			want, err := ref.RunMaterialized(mk())
			if err != nil {
				t.Fatalf("%s: materialized: %v", name, err)
			}
			if !reflect.DeepEqual(got.Rows, want.Rows) && !(len(got.Rows) == 0 && len(want.Rows) == 0) {
				t.Fatalf("%s batch %d: streaming %v != materialized %v", name, batch, got.Rows, want.Rows)
			}
		}
	}
}

// Incomparable sort keys (same unknown kind on both sides, e.g. rows
// corrupted in transit) must fail the sort in both paths — the regression
// for the dead sortErr variable and the dropped value.Compare error.
func TestSortErrorPropagates(t *testing.T) {
	bad := value.Value{K: value.Kind(99)}
	fetch := func(string, string, string) (RowStream, error) {
		return NewRows([]expr.ColumnID{{Name: "x"}}, []value.Row{{bad}, {bad}}, 0), nil
	}
	mk := func() plan.Node {
		return &plan.Sort{
			Input: &plan.Remote{NodeID: "corfu", SQL: "SELECT x FROM t", Cols: []expr.ColumnID{{Name: "x"}}},
			Keys:  []plan.SortKey{{Expr: sqlparse.MustParseExpr("x")}},
		}
	}
	ex := &Executor{FetchStream: fetch}
	if _, err := ex.Run(mk()); err == nil || !strings.Contains(err.Error(), "not comparable") {
		t.Fatalf("streaming sort must surface comparison error, got %v", err)
	}
	if _, err := ex.RunMaterialized(mk()); err == nil || !strings.Contains(err.Error(), "not comparable") {
		t.Fatalf("materialized sort must surface comparison error, got %v", err)
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
	if _, err := ex.RunMaterialized(r); err == nil || !strings.Contains(err.Error(), "columns") {
		t.Fatalf("materialized: empty mis-shaped answer must error, got %v", err)
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
	if _, err := exEmpty.RunMaterialized(un); err == nil || !strings.Contains(err.Error(), "schema declares") {
		t.Fatalf("materialized: union drift past empty input must error, got %v", err)
	}
	// Sanity: a well-shaped union still works on both paths.
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

// DESC ordering with NULL keys through the streaming sort matches the
// materializing comparator exactly (NULLs first ascending, therefore last
// descending), at a batch size small enough to split the input.
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
	mk := func() plan.Node {
		return &plan.Sort{
			Input: &plan.Scan{Def: custDef, Alias: "c", PartID: "p0"},
			Keys:  []plan.SortKey{{Expr: sqlparse.MustParseExpr("c.custid"), Desc: true}},
		}
	}
	ex := &Executor{Store: s, BatchSize: 2}
	got, err := ex.Run(mk())
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
	want, err := (&Executor{Store: s}).RunMaterialized(mk())
	if err != nil || !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("streaming %v != materialized %v (%v)", got.Rows, want.Rows, err)
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
