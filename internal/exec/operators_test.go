package exec

import (
	"reflect"
	"testing"
	"unsafe"

	"qtrade/internal/expr"
	"qtrade/internal/plan"
	"qtrade/internal/sqlparse"
	"qtrade/internal/value"
)

// memLeaf is a Remote leaf named alias with the given column names; memExec
// serves such leaves from in-memory rows, so operator tests can feed the
// cursors values no typed fragment would take (NULL keys, mixed kinds).
func memLeaf(alias string, cols ...string) *plan.Remote {
	ids := make([]expr.ColumnID, len(cols))
	for i, c := range cols {
		ids[i] = expr.ColumnID{Table: alias, Name: c}
	}
	return &plan.Remote{NodeID: alias, Cols: ids}
}

func memExec(batch int, tables map[string][]value.Row) *Executor {
	return &Executor{BatchSize: batch, FetchStream: func(nodeID, _, _ string) (RowStream, error) {
		return NewRows(nil, tables[nodeID], batch), nil
	}}
}

func ints(vs ...int64) value.Row {
	r := make(value.Row, len(vs))
	for i, v := range vs {
		r[i] = value.NewInt(v)
	}
	return r
}

// The flat join table against the materializing oracle on the shapes its
// layout could get wrong: long chains of one key interleaved with others
// (chain order), NULL keys (unlinked rows), a rejecting residual, a
// multi-column key across Int/Float, and an empty build side — output rows
// and their order identical at batch 1, 7 and 256.
func TestJoinMatchesMaterializedEdges(t *testing.T) {
	null := value.NewNull()
	var dupBuild, dupProbe []value.Row
	for i := int64(0); i < 600; i++ {
		k := i
		if i%3 != 0 {
			k = 1 // 400 duplicates of key 1, the rest unique
		}
		dupBuild = append(dupBuild, ints(k, i, i%5))
	}
	for i := int64(0); i < 40; i++ {
		dupProbe = append(dupProbe, ints(i%4, i, i%7))
	}
	cases := []struct {
		name string
		on   string
		l, r []value.Row
	}{
		{"duplicates-interleaved", "l.a = r.a", dupProbe, dupBuild},
		{"null-keys", "l.a = r.a",
			[]value.Row{{null, value.NewInt(1), null}, ints(1, 2, 3), {null, null, null}, ints(2, 0, 0)},
			[]value.Row{ints(1, 10, 0), {null, value.NewInt(11), null}, ints(2, 12, 0), {null, null, null}, ints(1, 13, 0)}},
		{"residual-rejects", "l.a = r.a AND l.b < r.b", dupProbe, dupBuild},
		{"multi-column-key", "l.a = r.a AND r.c = l.c",
			[]value.Row{ints(1, 0, 2), {value.NewFloat(1), value.NewInt(1), value.NewFloat(2)}, ints(1, 2, 3), {value.NewStr("x"), null, value.NewStr("y")}},
			[]value.Row{ints(1, 10, 2), ints(1, 11, 3), {value.NewFloat(1), value.NewInt(12), value.NewFloat(2)}, {value.NewStr("x"), null, value.NewStr("y")}, ints(2, 13, 2)}},
		{"empty-build", "l.a = r.a", dupProbe, nil},
	}
	for _, tc := range cases {
		tables := map[string][]value.Row{"l": tc.l, "r": tc.r}
		mk := func() plan.Node {
			return &plan.Join{L: memLeaf("l", "a", "b", "c"), R: memLeaf("r", "a", "b", "c"), On: sqlparse.MustParseExpr(tc.on)}
		}
		want, err := memExec(0, tables).RunMaterialized(mk())
		if err != nil {
			t.Fatalf("%s: materialized: %v", tc.name, err)
		}
		if tc.name != "empty-build" && len(want.Rows) == 0 {
			t.Fatalf("%s: oracle answer is empty, the case tests nothing", tc.name)
		}
		for _, batch := range []int{1, 7, 256} {
			got, err := memExec(batch, tables).Run(mk())
			if err != nil {
				t.Fatalf("%s batch %d: %v", tc.name, batch, err)
			}
			if len(got.Rows) != len(want.Rows) || (len(want.Rows) > 0 && !reflect.DeepEqual(got.Rows, want.Rows)) {
				t.Fatalf("%s batch %d: cursor %v != materialized %v", tc.name, batch, got.Rows, want.Rows)
			}
		}
	}
}

// A row the residual rejects gives its slab slot back: the rows of a batch
// sit back to back in memory, with no rejected row between them.
func TestJoinRejectedRowReusesSlabSlot(t *testing.T) {
	var l, r []value.Row
	for i := int64(0); i < 30; i++ {
		l = append(l, ints(i, i%3))
		r = append(r, ints(i, 0))
	}
	ex := memExec(0, map[string][]value.Row{"l": l, "r": r})
	c, err := ex.Open(&plan.Join{L: memLeaf("l", "a", "b"), R: memLeaf("r", "a", "b"),
		On: sqlparse.MustParseExpr("l.a = r.a AND l.b = r.b")})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b, err := c.Next()
	if err != nil || len(b) != 10 {
		t.Fatalf("want the 10 rows with l.b = 0, got %d (%v)", len(b), err)
	}
	for i := 1; i < len(b); i++ {
		gap := uintptr(unsafe.Pointer(&b[i][0])) - uintptr(unsafe.Pointer(&b[i-1][0]))
		if want := uintptr(len(b[i-1])) * unsafe.Sizeof(value.Value{}); gap != want {
			t.Fatalf("rows %d and %d are %d bytes apart, want %d: a rejected row kept its slot", i-1, i, gap, want)
		}
		if cap(b[i]) != len(b[i]) {
			t.Fatalf("row %d has spare capacity %d: appending to it would overwrite its neighbour", i, cap(b[i])-len(b[i]))
		}
	}
}

// 2^63 and -2^63 as floats are two groups. value.Key used to treat both as
// integral (the bound was <= math.MaxInt64, which float64 rounds up to 2^63)
// and int64 conversion wrapped the positive one onto the negative.
func TestGroupByDistinctAtInt64Boundary(t *testing.T) {
	hi, lo := value.NewFloat(1<<63), value.NewFloat(-(1 << 63))
	tables := map[string][]value.Row{"t": {{hi}, {lo}, {hi}, {value.NewInt(-(1 << 63))}}}
	for _, run := range []func(*Executor, plan.Node) (*Result, error){(*Executor).Run, (*Executor).RunMaterialized} {
		agg, err := run(memExec(0, tables), &plan.Aggregate{Input: memLeaf("t", "f"),
			GroupBy:    []expr.Expr{sqlparse.MustParseExpr("t.f")},
			GroupNames: []expr.ColumnID{{Table: "t", Name: "f"}},
			Aggs:       []plan.AggItem{{Agg: &expr.Agg{Fn: "COUNT", Star: true}, Name: expr.ColumnID{Name: "n"}}}})
		if err != nil {
			t.Fatal(err)
		}
		want := []value.Row{{hi, value.NewInt(2)}, {lo, value.NewInt(2)}}
		if !reflect.DeepEqual(agg.Rows, want) {
			t.Fatalf("GROUP BY: got %v, want %v", agg.Rows, want)
		}
		dis, err := run(memExec(0, tables), &plan.Distinct{Input: memLeaf("t", "f")})
		if err != nil {
			t.Fatal(err)
		}
		if want := []value.Row{{hi}, {lo}}; !reflect.DeepEqual(dis.Rows, want) {
			t.Fatalf("DISTINCT: got %v, want %v", dis.Rows, want)
		}
	}
}

// operatorCase is one operator over n input rows served from memory: what
// the allocation budget and the microbenchmarks both run.
type operatorCase struct {
	name   string
	inputs int // rows the operator consumes
	plan   func() plan.Node
	ex     *Executor
}

func operatorCases() []operatorCase {
	const n = 10000
	l, r, g := make([]value.Row, n), make([]value.Row, n), make([]value.Row, n)
	for i := int64(0); i < n; i++ {
		l[i] = value.Row{value.NewInt(i), value.NewStr("left")}
		r[i] = value.Row{value.NewInt(n - 1 - i), value.NewFloat(float64(i))}
		g[i] = value.Row{value.NewInt(i % 100), value.NewFloat(float64(i))}
	}
	ex := memExec(0, map[string][]value.Row{"l": l, "r": r, "g": g})
	return []operatorCase{
		{"join", 2 * n, func() plan.Node {
			return &plan.Join{L: memLeaf("l", "k", "s"), R: memLeaf("r", "k", "f"), On: sqlparse.MustParseExpr("l.k = r.k")}
		}, ex},
		{"project", n, func() plan.Node {
			return &plan.Project{Input: memLeaf("g", "k", "f"),
				Exprs: []expr.Expr{sqlparse.MustParseExpr("g.k + 1"), sqlparse.MustParseExpr("g.f")},
				Names: []expr.ColumnID{{Name: "k1"}, {Name: "f"}}}
		}, ex},
		{"aggregate", n, func() plan.Node {
			return &plan.Aggregate{Input: memLeaf("g", "k", "f"),
				GroupBy:    []expr.Expr{sqlparse.MustParseExpr("g.k")},
				GroupNames: []expr.ColumnID{{Table: "g", Name: "k"}},
				Aggs: []plan.AggItem{
					{Agg: &expr.Agg{Fn: "SUM", Arg: sqlparse.MustParseExpr("g.f")}, Name: expr.ColumnID{Name: "total"}},
					{Agg: &expr.Agg{Fn: "COUNT", Star: true}, Name: expr.ColumnID{Name: "n"}}}}
		}, ex},
		{"distinct", n, func() plan.Node {
			return &plan.Distinct{Input: &plan.Project{Input: memLeaf("g", "k", "f"),
				Exprs: []expr.Expr{sqlparse.MustParseExpr("g.k")}, Names: []expr.ColumnID{{Name: "k"}}}}
		}, ex},
	}
}

func (oc operatorCase) run(tb testing.TB) int {
	c, err := oc.ex.Open(oc.plan())
	if err != nil {
		tb.Fatal(err)
	}
	rows, err := Drain(c)
	if err != nil {
		tb.Fatal(err)
	}
	return len(rows)
}

// The operators' heap work is per batch and per group, not per row: each
// stays under 0.1 allocations per input row (before the flat join table, the
// row slabs and hashed grouping: join 7.0, project 1.0, aggregate 3.1,
// distinct 3.0).
func TestOperatorsAllocsPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	for _, oc := range operatorCases() {
		if oc.run(t) == 0 {
			t.Fatalf("%s: empty answer", oc.name)
		}
		allocs := testing.AllocsPerRun(3, func() { oc.run(t) })
		if perRow := allocs / float64(oc.inputs); perRow > 0.1 {
			t.Errorf("%s: %.0f allocations over %d input rows = %.3f per row, budget 0.1", oc.name, allocs, oc.inputs, perRow)
		} else {
			t.Logf("%s: %.0f allocations, %.4f per input row", oc.name, allocs, perRow)
		}
	}
}

func BenchmarkOperators(b *testing.B) {
	for _, oc := range operatorCases() {
		b.Run(oc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				oc.run(b)
			}
			b.ReportMetric(float64(oc.inputs)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
