package stats

import (
	"math/rand"
	"testing"

	"qtrade/internal/catalog"
	"qtrade/internal/expr"
	"qtrade/internal/sqlparse"
	"qtrade/internal/value"
)

func tableDef() *catalog.TableDef {
	return &catalog.TableDef{Name: "t", Columns: []catalog.ColumnDef{
		{Name: "id", Kind: value.Int},
		{Name: "grp", Kind: value.Str},
		{Name: "amt", Kind: value.Float},
	}}
}

func uniformRows(n int) []value.Row {
	r := rand.New(rand.NewSource(1))
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{
			value.NewInt(int64(i)),
			value.NewStr(string(rune('a' + i%4))),
			value.NewFloat(float64(r.Intn(100))),
		}
	}
	return rows
}

func TestFromRowsBasics(t *testing.T) {
	ts := FromRows(tableDef(), uniformRows(1000))
	if ts.Rows != 1000 {
		t.Fatalf("rows: %d", ts.Rows)
	}
	id := ts.Col("ID")
	if id == nil || id.NDV != 1000 || id.Min.I != 0 || id.Max.I != 999 {
		t.Fatalf("id stats: %+v", id)
	}
	grp := ts.Col("grp")
	if grp.NDV != 4 {
		t.Fatalf("grp ndv: %d", grp.NDV)
	}
	if ts.RowBytes <= 0 {
		t.Fatal("row bytes must be positive")
	}
}

func TestFromRowsNulls(t *testing.T) {
	rows := []value.Row{
		{value.NewInt(1), value.NewNull(), value.NewFloat(1)},
		{value.NewInt(2), value.NewStr("x"), value.NewFloat(2)},
	}
	ts := FromRows(tableDef(), rows)
	if got := ts.Col("grp").NullFrac; got != 0.5 {
		t.Fatalf("null frac: %f", got)
	}
}

func TestFromRowsEmpty(t *testing.T) {
	ts := FromRows(tableDef(), nil)
	if ts.Rows != 0 || ts.RowBytes <= 0 {
		t.Fatalf("empty stats: %+v", ts)
	}
	if Selectivity(ts, sqlparse.MustParseExpr("id = 5")) < 0 {
		t.Fatal("selectivity must not be negative")
	}
}

func TestHistogramEquiDepth(t *testing.T) {
	var vals []value.Value
	for i := 0; i < 100; i++ {
		vals = append(vals, value.NewInt(int64(i)))
	}
	h := BuildHistogram(vals, 10)
	if h == nil || len(h.Counts) != 10 {
		t.Fatalf("histogram: %+v", h)
	}
	if h.Total() != 100 {
		t.Fatalf("total: %d", h.Total())
	}
	for _, c := range h.Counts {
		if c != 10 {
			t.Fatalf("equi-depth violated: %v", h.Counts)
		}
	}
}

func TestHistogramNilCases(t *testing.T) {
	if BuildHistogram(nil, 10) != nil {
		t.Fatal("empty values must yield nil histogram")
	}
	if BuildHistogram([]value.Value{value.NewNull()}, 10) != nil {
		t.Fatal("all-null must yield nil histogram")
	}
	h := BuildHistogram([]value.Value{value.NewInt(1), value.NewInt(2)}, 100)
	if h == nil || h.Total() != 2 {
		t.Fatal("buckets clamp to value count")
	}
}

func selOf(t *testing.T, ts *TableStats, pred string) float64 {
	t.Helper()
	return Selectivity(ts, sqlparse.MustParseExpr(pred))
}

func TestSelectivityEquality(t *testing.T) {
	ts := FromRows(tableDef(), uniformRows(1000))
	s := selOf(t, ts, "grp = 'a'")
	if s < 0.2 || s > 0.3 {
		t.Fatalf("grp='a' sel = %f, want ~0.25", s)
	}
	s = selOf(t, ts, "id = 5")
	if s <= 0 || s > 0.01 {
		t.Fatalf("id=5 sel = %f, want ~0.001", s)
	}
}

func TestSelectivityRange(t *testing.T) {
	ts := FromRows(tableDef(), uniformRows(1000))
	s := selOf(t, ts, "id < 500")
	if s < 0.4 || s > 0.6 {
		t.Fatalf("id<500 sel = %f, want ~0.5", s)
	}
	s = selOf(t, ts, "id >= 900")
	if s < 0.05 || s > 0.15 {
		t.Fatalf("id>=900 sel = %f, want ~0.1", s)
	}
	s = selOf(t, ts, "id BETWEEN 100 AND 199")
	if s < 0.05 || s > 0.15 {
		t.Fatalf("between sel = %f, want ~0.1", s)
	}
}

func TestSelectivityConjunctionAndOr(t *testing.T) {
	ts := FromRows(tableDef(), uniformRows(1000))
	and := selOf(t, ts, "grp = 'a' AND id < 500")
	if and < 0.08 || and > 0.18 {
		t.Fatalf("AND sel = %f, want ~0.125", and)
	}
	or := selOf(t, ts, "grp = 'a' OR grp = 'b'")
	if or < 0.4 || or > 0.6 {
		t.Fatalf("OR sel = %f, want ~0.44-0.5", or)
	}
}

func TestSelectivityInAndNotEq(t *testing.T) {
	ts := FromRows(tableDef(), uniformRows(1000))
	s := selOf(t, ts, "grp IN ('a', 'b')")
	if s < 0.4 || s > 0.6 {
		t.Fatalf("IN sel = %f", s)
	}
	s = selOf(t, ts, "grp <> 'a'")
	if s < 0.6 || s > 0.9 {
		t.Fatalf("<> sel = %f", s)
	}
	// Out-of-domain equality should estimate ~0.
	s = selOf(t, ts, "grp = 'zzz'")
	if s > 0.01 {
		t.Fatalf("out-of-domain sel = %f", s)
	}
}

func TestSelectivityFalseTrueNil(t *testing.T) {
	ts := FromRows(tableDef(), uniformRows(10))
	if Selectivity(ts, nil) != 1 {
		t.Fatal("nil pred sel must be 1")
	}
	if Selectivity(ts, expr.FalseExpr()) != 0 {
		t.Fatal("FALSE sel must be 0")
	}
	if Selectivity(ts, expr.TrueExpr()) != 1 {
		t.Fatal("TRUE sel must be 1")
	}
}

func TestSelectivityResidual(t *testing.T) {
	ts := FromRows(tableDef(), uniformRows(100))
	// Join-ish predicate falls back to default equality selectivity.
	s := Selectivity(ts, sqlparse.MustParseExpr("id = amt"))
	if s != defaultEqSel {
		t.Fatalf("residual eq sel = %f", s)
	}
	s = Selectivity(ts, sqlparse.MustParseExpr("id IS NULL"))
	if s != 0.05 {
		t.Fatalf("IS NULL sel = %f", s)
	}
	s = Selectivity(ts, sqlparse.MustParseExpr("id IS NOT NULL"))
	if s != 0.95 {
		t.Fatalf("IS NOT NULL sel = %f", s)
	}
}

func TestScale(t *testing.T) {
	ts := FromRows(tableDef(), uniformRows(1000))
	half := ts.Scale(0.5)
	if half.Rows != 500 {
		t.Fatalf("scaled rows: %d", half.Rows)
	}
	if half.Col("id").NDV > ts.Col("id").NDV || half.Col("id").NDV <= 0 {
		t.Fatalf("scaled ndv: %d", half.Col("id").NDV)
	}
	if ts.Rows != 1000 {
		t.Fatal("Scale must not mutate the source")
	}
	zero := ts.Scale(-1)
	if zero.Rows != 0 {
		t.Fatal("negative clamps to 0")
	}
	full := ts.Scale(2)
	if full.Rows != 1000 {
		t.Fatal(">1 clamps to 1")
	}
}

func TestMerge(t *testing.T) {
	a := FromRows(tableDef(), uniformRows(100))
	b := FromRows(tableDef(), uniformRows(50))
	m := Merge(a, b)
	if m.Rows != 150 {
		t.Fatalf("merged rows: %d", m.Rows)
	}
	if m.Col("id").Min.I != 0 || m.Col("id").Max.I != 99 {
		t.Fatalf("merged bounds: %+v", m.Col("id"))
	}
	if Merge(nil, a) != a || Merge(a, nil) != a {
		t.Fatal("nil merge identity")
	}
}

func TestSynthetic(t *testing.T) {
	ts := Synthetic(tableDef(), 1000, 50)
	if ts.Rows != 1000 || ts.Col("id").NDV != 50 {
		t.Fatalf("synthetic: %+v", ts)
	}
	ts2 := Synthetic(tableDef(), 10, 50)
	if ts2.Col("id").NDV != 10 {
		t.Fatal("NDV must clamp to rows")
	}
}

// Property: selectivity estimates stay within [0,1] for random predicates.
func TestQuickSelectivityBounds(t *testing.T) {
	ts := FromRows(tableDef(), uniformRows(500))
	r := rand.New(rand.NewSource(3))
	preds := []string{
		"id = %d", "id < %d", "id > %d", "id BETWEEN %d AND 400",
		"grp = 'a' AND id < %d", "grp IN ('a','b') OR id = %d", "id <> %d",
	}
	for i := 0; i < 300; i++ {
		p := preds[r.Intn(len(preds))]
		q := sqlparse.MustParseExpr(sprintf(p, r.Intn(600)))
		s := Selectivity(ts, q)
		if s < 0 || s > 1 {
			t.Fatalf("selectivity out of bounds: %s -> %f", q, s)
		}
	}
}

func sprintf(format string, a int) string {
	out := ""
	for i := 0; i < len(format); i++ {
		if format[i] == '%' && i+1 < len(format) && format[i+1] == 'd' {
			out += itoa(a)
			i++
			continue
		}
		out += string(format[i])
	}
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	if neg {
		return "-" + string(b)
	}
	return string(b)
}

// Property: histogram range estimates roughly track true fractions on
// uniform integer data.
func TestQuickHistogramAccuracy(t *testing.T) {
	var vals []value.Value
	for i := 0; i < 10000; i++ {
		vals = append(vals, value.NewInt(int64(i%1000)))
	}
	h := BuildHistogram(vals, 32)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		lo := int64(r.Intn(900))
		hi := lo + int64(r.Intn(int(1000-lo)))
		rng := expr.IntervalRange(true, value.NewInt(lo), true, true, value.NewInt(hi), true)
		got := h.FracInRange(rng)
		want := float64(hi-lo+1) / 1000
		if diff := got - want; diff < -0.1 || diff > 0.1 {
			t.Fatalf("range [%d,%d]: got %f want %f", lo, hi, got, want)
		}
	}
}
