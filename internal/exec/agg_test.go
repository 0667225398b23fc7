package exec

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"qtrade/internal/expr"
	"qtrade/internal/plan"
	"qtrade/internal/sqlparse"
	"qtrade/internal/value"
)

// foldAggs is every aggregate shape the fold has a rule for, over the left
// relation l(k, g, h, x, big, f, s) of TestAggregateFoldIgnoresBatching.
func foldAggs() []plan.AggItem {
	item := func(name, fn, arg string, distinct bool) plan.AggItem {
		a := &expr.Agg{Fn: fn, Distinct: distinct, Star: arg == ""}
		if arg != "" {
			a.Arg = sqlparse.MustParseExpr(arg)
		}
		return plan.AggItem{Agg: a, Name: expr.ColumnID{Name: name}}
	}
	return []plan.AggItem{
		item("n", "COUNT", "", false),
		item("cx", "COUNT", "l.x", false),
		item("cdx", "COUNT", "l.x", true),
		item("sdx", "SUM", "l.x", true),
		item("sbig", "SUM", "l.big", false),
		item("ax", "AVG", "l.x", false),
		item("sf", "SUM", "l.f", false),
		item("mins", "MIN", "l.s", false),
		item("maxs", "MAX", "l.s", false),
	}
}

// refGroup is one group of the reference aggregation.
type refGroup struct {
	key        value.Row
	n, cx      int64
	xs         map[int64]bool
	xsum       int64
	bigs       int64
	bigSum     big.Int
	bigOver    bool // the running SUM(big) left int64 at some row
	fs         int64
	fsum       float64
	mins, maxs value.Value
}

// refAggregate is the naive aggregation the fold must agree with: a map
// from a printed key to its group, each aggregate spelled out by hand, and
// groups in first-seen order. The integer sum leaves int64 only upwards (its
// inputs are not negative) and its inputs are multiples of 2^40, so its
// DOUBLE is the exact total; the float sum adds in row order.
func refAggregate(rows []value.Row, grouped bool) []value.Row {
	const g, h, x, bigCol, f, s = 1, 2, 3, 4, 5, 6
	index := map[string]*refGroup{}
	var order []*refGroup
	for _, r := range rows {
		var key value.Row
		if grouped {
			key = value.Row{r[g], r[h]}
		}
		printed := ""
		for _, v := range key {
			printed += fmt.Sprintf("%d:%d:%q|", v.K, v.I, v.S)
		}
		grp := index[printed]
		if grp == nil {
			grp = &refGroup{key: key, xs: map[int64]bool{}}
			index[printed] = grp
			order = append(order, grp)
		}
		grp.n++
		if v := r[x]; !v.IsNull() {
			grp.cx++
			grp.xs[v.I] = true
			grp.xsum += v.I
		}
		if v := r[bigCol]; !v.IsNull() {
			grp.bigs++
			grp.bigSum.Add(&grp.bigSum, big.NewInt(v.I))
			grp.bigOver = grp.bigOver || !grp.bigSum.IsInt64()
		}
		if v := r[f]; !v.IsNull() {
			grp.fs++
			grp.fsum += v.F
		}
		if v := r[s]; !v.IsNull() {
			if grp.mins.IsNull() || v.S < grp.mins.S {
				grp.mins = v
			}
			if grp.maxs.IsNull() || v.S > grp.maxs.S {
				grp.maxs = v
			}
		}
	}
	if len(order) == 0 && !grouped {
		order = append(order, &refGroup{})
	}
	null := value.NewNull()
	var out []value.Row
	for _, grp := range order {
		row := append(value.Row{}, grp.key...)
		sdx, ax, sbig, sf := null, null, null, null
		if len(grp.xs) > 0 {
			var sum int64
			for v := range grp.xs {
				sum += v
			}
			sdx = value.NewInt(sum)
		}
		if grp.cx > 0 {
			ax = value.NewFloat(float64(grp.xsum) / float64(grp.cx))
		}
		if grp.bigs > 0 {
			if grp.bigOver {
				total, _ := new(big.Float).SetInt(&grp.bigSum).Float64()
				sbig = value.NewFloat(total)
			} else {
				sbig = value.NewInt(grp.bigSum.Int64())
			}
		}
		if grp.fs > 0 {
			sf = value.NewFloat(grp.fsum)
		}
		row = append(row, value.NewInt(grp.n), value.NewInt(grp.cx), value.NewInt(int64(len(grp.xs))),
			sdx, sbig, ax, sf, grp.mins, grp.maxs)
		out = append(out, row)
	}
	return out
}

// randomLeft draws n rows of l(k, g, h, x, big, f, s), each column NULL now
// and then: a join key, a string and an integer group key, a small integer,
// an integer near 2^61 (a few of them overflow an int64 sum), a float and a
// string.
func randomLeft(rng *rand.Rand, n int) []value.Row {
	maybe := func(v value.Value) value.Value {
		if rng.Intn(5) == 0 {
			return value.NewNull()
		}
		return v
	}
	groups := []string{"a", "b", "c", ""}
	words := []string{"apple", "Banana", "cherry", "", "zeta"}
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{
			maybe(value.NewInt(rng.Int63n(6))),
			maybe(value.NewStr(groups[rng.Intn(len(groups))])),
			maybe(value.NewInt(rng.Int63n(2))),
			maybe(value.NewInt(rng.Int63n(7) - 3)),
			maybe(value.NewInt((1<<21 + rng.Int63n(1<<21)) << 40)),
			maybe(value.NewFloat(rng.Float64() * 100)),
			maybe(value.NewStr(words[rng.Intn(len(words))])),
		}
	}
	return rows
}

// The fold gives the naive reference's answer whatever the batch size: over
// rows served as they are (Aggregate over a leaf) and over a join with a
// filter folded into it, which under the aggregate writes each batch over
// the last; grouped by a string and an integer key that are sometimes NULL,
// and as one global group; with a HAVING over the count. The seeded inputs
// include no rows at all, an integer SUM past int64 and groups HAVING drops.
func TestAggregateFoldIgnoresBatching(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	lCols := []string{"k", "g", "h", "x", "big", "f", "s"}
	var overflowed, emptyGlobal, havingDropped int
	for trial := 0; trial < 40; trial++ {
		l := randomLeft(rng, trial*3%61)
		r := make([]value.Row, rng.Intn(12))
		for i := range r {
			y := value.NewInt(rng.Int63n(4))
			if rng.Intn(6) == 0 {
				y = value.NewNull()
			}
			r[i] = value.Row{value.NewInt(rng.Int63n(6)), y}
		}
		// The join's answer in nested-loop order, kept to l's columns.
		var joined []value.Row
		for _, lr := range l {
			for _, rr := range r {
				if !lr[0].IsNull() && lr[0].I == rr[0].I && !rr[1].IsNull() && rr[1].I != 2 {
					joined = append(joined, lr)
				}
			}
		}
		inputs := []struct {
			name string
			in   func() plan.Node
			rows []value.Row
		}{
			{"rows", func() plan.Node { return memLeaf("l", lCols...) }, l},
			{"filter-join", func() plan.Node {
				return &plan.Filter{Input: &plan.Join{L: memLeaf("l", lCols...), R: memLeaf("r", "k", "y"),
					On: sqlparse.MustParseExpr("l.k = r.k")}, Pred: sqlparse.MustParseExpr("r.y <> 2")}
			}, joined},
		}
		for _, in := range inputs {
			for _, grouped := range []bool{true, false} {
				for _, having := range []bool{false, true} {
					want := refAggregate(in.rows, grouped)
					for _, row := range want {
						if row[len(row)-5].K == value.Float { // SUM(l.big) past int64
							overflowed++
						}
					}
					if !grouped && len(in.rows) == 0 {
						emptyGlobal++
					}
					agg := &plan.Aggregate{Input: in.in(), Aggs: foldAggs()}
					var node plan.Node = agg
					if grouped {
						agg.GroupBy = []expr.Expr{sqlparse.MustParseExpr("l.g"), sqlparse.MustParseExpr("l.h")}
						agg.GroupNames = []expr.ColumnID{{Table: "l", Name: "g"}, {Table: "l", Name: "h"}}
					}
					if having {
						node = &plan.Filter{Input: agg, Pred: sqlparse.MustParseExpr("n >= 2")}
						var kept []value.Row
						for _, row := range want {
							if row[len(agg.GroupBy)].I >= 2 {
								kept = append(kept, row)
							}
						}
						havingDropped += len(want) - len(kept)
						want = kept
					}
					for _, batch := range []int{1, 2, 3, 7, 256} {
						got, err := memExec(batch, map[string][]value.Row{"l": l, "r": r}).Run(node)
						if err != nil {
							t.Fatalf("trial %d %s grouped=%v having=%v batch %d: %v", trial, in.name, grouped, having, batch, err)
						}
						if len(got.Rows) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got.Rows, want)) {
							t.Fatalf("trial %d %s grouped=%v having=%v batch %d:\n got %v\nwant %v", trial, in.name, grouped, having, batch, got.Rows, want)
						}
					}
				}
			}
		}
	}
	if overflowed == 0 || emptyGlobal == 0 || havingDropped == 0 {
		t.Fatalf("the inputs miss a case: %d sums past int64, %d global aggregates over no rows, %d groups HAVING drops",
			overflowed, emptyGlobal, havingDropped)
	}
}

// The aggregate releases its input as soon as it has folded the last row,
// before its first Next returns — the seller-side cursors behind a purchase
// go back while the groups are still being read — and so does an input
// that fails part way through.
func TestAggregateClosesItsInputBeforeItsFirstRow(t *testing.T) {
	cols := []expr.ColumnID{{Table: "t", Name: "k"}}
	batches := [][]value.Row{{{value.NewInt(1)}, {value.NewInt(2)}}, {{value.NewInt(1)}}}
	for _, fail := range []error{nil, errors.New("seller went away")} {
		st := &fakeStream{cols: cols, batches: batches, err: fail}
		ex := &Executor{BatchSize: 1, FetchStream: func(string, string, string) (RowStream, error) { return st, nil }}
		c, err := ex.Open(&plan.Aggregate{Input: &plan.Remote{NodeID: "t", Cols: cols},
			GroupBy: []expr.Expr{sqlparse.MustParseExpr("t.k")}, GroupNames: cols,
			Aggs: []plan.AggItem{{Agg: &expr.Agg{Fn: "COUNT", Star: true}, Name: expr.ColumnID{Name: "n"}}}})
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.Next()
		if !errors.Is(err, fail) {
			t.Fatalf("input failing with %v: the aggregate's first Next returned %v", fail, err)
		}
		if !st.closed {
			t.Errorf("input failing with %v: still open when the aggregate's first Next returned %v, %v", fail, b, err)
		}
		if fail == nil && !reflect.DeepEqual(b, []value.Row{ints(1, 2)}) {
			t.Errorf("first batch %v, want the group of 1 counted twice", b)
		}
		if st.nexts != len(batches)+1 {
			t.Errorf("input failing with %v: pulled %d times, want %d", fail, st.nexts, len(batches)+1)
		}
		c.Close()
	}
}
