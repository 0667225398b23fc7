package exec

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"qtrade/internal/expr"
	"qtrade/internal/plan"
	"qtrade/internal/sqlparse"
	"qtrade/internal/value"
)

// foldedJoin is a join case with what the join cursor takes over from the
// nodes around it: a filter over the join, a projection over that, and a
// left input that may itself be a join, of l with k (a copy of l's rows) on
// l.b = k.b.
type foldedJoin struct {
	joinCase
	inner  bool
	filter string   // the filter's predicate; "" is no filter
	outs   []string // the projection's list; nil is no projection
}

// joinFold is what a foldedJoin adds to a join case. In filter, %s stands
// for the first conjunct of the case's ON (l.a = r.a when it has none).
type joinFold struct {
	name   string
	inner  bool
	filter string
	outs   []string
	sides  []int // where the filter's conjuncts that the join tests run; nil: not checked
}

// joinFolds are the folds every join case is run under.
var joinFolds = []joinFold{
	{name: "bare-outputs", outs: []string{"r.b", "l.a", "r.b", "l.c", "l.a"}},
	{name: "computed-output", outs: []string{"l.b * 2 + r.b", "r.a"}},
	{name: "repeated-on", filter: "%s AND l.b >= 0 AND r.b >= 0 AND l.b <= r.b + 1000",
		outs: []string{"l.a", "r.b"}, sides: []int{onLeft, onRight, onPair}},
	{name: "repeated-inner-on", inner: true, filter: "%s AND l.b = k.b AND k.c <> 6 AND r.c >= k.a - 10",
		outs: []string{"k.b", "r.a", "l.c"}, sides: []int{onLeft, onPair}},
	{name: "false-before-error", filter: "l.b > 2 AND r.b - 'x' = 0"},
	{name: "null-before-error", filter: "l.a = NULL AND r.b - 'x' = 0", outs: []string{"l.a"}},
	{name: "output-error-after-condition-error", filter: "r.b < 12 OR r.b - 'x' = 0", outs: []string{"l.a * 'x'"}},
}

func (tc joinCase) fold(f joinFold) foldedJoin {
	fj := foldedJoin{joinCase: tc, inner: f.inner, filter: f.filter, outs: f.outs}
	on := "l.a = r.a"
	if first := tc.on(); len(first) > 0 {
		on = first[0]
	}
	fj.filter = strings.ReplaceAll(fj.filter, "%s", on)
	return fj
}

func (f foldedJoin) tables() map[string][]value.Row {
	return map[string][]value.Row{"l": f.l, "k": f.l, "r": f.r}
}

func (f foldedJoin) join() *plan.Join {
	var left plan.Node = memLeaf("l", "a", "b", "c")
	if f.inner {
		left = &plan.Join{L: left, R: memLeaf("k", "a", "b", "c"), On: sqlparse.MustParseExpr("l.b = k.b")}
	}
	j := &plan.Join{L: left, R: memLeaf("r", "a", "b", "c")}
	if on := f.on(); len(on) > 0 {
		j.On = sqlparse.MustParseExpr(strings.Join(on, " AND "))
	}
	return j
}

func (f foldedJoin) plan() plan.Node {
	var n plan.Node = f.join()
	if f.filter != "" {
		n = &plan.Filter{Input: n, Pred: sqlparse.MustParseExpr(f.filter)}
	}
	if f.outs != nil {
		p := &plan.Project{Input: n}
		for i, e := range f.outs {
			p.Exprs = append(p.Exprs, sqlparse.MustParseExpr(e))
			p.Names = append(p.Names, expr.ColumnID{Name: fmt.Sprintf("x%d", i)})
		}
		n = p
	}
	return n
}

// reference answers f as the join, the filter and the projection did one
// after another before the join took them over: the ON's keys matched by
// value.Equal in a nested loop, the residual and then the whole filter each
// evaluated as one conjunction (expr.Eval) on the joined row, the pairs cut
// into the join's batches (a left row's matches at a time, until a batch
// holds batch rows), and the projection evaluated on each batch as the join
// hands it over. It returns the rows, or the first error that pipeline
// returns.
func (f foldedJoin) reference(batch int) ([]value.Row, error) {
	left := f.l
	if f.inner {
		left = nil
		for _, lr := range f.l {
			for _, kr := range f.l {
				if value.Equal(lr[1], kr[1]) {
					left = append(left, append(append(value.Row{}, lr...), kr...))
				}
			}
		}
	}
	schema := f.join().Schema()
	bind := func(text string) expr.Expr {
		if text == "" {
			return nil
		}
		return expr.MustBind(sqlparse.MustParseExpr(text), schema)
	}
	residual, filter := bind(f.residual), bind(f.filter)
	var outs []expr.Expr
	for _, e := range f.outs {
		outs = append(outs, bind(e))
	}
	var answer, kept []value.Row
	flush := func() error {
		for _, row := range kept {
			if outs == nil {
				answer = append(answer, row)
				continue
			}
			out := make(value.Row, len(outs))
			for i, e := range outs {
				v, err := expr.Eval(e, row)
				if err != nil {
					return err
				}
				out[i] = v
			}
			answer = append(answer, out)
		}
		kept = kept[:0]
		return nil
	}
	for _, lr := range left {
		if len(kept) >= batch {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	pairs:
		for _, rr := range f.r {
			for _, k := range f.keys {
				if !value.Equal(lr[k[0]], rr[k[1]]) {
					continue pairs
				}
			}
			row := append(append(value.Row{}, lr...), rr...)
			for _, pred := range []expr.Expr{residual, filter} {
				if pred == nil {
					continue
				}
				v, err := expr.Eval(pred, row)
				if err != nil {
					return nil, err
				}
				if !v.Truth() {
					continue pairs
				}
			}
			kept = append(kept, row)
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return answer, nil
}

// sameAnswer compares two answers value by value, bit for bit: NaN is the
// NaN it was, and -0 is not 0.
func sameAnswer(a, b []value.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j, x := range a[i] {
			y := b[i][j]
			if x.K != y.K || x.I != y.I || math.Float64bits(x.F) != math.Float64bits(y.F) || x.S != y.S || x.B != y.B {
				return false
			}
		}
	}
	return true
}

// checkFoldedJoin runs f through the executor at batch and holds it to the
// reference: the same rows in the same order, or the same error.
func checkFoldedJoin(t *testing.T, name string, f foldedJoin, batch int) error {
	t.Helper()
	want, wantErr := f.reference(batch)
	got, err := memExec(batch, f.tables()).Run(f.plan())
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s batch %d: error %v, the reference's %v", name, batch, err, wantErr)
	}
	if err == nil && !sameAnswer(got.Rows, want) {
		t.Fatalf("%s batch %d: rows\n%v\nthe reference's\n%v", name, batch, got.Rows, want)
	}
	return err
}

// A join takes over the filter directly over it and the projection over
// either, and answers as the three did one after another: the same rows in
// the same order, and the same error or none, at batch 1, 7 and 256. Every
// join case runs under each fold: a projection of bare columns reordered,
// repeated and drawn from both sides; a computed output; a filter repeating
// the ON, and one repeating an inner join's ON, beside one-side and
// both-side conjuncts (the repeats are dropped, the others run on the side
// they name); a FALSE and a NULL conjunct each before one that fails; and a
// failing output in batches where a later pair's condition fails.
func TestFoldedJoinMatchesReference(t *testing.T) {
	for _, fold := range joinFolds {
		rows, errs := 0, 0
		for _, tc := range joinCases() {
			f := tc.fold(fold)
			name := tc.name + "/" + fold.name
			for _, batch := range []int{1, 7, 256} {
				if err := checkFoldedJoin(t, name, f, batch); err != nil {
					errs++
				}
			}
			if want, err := f.reference(256); err == nil {
				rows += len(want)
			}
			if fold.sides == nil {
				continue
			}
			c, err := memExec(0, f.tables()).Open(f.plan())
			if err != nil {
				t.Fatal(err)
			}
			var sides []int
			for _, s := range c.(*joinCursor).where {
				sides = append(sides, s.side)
			}
			c.Close()
			if fmt.Sprint(sides) != fmt.Sprint(fold.sides) {
				t.Errorf("%s: the filter's conjuncts run on sides %v, want %v (left %d, right %d, pair %d) with the repeated ON dropped",
					name, sides, fold.sides, onLeft, onRight, onPair)
			}
		}
		if strings.Contains(fold.name, "error") && errs == 0 {
			t.Errorf("%s: no case fails, so the fold tests no error", fold.name)
		}
		if !strings.Contains(fold.name, "error") && rows == 0 {
			t.Errorf("%s: no case answers a row", fold.name)
		}
	}
}

// keyPalette is what a fuzzed join's values are drawn from: NULL, NaN, both
// zeros, integers against the floats equal to them, 2^53+1 against the float
// 2^53 it rounds to, strings and a boolean.
var keyPalette = []value.Value{
	value.NewNull(), value.NewInt(0), value.NewInt(1), value.NewInt(2), value.NewInt(-1),
	value.NewFloat(1), value.NewFloat(2.5), value.NewFloat(math.Copysign(0, -1)), value.NewFloat(0),
	value.NewFloat(math.NaN()), value.NewInt(1<<53 + 1), value.NewFloat(1 << 53),
	value.NewStr("x"), value.NewStr("y"), value.NewBool(true),
}

// What a fuzzed fold draws its ON residual, filter conjuncts and outputs
// from; %s is the ON's first conjunct, k's columns exist with an inner join.
var (
	fuzzResiduals = []string{"", "l.b <= r.b", "(r.c - l.c >= 0 OR l.a IS NULL)", "l.c <> r.c"}
	fuzzConjuncts = []string{"%s", "l.b = k.b", "l.c <> 1", "r.b IN (1, 2, NULL)", "l.b >= r.b",
		"l.b + r.c > 0", "r.a - 'x' = 0", "l.a = NULL", "l.b < -5", "k.a * 2 = k.a + k.a", "NOT (r.c = 2)"}
	fuzzOutputs = []string{"l.a", "l.b", "l.c", "r.a", "r.b", "r.c", "k.c", "l.a + r.b", "r.c * 2", "k.b - r.a"}
	fuzzKeys    = [][2]int{{0, 0}, {2, 2}, {1, 0}}
	fuzzBatches = []int{1, 2, 7, 256}
)

// decodeFoldedJoin reads a fuzzed join. The first byte picks one of
// joinCases, or (0) rows of up to six values drawn from keyPalette and keys
// drawn from fuzzKeys; the second picks one of joinFolds, or (0) a fold of
// an inner join or not, a residual, up to four filter conjuncts and up to
// four outputs drawn from the lists above; the last read picks the batch.
func decodeFoldedJoin(data []byte) (foldedJoin, int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	var f foldedJoin
	cases := joinCases()
	if c := next() % (len(cases) + 1); c > 0 {
		f.joinCase = cases[c-1]
	} else {
		rows := func() []value.Row {
			out := make([]value.Row, next()%7)
			for i := range out {
				out[i] = value.Row{keyPalette[next()%len(keyPalette)], keyPalette[next()%len(keyPalette)], keyPalette[next()%len(keyPalette)]}
			}
			return out
		}
		f.name, f.l, f.r = "drawn", rows(), rows()
		for mask, i := next(), 0; i < len(fuzzKeys); i++ {
			if mask&(1<<i) != 0 {
				f.keys = append(f.keys, fuzzKeys[i])
			}
		}
		f.residual = fuzzResiduals[next()%len(fuzzResiduals)]
	}
	if fold := next() % (len(joinFolds) + 1); fold > 0 {
		f = f.joinCase.fold(joinFolds[fold-1])
	} else {
		f.inner = next()%2 == 1
		on := f.fold(joinFold{filter: "%s"}).filter
		usable := func(e string) bool { return f.inner || !strings.Contains(e, "k.") }
		var conj []string
		for n := next() % 5; len(conj) < n; {
			if c := strings.ReplaceAll(fuzzConjuncts[next()%len(fuzzConjuncts)], "%s", on); usable(c) {
				conj = append(conj, c)
			} else if len(data) == 0 {
				break
			}
		}
		f.filter = strings.Join(conj, " AND ")
		for n := next() % 5; len(f.outs) < n; {
			if o := fuzzOutputs[next()%len(fuzzOutputs)]; usable(o) {
				f.outs = append(f.outs, o)
			} else if len(data) == 0 {
				break
			}
		}
	}
	return f, fuzzBatches[next()%len(fuzzBatches)]
}

// FuzzJoinMatchesNestedLoop holds the join, with whatever it takes over, to
// its reference over drawn rows and folds; its seeds are every join case
// under every fold of TestFoldedJoinMatchesReference at every batch.
func FuzzJoinMatchesNestedLoop(f *testing.F) {
	for c := range joinCases() {
		for fold := range joinFolds {
			for b := range fuzzBatches {
				f.Add([]byte{byte(c + 1), byte(fold + 1), byte(b)})
			}
		}
	}
	f.Add([]byte{0, 3, 0, 2, 4, 1, 13, 9, 1, 3, 2, 3, 11, 5, 6, 1, 0, 1, 3, 0, 5, 7, 3, 2, 1, 8, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		fj, batch := decodeFoldedJoin(data)
		checkFoldedJoin(t, fj.name, fj, batch)
	})
}
