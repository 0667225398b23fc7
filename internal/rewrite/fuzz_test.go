package rewrite

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"qtrade/internal/catalog"
	"qtrade/internal/expr"
	"qtrade/internal/plan"
	"qtrade/internal/sqlparse"
	"qtrade/internal/storage"
	"qtrade/internal/value"
)

// FuzzForSeller holds the seller rewrite to the buyer's reading of it: over
// a table t(x, y) range-partitioned on x and spread over three sellers, each
// partition held by exactly one, the rows each seller's rewritten query keeps
// of what it holds, unioned over the sellers, are exactly the rows the
// original query keeps of the whole table, as multisets. Query and
// partitioning are decoded from the fuzz bytes; the table is every pair of a
// small domain built around the literals, so the check is brute force. The
// rewritten query is read back from its printed text, as a seller ships it,
// and covers only partitions its seller holds. A column is decoded qualified,
// bare or misspelled; the query is qualified first, as every seller does, so
// a bare column is t's and a query naming a misspelled one is refused there.
func FuzzForSeller(f *testing.F) {
	f.Add([]byte{2, 1, 3, 0, 1, 2, 0, kSelCmp, 0, 4, 2})                         // x < 1, 3 | x < 3 over p0 p1 on two sellers
	f.Add([]byte{3, 0, 2, 4, 0, 1, 2, 1, kSelIn, 0, 3, 1, 6, 7})                 // x IN (0, NULL, 1.5)
	f.Add([]byte{1, 0, 0, 0, 0, 0, 2, kSelBetween, 1, 5, 0, kSelConst, 1, 2, 3}) // no predicate: one whole-table fragment
	f.Add([]byte{4, 0, 1, 2, 3, 0, 1, 2, 0, 1, kSelOr, kSelCmp, 0, 2, 1, kSelNull, 1, 1})
	f.Add([]byte{1, 0, 0, 1, 1, kSelCmp, 2, 2, 3}) // x < 2, bare
	f.Add([]byte{1, 0, 0, 1, 1, kSelCmp, 2, 5, 3}) // z < 2: no such column
	f.Add([]byte{1, 0, 0, 1, 1, kSelCmp, 2, 4, 3}) // t.z < 2: no such column
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		seed := make([]byte, 8+rng.Intn(24))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &selDecoder{data: data}
		sch, bounds := d.schema()
		def, _ := sch.Table("t")
		stores := []*storage.Store{storage.NewStore(), storage.NewStore(), storage.NewStore()}
		holder := make([]int, len(bounds)+1) // by partition
		for p := range holder {
			holder[p] = d.byte() % len(stores)
			if _, err := stores[holder[p]].CreateFragment(def, fmt.Sprintf("p%d", p)); err != nil {
				t.Fatal(err)
			}
		}
		text := "SELECT t.x, t.y FROM t"
		if pred := d.conjunction(); pred != nil {
			text += " WHERE " + pred.String()
		}
		sel, err := sqlparse.ParseSelect(text)
		if err != nil {
			t.Fatalf("%s does not parse: %v", text, err)
		}
		misspelled := slices.ContainsFunc(expr.Columns(sel.Where), func(c *expr.Column) bool { return c.Name == "z" })
		if err := plan.Qualify(sel, sch); misspelled != errors.Is(err, plan.ErrUnknownColumn) {
			t.Fatalf("%s: qualified with %v", text, err)
		} else if misspelled {
			return
		}
		cols := []expr.ColumnID{{Table: "t", Name: "x"}, {Table: "t", Name: "y"}}
		want := keep(t, sel.Where, cols, selRows(func(int) bool { return true }, bounds))
		var got []string
		for s, st := range stores {
			held := func(p int) bool { return holder[p] == s }
			rw, err := ForSeller(sel, sch, st)
			if errors.Is(err, ErrNothingLocal) || errors.Is(err, ErrContradiction) {
				if rows := keep(t, sel.Where, cols, selRows(held, bounds)); len(rows) > 0 && errors.Is(err, ErrContradiction) {
					t.Fatalf("%s: seller %d was found contradictory but holds %d rows of the answer", text, s, len(rows))
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: seller %d: %v", text, s, err)
			}
			for _, pid := range rw.Parts["t"] {
				var p int
				if _, err := fmt.Sscanf(pid, "p%d", &p); err != nil || !held(p) {
					t.Fatalf("%s: seller %d covers %s, which it does not hold", text, s, pid)
				}
			}
			shipped, err := sqlparse.ParseSelect(rw.Sel.SQL())
			if err != nil {
				t.Fatalf("%s: seller %d's rewrite %s does not parse: %v", text, s, rw.Sel.SQL(), err)
			}
			got = append(got, keep(t, shipped.Where, cols, selRows(held, bounds))...)
		}
		sort.Strings(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%s over partitions split at %v held by %v: the sellers' rewrites keep\n%v\nthe query keeps\n%v", text, bounds, holder, got, want)
		}
	})
}

// selXs and selYs are the values of the table's columns: x, the partitioning
// key, is never NULL, as a partition predicate must place every row.
var (
	selXs = []int64{math.MinInt64, -2, -1, 0, 1, 2, 3, 4, math.MaxInt64}
	selYs = []value.Value{value.NewNull(), value.NewInt(-1), value.NewInt(0), value.NewInt(1), value.NewInt(2), value.NewInt(3)}
)

// selRows lists every (x, y) pair of the domain whose x falls in a partition
// held reports, the partitions split at bounds.
func selRows(held func(p int) bool, bounds []int64) []value.Row {
	var out []value.Row
	for _, x := range selXs {
		if !held(sort.Search(len(bounds), func(i int) bool { return bounds[i] > x })) {
			continue
		}
		for _, y := range selYs {
			out = append(out, value.Row{value.NewInt(x), y})
		}
	}
	return out
}

// keep returns the keys of the rows where holds, sorted.
func keep(t *testing.T, where expr.Expr, cols []expr.ColumnID, rows []value.Row) []string {
	prog, err := expr.Compile(where, cols)
	if err != nil {
		t.Fatalf("compile %s: %v", where, err)
	}
	var out []string
	for _, r := range rows {
		ok, err := prog.Holds(r)
		if err != nil {
			t.Fatalf("%s over %v: %v", where, r, err)
		}
		if ok {
			out = append(out, value.Key(r, []int{0, 1}))
		}
	}
	sort.Strings(out)
	return out
}

// selLits are the literals a decoded predicate draws from.
var selLits = []value.Value{
	value.NewInt(-1), value.NewInt(0), value.NewInt(1), value.NewInt(2), value.NewInt(3),
	value.NewInt(math.MaxInt64), value.NewFloat(1.5), value.NewNull(), value.NewFloat(math.Copysign(0, -1)),
	value.NewInt(math.MinInt64), value.NewFloat(-0.5),
}

// The kinds of conjunct selDecoder reads.
const (
	kSelCmp = iota
	kSelIn
	kSelBetween
	kSelNull
	kSelNot
	kSelOr
	kSelConst
	selKinds
)

// selDecoder reads a partitioning and a predicate from fuzz bytes; past the
// end every byte reads as zero.
type selDecoder struct{ data []byte }

func (d *selDecoder) byte() int {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return int(b)
}

// schema reads a count and that many split points from -1..3: t's
// partitions are x < b1, b1 <= x < b2, …, x >= bk, or one fragment with no
// predicate when no split point is read.
func (d *selDecoder) schema() (*catalog.Schema, []int64) {
	sch := catalog.NewSchema()
	sch.MustAddTable(&catalog.TableDef{Name: "t", Columns: []catalog.ColumnDef{{Name: "x", Kind: value.Int}, {Name: "y", Kind: value.Int}}})
	var bounds []int64
	for n := d.byte() % 4; n > 0; n-- {
		b := int64(d.byte()%5) - 1
		if !slices.Contains(bounds, b) {
			bounds = append(bounds, b)
		}
	}
	slices.Sort(bounds)
	parts := make([]*catalog.Partition, len(bounds)+1)
	for p := range parts {
		var conj []string
		if p > 0 {
			conj = append(conj, fmt.Sprintf("x >= %d", bounds[p-1]))
		}
		if p < len(bounds) {
			conj = append(conj, fmt.Sprintf("x < %d", bounds[p]))
		}
		parts[p] = &catalog.Partition{Table: "t", ID: fmt.Sprintf("p%d", p)}
		if len(conj) > 0 {
			parts[p].Predicate = sqlparse.MustParseExpr(strings.Join(conj, " AND "))
		}
	}
	if err := sch.SetPartitions("t", parts); err != nil {
		panic(err)
	}
	return sch, bounds
}

// conjunction reads a count (zero to three) and that many conjuncts.
func (d *selDecoder) conjunction() expr.Expr {
	var list []expr.Expr
	for n := d.byte() % 4; n > 0; n-- {
		list = append(list, d.conjunct(0))
	}
	return expr.And(list)
}

// selCols are the columns a decoded predicate names: t's, bare and
// misspelled.
var selCols = []*expr.Column{expr.NewColumn("t", "x"), expr.NewColumn("t", "y"), expr.NewColumn("", "x"),
	expr.NewColumn("", "y"), expr.NewColumn("t", "z"), expr.NewColumn("", "z")}

func (d *selDecoder) col() expr.Expr { return selCols[d.byte()%len(selCols)] }
func (d *selDecoder) lit() expr.Expr { return expr.NewLit(selLits[d.byte()%len(selLits)]) }

// conjunct reads one conjunct; NOT and OR nest at most twice.
func (d *selDecoder) conjunct(depth int) expr.Expr {
	kind := d.byte() % selKinds
	if (kind == kSelNot || kind == kSelOr) && depth == 2 {
		kind = kSelCmp
	}
	switch kind {
	case kSelIn:
		x, list := d.col(), make([]expr.Expr, 1+d.byte()%3)
		for i := range list {
			list[i] = d.lit()
		}
		return &expr.In{X: x, List: list, Not: d.byte()%4 == 0}
	case kSelBetween:
		return &expr.Between{X: d.col(), Lo: d.lit(), Hi: d.lit(), Not: d.byte()%4 == 0}
	case kSelNull:
		return &expr.IsNull{X: d.col(), Not: d.byte()%2 == 0}
	case kSelNot:
		return &expr.Unary{Op: "NOT", X: d.conjunct(depth + 1)}
	case kSelOr:
		return expr.Or([]expr.Expr{d.conjunct(depth + 1), d.conjunct(depth + 1)})
	case kSelConst:
		return expr.Cmp([]string{"=", "<"}[d.byte()%2], d.lit(), d.lit())
	}
	return expr.Cmp([]string{"=", "<>", "<", "<=", ">", ">="}[d.byte()%6], d.col(), d.lit())
}
