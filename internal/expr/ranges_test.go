package expr

import (
	"math"
	"math/rand"
	"testing"

	"qtrade/internal/value"
)

// An IN list that holds only NULLs admits no value: x IN (NULL, NULL) is NULL
// on every row. A predicate that confines x to it is unsatisfiable, and no
// satisfiable predicate implies it.
func TestAllNullInListAdmitsNothing(t *testing.T) {
	x := col("t", "x")
	null := NewLit(value.NewNull())
	nulls := &In{X: x, List: []Expr{null, null}}
	if !Unsatisfiable(And([]Expr{Cmp(">", x, Int(5)), nulls})) {
		t.Error("x > 5 AND x IN (NULL, NULL) is unsatisfiable")
	}
	if Implies(Cmp(">", x, Int(5)), nulls) {
		t.Error("x > 5 does not imply x IN (NULL, NULL)")
	}
	if got := Simplify(And([]Expr{Cmp(">", x, Int(5)), &In{X: x, List: []Expr{null}}})); !IsFalse(got) {
		t.Errorf("x > 5 AND x IN (NULL) simplifies to %s, want FALSE", got)
	}
	if Unsatisfiable(&In{X: x, List: []Expr{Int(1), null}}) || !Implies(Eq(x, Int(1)), &In{X: x, List: []Expr{Int(1), null}}) {
		t.Error("x IN (1, NULL) admits 1")
	}
}

// FuzzRangeAlgebra holds the range algebra to brute force. The input decodes
// to two conjunctions p and q over the columns t.x and t.y: comparisons
// either way round, IN and NOT IN lists, BETWEEN, NOT BETWEEN and NOT, with
// literals among small integers, 1.5, NaN, -0.0, ±Inf, the int64 extremes, a
// string and NULL. Over every row of a domain that adds the values between
// and around those literals (and NULL), evaluated by compiled programs:
// Unsatisfiable(p) means no row satisfies p, Implies(p, q) means every row
// that satisfies p satisfies q, and SimplifyPredicate(p) holds exactly where
// p does. None of the three changes p's or q's printed text.
func FuzzRangeAlgebra(f *testing.F) {
	f.Add([]byte{0, kRangeCmp, 0, 4, litOne, 0, kRangeIn, 0, 1, litNull, litNull})                          // x > 1; x IN (NULL, NULL)
	f.Add([]byte{1, kRangeCmp, 0, 4, litOne, kRangeIn, 0, 1, litNull, litNull, 0, kRangeCmp, 0, 0, litOne}) // x > 1 AND x IN (NULL, NULL); x = 1
	f.Add([]byte{0, kRangeIn, 1, 0, litNull, 0, kRangeBetween, 1, litNegZero, litNaN})                      // y IN (NULL); y BETWEEN -0.0 AND NaN
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		seed := make([]byte, 8+rng.Intn(24))
		rng.Read(seed)
		f.Add(seed)
	}
	schema := []ColumnID{{Table: "t", Name: "x"}, {Table: "t", Name: "y"}}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &rangeDecoder{data: data}
		p, q := d.conjunction(), d.conjunction()
		ptext, qtext := p.String(), q.String()
		unsat, implies, simple := Unsatisfiable(p), Implies(p, q), SimplifyPredicate(p)
		if p.String() != ptext || q.String() != qtext {
			t.Fatalf("the range algebra rewrote %s as %s and %s as %s", ptext, p, qtext, q)
		}
		exprs := []Expr{p, q, simple}
		progs := make([]*Program, len(exprs))
		for i, e := range exprs {
			var err error
			if progs[i], err = Compile(e, schema); err != nil {
				t.Fatalf("compile %s: %v", e, err)
			}
		}
		holds := func(i int, row value.Row) bool {
			ok, err := progs[i].Holds(row)
			if err != nil {
				t.Fatalf("%s over %v: %v", exprs[i], row, err)
			}
			return ok
		}
		for _, x := range rangeDomain {
			for _, y := range rangeDomain {
				row := value.Row{x, y}
				hp := holds(0, row)
				switch {
				case unsat && hp:
					t.Fatalf("Unsatisfiable(%s), but x = %v, y = %v satisfies it", p, x, y)
				case implies && hp && !holds(1, row):
					t.Fatalf("Implies(%s, %s), but x = %v, y = %v satisfies only the first", p, q, x, y)
				case holds(2, row) != hp:
					t.Fatalf("SimplifyPredicate(%s) = %v differs from it at x = %v, y = %v", p, simple, x, y)
				}
			}
		}
	})
}

// rangeLits are the literals a decoded predicate draws from.
var rangeLits = []value.Value{
	value.NewInt(-1), value.NewInt(0), value.NewInt(1), value.NewInt(2), value.NewInt(3),
	value.NewFloat(1.5), value.NewFloat(math.NaN()), value.NewFloat(math.Copysign(0, -1)),
	value.NewFloat(math.Inf(1)), value.NewFloat(math.Inf(-1)),
	value.NewInt(math.MaxInt64), value.NewInt(math.MinInt64), value.NewStr("a"), value.NewNull(),
}

// Indexes into rangeLits the seeds name.
const (
	litOne     = 2
	litNaN     = 6
	litNegZero = 7
	litNull    = 13
)

// rangeDomain is every literal, the values between and around them, and
// NULL: each column of a row takes each of them.
var rangeDomain = append(append([]value.Value(nil), rangeLits...),
	value.NewInt(-2), value.NewInt(4), value.NewFloat(-0.5), value.NewFloat(0), value.NewFloat(0.5),
	value.NewFloat(1), value.NewFloat(1.25), value.NewFloat(1.75), value.NewFloat(2.5), value.NewFloat(3.5),
	value.NewInt(math.MaxInt64-1), value.NewInt(math.MinInt64+1), value.NewFloat(1<<63), value.NewFloat(-(1 << 63)),
	value.NewFloat(math.MaxFloat64), value.NewFloat(-math.MaxFloat64),
	value.NewStr(""), value.NewStr("A"), value.NewStr("b"), value.NewBool(false), value.NewBool(true),
)

// The conjunct kinds a decoder reads.
const (
	kRangeCmp = iota
	kRangeCmpFlipped
	kRangeIn
	kRangeNotIn
	kRangeBetween
	kRangeNotBetween
	kRangeNot
	rangeKinds
)

var rangeOps = []string{"=", "<>", "<", "<=", ">", ">="}

// rangeDecoder reads a conjunction from fuzz bytes; past the end every byte
// reads as zero.
type rangeDecoder struct{ data []byte }

func (d *rangeDecoder) byte() int {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return int(b)
}

// conjunction reads a count (one to three) and that many conjuncts.
func (d *rangeDecoder) conjunction() Expr {
	list := make([]Expr, 1+d.byte()%3)
	for i := range list {
		list[i] = d.conjunct(0)
	}
	return And(list)
}

// conjunct reads one conjunct; NOT nests at most twice.
func (d *rangeDecoder) conjunct(depth int) Expr {
	kind := d.byte() % rangeKinds
	if kind == kRangeNot && depth == 2 {
		kind = kRangeCmp
	}
	x := NewColumn("t", []string{"x", "y"}[d.byte()%2])
	switch kind {
	case kRangeCmp:
		return Cmp(rangeOps[d.byte()%len(rangeOps)], x, d.lit())
	case kRangeCmpFlipped:
		return Cmp(rangeOps[d.byte()%len(rangeOps)], d.lit(), x)
	case kRangeIn, kRangeNotIn:
		list := make([]Expr, 1+d.byte()%3)
		for i := range list {
			list[i] = d.lit()
		}
		return &In{X: x, List: list, Not: kind == kRangeNotIn}
	case kRangeBetween, kRangeNotBetween:
		return &Between{X: x, Lo: d.lit(), Hi: d.lit(), Not: kind == kRangeNotBetween}
	}
	return &Unary{Op: "NOT", X: d.conjunct(depth + 1)}
}

func (d *rangeDecoder) lit() Expr { return NewLit(rangeLits[d.byte()%len(rangeLits)]) }
