package expr

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"qtrade/internal/value"
)

func col(t, n string) *Column { return NewColumn(t, n) }

func schema2() []ColumnID {
	return []ColumnID{{Table: "c", Name: "id"}, {Table: "c", Name: "office"}, {Table: "i", Name: "charge"}}
}

func bind(t *testing.T, e Expr) Expr {
	t.Helper()
	out, err := Bind(e, schema2())
	if err != nil {
		t.Fatalf("bind %s: %v", e, err)
	}
	return out
}

func TestBindQualifiedAndUnqualified(t *testing.T) {
	orig := Eq(col("c", "id"), col("", "charge"))
	b := bind(t, orig).(*Binary)
	if b.L.(*Column).Index != 0 || b.R.(*Column).Index != 2 {
		t.Errorf("indices: %d %d", b.L.(*Column).Index, b.R.(*Column).Index)
	}
	if orig.L.(*Column).Index != -1 || orig.R.(*Column).Index != -1 {
		t.Error("Bind wrote the tree it was given")
	}
}

func TestBindUnknownColumn(t *testing.T) {
	if _, err := Bind(col("c", "nope"), schema2()); err == nil {
		t.Error("expected unknown column error")
	}
	if _, err := Bind(col("x", "id"), schema2()); err == nil {
		t.Error("expected unknown qualifier error")
	}
}

func TestBindAmbiguous(t *testing.T) {
	schema := []ColumnID{{Table: "a", Name: "x"}, {Table: "b", Name: "x"}}
	if _, err := Bind(col("", "x"), schema); err == nil {
		t.Error("expected ambiguity error")
	}
	if _, err := Bind(col("b", "x"), schema); err != nil {
		t.Errorf("qualified must disambiguate: %v", err)
	}
}

func TestEvalComparisons(t *testing.T) {
	row := value.Row{value.NewInt(5), value.NewStr("Corfu"), value.NewFloat(9.5)}
	cases := []struct {
		e    Expr
		want bool
	}{
		{Eq(col("c", "id"), Int(5)), true},
		{Cmp("<", col("c", "id"), Int(6)), true},
		{Cmp(">=", col("i", "charge"), Int(10)), false},
		{Cmp("<>", col("c", "office"), Str("Corfu")), false},
		{&Binary{Op: "AND", L: Eq(col("c", "id"), Int(5)), R: Eq(col("c", "office"), Str("Corfu"))}, true},
		{&Binary{Op: "OR", L: Eq(col("c", "id"), Int(1)), R: Eq(col("c", "office"), Str("Corfu"))}, true},
		{&Unary{Op: "NOT", X: Eq(col("c", "id"), Int(5))}, false},
		{&In{X: col("c", "office"), List: []Expr{Str("Corfu"), Str("Myconos")}}, true},
		{&In{X: col("c", "office"), List: []Expr{Str("Athens")}, Not: true}, true},
		{&Between{X: col("i", "charge"), Lo: Int(5), Hi: Int(10)}, true},
		{&Between{X: col("i", "charge"), Lo: Int(5), Hi: Int(10), Not: true}, false},
		{&IsNull{X: col("c", "id")}, false},
		{&IsNull{X: col("c", "id"), Not: true}, true},
	}
	for _, c := range cases {
		got, err := EvalBool(bind(t, c.e), row)
		if err != nil {
			t.Fatalf("%s: %v", c.e, err)
		}
		if got != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestEvalArithmetic(t *testing.T) {
	row := value.Row{value.NewInt(5), value.NewStr("x"), value.NewFloat(2.5)}
	e := bind(t, Cmp("+", Cmp("*", col("c", "id"), Int(2)), col("i", "charge")))
	v, err := Eval(e, row)
	if err != nil || v.AsFloat() != 12.5 {
		t.Errorf("5*2+2.5 = %v (%v)", v, err)
	}
}

func TestEvalNullSemantics(t *testing.T) {
	row := value.Row{value.NewNull(), value.NewStr("x"), value.NewFloat(1)}
	// NULL = 5 is NULL, which is not true.
	e := bind(t, Eq(col("c", "id"), Int(5)))
	got, err := EvalBool(e, row)
	if err != nil || got {
		t.Errorf("NULL=5 must not be true: %v %v", got, err)
	}
	// NULL IS NULL is true.
	n := bind(t, &IsNull{X: col("c", "id")})
	got, _ = EvalBool(n, row)
	if !got {
		t.Error("NULL IS NULL must be true")
	}
	// FALSE AND NULL = FALSE (short-circuit and three-valued logic agree).
	a := bind(t, &Binary{Op: "AND", L: Eq(col("i", "charge"), Int(99)), R: Eq(col("c", "id"), Int(5))})
	v, _ := Eval(a, row)
	if v.Truth() || v.IsNull() {
		t.Errorf("FALSE AND NULL = %v, want FALSE", v)
	}
	// TRUE OR NULL = TRUE.
	o := bind(t, &Binary{Op: "OR", L: Eq(col("i", "charge"), Int(1)), R: Eq(col("c", "id"), Int(5))})
	v, _ = Eval(o, row)
	if !v.Truth() {
		t.Errorf("TRUE OR NULL = %v, want TRUE", v)
	}
	// x IN (1, NULL) where x=2 is NULL (not true, not false).
	in := bind(t, &In{X: col("i", "charge"), List: []Expr{Int(99), NewLit(value.NewNull())}})
	v, _ = Eval(in, row)
	if !v.IsNull() {
		t.Errorf("2 IN (99, NULL) = %v, want NULL", v)
	}
}

func TestEvalAggregateErrors(t *testing.T) {
	if _, err := Eval(&Agg{Fn: "SUM", Arg: Int(1)}, nil); err == nil {
		t.Error("aggregates must not evaluate outside aggregation")
	}
}

func TestStringRendering(t *testing.T) {
	e := &Binary{Op: "OR", L: &Binary{Op: "AND", L: Eq(col("c", "id"), Int(1)), R: Eq(col("", "office"), Str("Corfu"))}, R: Eq(col("c", "id"), Int(2))}
	got := e.String()
	want := "c.id = 1 AND office = 'Corfu' OR c.id = 2"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	mul := &Binary{Op: "*", L: &Binary{Op: "+", L: Int(1), R: Int(2)}, R: Int(3)}
	if mul.String() != "(1 + 2) * 3" {
		t.Errorf("parens: %q", mul.String())
	}
}

// Expressions are shared, never copied: Transform hands back the tree it was
// given when fn changes nothing, and a rewrite of one leaf rebuilds only the
// path to it, sharing every subtree it did not touch.
func TestTransformShares(t *testing.T) {
	left := Eq(col("c", "id"), Int(1))
	in := &In{X: col("i", "charge"), List: []Expr{Int(1), Int(2)}}
	between := &Between{X: col("c", "office"), Lo: Str("a"), Hi: Str("m")}
	e := And([]Expr{left, in, between}).(*Binary)
	if got := Transform(e, func(n Expr) Expr { return n }); got != Expr(e) {
		t.Fatal("the identity Transform copied the tree")
	}
	if got, ok := Substitute(left.L, func(Expr) (Expr, Step) { return nil, Descend }); !ok || got != left.L {
		t.Fatal("Substitute copied an untouched leaf")
	}
	before := e.String()
	renamed := RenameTables(e, map[string]string{"i": "inv"}).(*Binary)
	if e.String() != before {
		t.Fatalf("RenameTables wrote its input: %s", e)
	}
	if want := "c.id = 1 AND inv.charge IN (1, 2) AND c.office BETWEEN 'a' AND 'm'"; renamed.String() != want {
		t.Fatalf("renamed %s, want %s", renamed, want)
	}
	inner := renamed.L.(*Binary)
	got := inner.R.(*In)
	switch {
	case renamed == e || inner == e.L || got == in:
		t.Error("the path to the renamed leaf was not rebuilt")
	case renamed.R != Expr(between) || inner.L != Expr(left):
		t.Error("a subtree without the renamed leaf was copied")
	case &got.List[0] != &in.List[0]:
		t.Error("an unchanged IN list was copied")
	}
}

func TestConjunctsAndAnd(t *testing.T) {
	a, b, c := Eq(col("t", "x"), Int(1)), Eq(col("t", "y"), Int(2)), Eq(col("t", "z"), Int(3))
	e := And([]Expr{a, b, c})
	list := Conjuncts(e)
	if len(list) != 3 {
		t.Fatalf("conjuncts: %d", len(list))
	}
	if Conjuncts(nil) != nil {
		t.Error("nil conjuncts")
	}
	if And(nil) != nil {
		t.Error("And(nil) must be nil")
	}
}

func TestSimplifyFolding(t *testing.T) {
	cases := []struct {
		in   Expr
		want string
	}{
		{Cmp("+", Int(2), Int(3)), "5"},
		{&Binary{Op: "AND", L: TrueExpr(), R: Eq(col("t", "x"), Int(1))}, "t.x = 1"},
		{&Binary{Op: "AND", L: FalseExpr(), R: Eq(col("t", "x"), Int(1))}, "FALSE"},
		{&Binary{Op: "OR", L: TrueExpr(), R: Eq(col("t", "x"), Int(1))}, "TRUE"},
		{&Binary{Op: "OR", L: FalseExpr(), R: Eq(col("t", "x"), Int(1))}, "t.x = 1"},
		{&Unary{Op: "NOT", X: &Unary{Op: "NOT", X: Eq(col("t", "x"), Int(1))}}, "t.x = 1"},
		{&Unary{Op: "NOT", X: Cmp("<", col("t", "x"), Int(1))}, "t.x >= 1"},
		{Cmp("=", Int(1), Int(1)), "TRUE"},
		{&In{X: col("t", "x"), List: []Expr{Int(7)}}, "t.x = 7"},
		{&Between{X: Int(5), Lo: Int(1), Hi: Int(10)}, "TRUE"},
		{&IsNull{X: Int(5)}, "FALSE"},
		{&IsNull{X: NewLit(value.NewNull())}, "TRUE"},
		{&Unary{Op: "-", X: Int(4)}, "-4"},
	}
	for _, c := range cases {
		got := Simplify(c.in)
		if got.String() != c.want {
			t.Errorf("Simplify(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestSimplifyContradiction(t *testing.T) {
	e := And([]Expr{Eq(col("t", "x"), Str("A")), Eq(col("t", "x"), Str("B"))})
	if got := Simplify(e); !IsFalse(got) {
		t.Errorf("x='A' AND x='B' must simplify to FALSE, got %s", got)
	}
	e2 := And([]Expr{Cmp(">", col("t", "x"), Int(10)), Cmp("<", col("t", "x"), Int(5))})
	if got := Simplify(e2); !IsFalse(got) {
		t.Errorf("x>10 AND x<5 must be FALSE, got %s", got)
	}
	e3 := And([]Expr{Cmp(">=", col("t", "x"), Int(5)), Cmp("<=", col("t", "x"), Int(5))})
	if got := Simplify(e3); IsFalse(got) {
		t.Errorf("x>=5 AND x<=5 is satisfiable, got %s", got)
	}
}

func TestSimplifyDedup(t *testing.T) {
	p := Eq(col("t", "x"), Int(1))
	e := And([]Expr{p, Eq(col("t", "x"), Int(1)), Eq(col("t", "y"), Int(2))})
	got := Simplify(e)
	if len(Conjuncts(got)) != 2 {
		t.Errorf("dedup failed: %s", got)
	}
}

func TestSimplifyPredicateTrueBecomesNil(t *testing.T) {
	if got := SimplifyPredicate(Cmp("=", Int(1), Int(1))); got != nil {
		t.Errorf("TRUE predicate must become nil, got %s", got)
	}
}

func TestImplies(t *testing.T) {
	x := func() *Column { return col("t", "x") }
	cases := []struct {
		p, q Expr
		want bool
	}{
		{Eq(x(), Int(5)), Cmp(">", x(), Int(1)), true},
		{Eq(x(), Int(5)), Cmp(">", x(), Int(5)), false},
		{Cmp(">", x(), Int(10)), Cmp(">", x(), Int(5)), true},
		{Cmp(">", x(), Int(5)), Cmp(">", x(), Int(10)), false},
		{And([]Expr{Cmp(">", x(), Int(5)), Cmp("<", x(), Int(8))}), &Between{X: x(), Lo: Int(5), Hi: Int(8)}, true},
		{&In{X: x(), List: []Expr{Int(1), Int(2)}}, Cmp("<", x(), Int(5)), true},
		{&In{X: x(), List: []Expr{Int(1), Int(9)}}, Cmp("<", x(), Int(5)), false},
		{Eq(x(), Str("Corfu")), &In{X: x(), List: []Expr{Str("Corfu"), Str("Myconos")}}, true},
		{nil, Eq(x(), Int(1)), false},
		{Eq(x(), Int(1)), nil, true},
		{Eq(x(), Int(5)), Cmp("<>", x(), Int(6)), true},
		{Eq(x(), Int(6)), Cmp("<>", x(), Int(6)), false},
		// Different columns: no implication.
		{Eq(col("t", "y"), Int(5)), Cmp(">", x(), Int(1)), false},
		// Residual conjunct must appear verbatim.
		{Eq(col("t", "a"), col("t", "b")), Eq(col("t", "a"), col("t", "b")), true},
	}
	for _, c := range cases {
		if got := Implies(c.p, c.q); got != c.want {
			t.Errorf("Implies(%v, %v) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestUnsatisfiable(t *testing.T) {
	if !Unsatisfiable(FalseExpr()) {
		t.Error("FALSE is unsatisfiable")
	}
	if Unsatisfiable(nil) || Unsatisfiable(TrueExpr()) {
		t.Error("TRUE/nil are satisfiable")
	}
}

func TestRangeIntersectAndContains(t *testing.T) {
	ge5 := IntervalRange(true, value.NewInt(5), true, false, value.Value{}, false)
	le9 := IntervalRange(false, value.Value{}, false, true, value.NewInt(9), true)
	mid := Intersect(ge5, le9)
	if !mid.Admits(value.NewInt(7)) || mid.Admits(value.NewInt(4)) || mid.Admits(value.NewInt(10)) {
		t.Error("intersection 5..9 wrong")
	}
	if !ge5.Contains(mid) || !le9.Contains(mid) {
		t.Error("5..9 must be contained in both parents")
	}
	if mid.Contains(ge5) {
		t.Error("5..9 must not contain >=5")
	}
	pt := PointRange(value.NewInt(7))
	if !mid.Contains(pt) {
		t.Error("5..9 contains {7}")
	}
	empty := Intersect(PointRange(value.NewInt(1)), PointRange(value.NewInt(2)))
	if !empty.Empty {
		t.Error("{1} ∩ {2} must be empty")
	}
	if !mid.Contains(empty) {
		t.Error("everything contains empty")
	}
	if empty.Contains(pt) {
		t.Error("empty contains nothing")
	}
}

func TestRangeNotIn(t *testing.T) {
	ne := &Range{NotIn: []value.Value{value.NewInt(5)}}
	if ne.Admits(value.NewInt(5)) || !ne.Admits(value.NewInt(6)) {
		t.Error("<>5 range wrong")
	}
	pt := PointRange(value.NewInt(5))
	got := Intersect(ne, pt)
	if !got.Empty {
		t.Error("<>5 ∩ {5} must be empty")
	}
	set := SetRange([]value.Value{value.NewInt(4), value.NewInt(5)})
	got = Intersect(ne, set)
	if got.Empty || len(got.Set) != 1 || got.Set[0].I != 4 {
		t.Errorf("<>5 ∩ {4,5} = %+v", got)
	}
}

func TestDegenerateIntervalBecomesPoint(t *testing.T) {
	r := IntervalRange(true, value.NewInt(5), true, true, value.NewInt(5), true)
	if r.Set == nil || len(r.Set) != 1 {
		t.Errorf("[5,5] must normalize to {5}: %+v", r)
	}
	e := IntervalRange(true, value.NewInt(5), false, true, value.NewInt(5), true)
	if !e.Empty {
		t.Error("(5,5] must be empty")
	}
}

func TestRenameTables(t *testing.T) {
	e := Eq(col("Old", "x"), col("keep", "y"))
	got := RenameTables(e, map[string]string{"old": "new"})
	if got.String() != "new.x = keep.y" {
		t.Errorf("rename: %s", got)
	}
}

func TestSingleBindingPredAndQualify(t *testing.T) {
	part := And([]Expr{Cmp(">", NewColumn("", "x"), Int(5)), Eq(col("t", "y"), Int(1))})
	if q := Qualify(part, "r"); q.String() != "r.x > 5 AND t.y = 1" {
		t.Errorf("qualify: %s", q)
	}
	if part.String() != "x > 5 AND t.y = 1" {
		t.Errorf("Qualify must not touch its input: %s", part)
	}
}

func TestColumnsAndTables(t *testing.T) {
	e := And([]Expr{Eq(col("a", "x"), col("b", "y")), Cmp(">", col("a", "z"), Int(1))})
	if len(Columns(e)) != 3 {
		t.Errorf("columns: %d", len(Columns(e)))
	}
	tabs := Tables(e)
	if !tabs["a"] || !tabs["b"] || len(tabs) != 2 {
		t.Errorf("tables: %v", tabs)
	}
}

func TestHasAgg(t *testing.T) {
	if HasAgg(Eq(col("a", "x"), Int(1))) {
		t.Error("no agg here")
	}
	if !HasAgg(Cmp(">", &Agg{Fn: "SUM", Arg: col("a", "x")}, Int(1))) {
		t.Error("agg not found")
	}
}

// randomPredicate builds a random predicate over columns x (int) and s (str)
// using a bounded grammar, for property tests.
func randomPredicate(r *rand.Rand, depth int) Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(5) {
		case 0:
			ops := []string{"=", "<>", "<", "<=", ">", ">="}
			return Cmp(ops[r.Intn(len(ops))], col("t", "x"), Int(int64(r.Intn(10))))
		case 1:
			return &In{X: col("t", "x"), List: []Expr{Int(int64(r.Intn(5))), Int(int64(r.Intn(10)))}, Not: r.Intn(2) == 0}
		case 2:
			lo := int64(r.Intn(5))
			return &Between{X: col("t", "x"), Lo: Int(lo), Hi: Int(lo + int64(r.Intn(5)))}
		case 3:
			return Eq(col("t", "s"), Str(string(rune('a'+r.Intn(3)))))
		default:
			return &IsNull{X: col("t", "x"), Not: r.Intn(2) == 0}
		}
	}
	switch r.Intn(3) {
	case 0:
		return &Binary{Op: "AND", L: randomPredicate(r, depth-1), R: randomPredicate(r, depth-1)}
	case 1:
		return &Binary{Op: "OR", L: randomPredicate(r, depth-1), R: randomPredicate(r, depth-1)}
	default:
		return &Unary{Op: "NOT", X: randomPredicate(r, depth-1)}
	}
}

// Property: Simplify preserves WHERE semantics (NULL behaves as false) on
// random predicates and rows.
func TestQuickSimplifyPreservesSemantics(t *testing.T) {
	schema := []ColumnID{{Table: "t", Name: "x"}, {Table: "t", Name: "s"}}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		p := randomPredicate(r, 3)
		s := Simplify(p)
		for j := 0; j < 20; j++ {
			row := value.Row{value.NewInt(int64(r.Intn(12))), value.NewStr(string(rune('a' + r.Intn(4))))}
			if r.Intn(10) == 0 {
				row[0] = value.NewNull()
			}
			p2, err := Bind(p, schema)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := Bind(s, schema)
			if err != nil {
				t.Fatal(err)
			}
			want, err1 := EvalBool(p2, row)
			got, err2 := EvalBool(s2, row)
			if err1 != nil || err2 != nil {
				t.Fatalf("eval error: %v / %v (p=%s, s=%s)", err1, err2, p, s)
			}
			if want != got {
				t.Fatalf("Simplify changed semantics: p=%s s=%s row=%v want=%v got=%v", p, s, row, want, got)
			}
		}
	}
}

// Property: Implies is sound — whenever Implies(p,q) holds, every row
// satisfying p satisfies q.
func TestQuickImpliesSound(t *testing.T) {
	schema := []ColumnID{{Table: "t", Name: "x"}, {Table: "t", Name: "s"}}
	r := rand.New(rand.NewSource(7))
	checked := 0
	for i := 0; i < 2000 && checked < 200; i++ {
		p := randomPredicate(r, 2)
		q := randomPredicate(r, 1)
		if !Implies(p, q) {
			continue
		}
		checked++
		for x := int64(-2); x < 14; x++ {
			for _, s := range []string{"a", "b", "c", "d"} {
				row := value.Row{value.NewInt(x), value.NewStr(s)}
				p2, q2 := MustBind(p, schema), MustBind(q, schema)
				pv, _ := EvalBool(p2, row)
				qv, _ := EvalBool(q2, row)
				if pv && !qv {
					t.Fatalf("Implies unsound: p=%s q=%s row=%v", p, q, row)
				}
			}
		}
	}
	if checked == 0 {
		t.Error("no implication pairs exercised")
	}
}

// Property: Intersect is commutative w.r.t. Admits on sampled values.
func TestQuickIntersectCommutative(t *testing.T) {
	mk := func(seed int64) *Range {
		r := rand.New(rand.NewSource(seed))
		switch r.Intn(3) {
		case 0:
			return PointRange(value.NewInt(int64(r.Intn(10))))
		case 1:
			lo := int64(r.Intn(6))
			return IntervalRange(true, value.NewInt(lo), r.Intn(2) == 0, true, value.NewInt(lo+int64(r.Intn(6))), r.Intn(2) == 0)
		default:
			return &Range{NotIn: []value.Value{value.NewInt(int64(r.Intn(10)))}}
		}
	}
	f := func(a, b int64) bool {
		ra, rb := mk(a), mk(b)
		x, y := Intersect(ra, rb), Intersect(rb, ra)
		for v := int64(-1); v < 13; v++ {
			if x.Admits(value.NewInt(v)) != y.Admits(value.NewInt(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSplitColLitFlip(t *testing.T) {
	// 5 < x must normalize to x > 5.
	c, r, ok := rangeOfConjunct(Cmp("<", Int(5), col("t", "x")))
	if !ok || ColKey(c) != "t.x" {
		t.Fatalf("flip failed: %v %v", c, ok)
	}
	if r.Admits(value.NewInt(5)) || !r.Admits(value.NewInt(6)) {
		t.Error("5 < x range wrong")
	}
}

func TestRangeOfConjunctRejectsComplex(t *testing.T) {
	if _, _, ok := rangeOfConjunct(Eq(col("a", "x"), col("b", "y"))); ok {
		t.Error("join predicate is not range-expressible")
	}
	if _, _, ok := rangeOfConjunct(&Between{X: col("t", "x"), Lo: Int(1), Hi: Int(2), Not: true}); ok {
		t.Error("NOT BETWEEN is residual")
	}
	// NULL compares with nothing, so as a bound it would make a chain of
	// Intersects depend on its order.
	if _, _, ok := rangeOfConjunct(&Between{X: col("t", "x"), Lo: NewLit(value.NewNull()), Hi: Int(2)}); ok {
		t.Error("BETWEEN with a NULL bound is residual")
	}
}

func TestOrBuilder(t *testing.T) {
	e := Or([]Expr{Eq(col("t", "x"), Int(1)), Eq(col("t", "x"), Int(2))})
	if e.String() != "t.x = 1 OR t.x = 2" {
		t.Errorf("Or: %s", e)
	}
	if Or(nil) != nil {
		t.Error("Or(nil) must be nil")
	}
}

func TestStringsHelpers(t *testing.T) {
	if lower("ABc") != "abc" {
		t.Error("lower")
	}
	if !strings.Contains((&Agg{Fn: "COUNT", Star: true}).String(), "COUNT(*)") {
		t.Error("count star render")
	}
	a := &Agg{Fn: "SUM", Arg: col("t", "x"), Distinct: true}
	if a.String() != "SUM(DISTINCT t.x)" {
		t.Errorf("agg render: %s", a)
	}
}
