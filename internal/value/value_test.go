package value

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Null: "NULL", Int: "INTEGER", Float: "DOUBLE", Str: "VARCHAR", Bool: "BOOLEAN",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

// Every row slab the executor carves is len(row) Values: the field order
// that packs K and B into one word is worth a sixth of those bytes.
func TestValueIs40Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 40 {
		t.Fatalf("a Value is %d bytes, want 40", got)
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() {
		t.Fatal("zero Value must be NULL")
	}
}

func TestCompareNumericMixed(t *testing.T) {
	c, ok := Compare(NewInt(2), NewFloat(2.0))
	if !ok || c != 0 {
		t.Errorf("2 vs 2.0: got (%d,%v)", c, ok)
	}
	c, ok = Compare(NewInt(2), NewFloat(2.5))
	if !ok || c != -1 {
		t.Errorf("2 vs 2.5: got (%d,%v)", c, ok)
	}
	c, ok = Compare(NewFloat(3.5), NewInt(3))
	if !ok || c != 1 {
		t.Errorf("3.5 vs 3: got (%d,%v)", c, ok)
	}
	// Exact at any magnitude, as the real numbers both denote; NaN is above
	// every number.
	ints := []int64{0, 1, -1, 1<<53 - 1, 1 << 53, 1<<53 + 1, -(1<<53 + 1), math.MaxInt64, math.MinInt64}
	floats := []float64{0, 0.5, -0.5, 1 << 53, 1<<53 + 2, -(1 << 53), 1 << 62, 1 << 63, -(1 << 63), 1e300,
		math.Inf(1), math.Inf(-1), math.NaN()}
	for _, i := range ints {
		for _, f := range floats {
			want := -1
			if f == f {
				want = new(big.Float).SetInt64(i).Cmp(new(big.Float).SetFloat64(f))
			}
			if c, _ := Compare(NewInt(i), NewFloat(f)); c != want {
				t.Errorf("%d vs %v: got %d, want %d", i, f, c, want)
			}
			if c, _ := Compare(NewFloat(f), NewInt(i)); c != -want {
				t.Errorf("%v vs %d: got %d, want %d", f, i, c, -want)
			}
		}
	}
}

func TestCompareNullNotOK(t *testing.T) {
	if _, ok := Compare(NewNull(), NewInt(1)); ok {
		t.Error("NULL comparison must not be ok")
	}
	if Equal(NewNull(), NewNull()) {
		t.Error("NULL = NULL must be false under Equal")
	}
	if !Identical(NewNull(), NewNull()) {
		t.Error("NULL must be Identical to NULL")
	}
}

func TestCompareStrings(t *testing.T) {
	c, ok := Compare(NewStr("a"), NewStr("b"))
	if !ok || c != -1 {
		t.Errorf("'a' vs 'b': got (%d,%v)", c, ok)
	}
}

func TestCompareBools(t *testing.T) {
	c, ok := Compare(NewBool(false), NewBool(true))
	if !ok || c != -1 {
		t.Errorf("false vs true: (%d,%v)", c, ok)
	}
}

func TestCompareCrossKindTotalOrder(t *testing.T) {
	// Cross-kind comparison must be antisymmetric to give sorting a total order.
	a, b := NewInt(5), NewStr("5")
	c1, ok1 := Compare(a, b)
	c2, ok2 := Compare(b, a)
	if !ok1 || !ok2 || c1 != -c2 || c1 == 0 {
		t.Errorf("cross-kind order broken: %d %d", c1, c2)
	}
}

func TestTruth(t *testing.T) {
	cases := []struct {
		v    Value
		want bool
	}{
		{NewBool(true), true}, {NewBool(false), false},
		{NewInt(1), true}, {NewInt(0), false},
		{NewFloat(0.1), true}, {NewFloat(0), false},
		{NewNull(), false}, {NewStr("x"), false},
	}
	for _, c := range cases {
		if got := c.v.Truth(); got != c.want {
			t.Errorf("Truth(%s) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestStringLiterals(t *testing.T) {
	if got := NewStr("it's").String(); got != "'it''s'" {
		t.Errorf("escaping: %q", got)
	}
	if got := NewInt(-7).String(); got != "-7" {
		t.Errorf("int: %q", got)
	}
	if got := NewNull().String(); got != "NULL" {
		t.Errorf("null: %q", got)
	}
	if got := NewBool(true).String(); got != "TRUE" {
		t.Errorf("bool: %q", got)
	}
}

func TestArithIntFloat(t *testing.T) {
	v, err := Arith("+", NewInt(2), NewInt(3))
	if err != nil || v.I != 5 || v.K != Int {
		t.Errorf("2+3: %v %v", v, err)
	}
	v, err = Arith("*", NewInt(2), NewFloat(2.5))
	if err != nil || v.K != Float || v.F != 5.0 {
		t.Errorf("2*2.5: %v %v", v, err)
	}
	v, err = Arith("/", NewInt(7), NewInt(2))
	if err != nil || v.I != 3 {
		t.Errorf("7/2: %v %v", v, err)
	}
	v, err = Arith("/", NewInt(7), NewInt(0))
	if err != nil || !v.IsNull() {
		t.Errorf("7/0 must be NULL: %v %v", v, err)
	}
	v, err = Arith("%", NewInt(7), NewInt(4))
	if err != nil || v.I != 3 {
		t.Errorf("7%%4: %v %v", v, err)
	}
	v, err = Arith("-", NewFloat(1.5), NewFloat(0.5))
	if err != nil || v.F != 1.0 {
		t.Errorf("1.5-0.5: %v %v", v, err)
	}
	v, err = Arith("/", NewFloat(1), NewFloat(0))
	if err != nil || !v.IsNull() {
		t.Errorf("1.0/0.0 must be NULL: %v %v", v, err)
	}
}

func TestArithNullPropagation(t *testing.T) {
	v, err := Arith("+", NewNull(), NewInt(1))
	if err != nil || !v.IsNull() {
		t.Errorf("NULL+1: %v %v", v, err)
	}
}

func TestArithStringConcat(t *testing.T) {
	v, err := Arith("+", NewStr("a"), NewStr("b"))
	if err != nil || v.S != "ab" {
		t.Errorf("'a'+'b': %v %v", v, err)
	}
	if _, err := Arith("-", NewStr("a"), NewStr("b")); err == nil {
		t.Error("'a'-'b' must error")
	}
	if _, err := Arith("+", NewBool(true), NewInt(1)); err == nil {
		t.Error("bool arithmetic must error")
	}
}

// Integer arithmetic whose result int64 cannot hold gives the DOUBLE
// computed from the operands (SQLite's rule) instead of wrapping, and so does
// unary minus; a result that fits stays an integer.
func TestIntOverflowIsDouble(t *testing.T) {
	const maxI, minI = math.MaxInt64, math.MinInt64
	two63 := NewFloat(1 << 63)
	cases := []struct {
		op   string
		a, b int64
		want Value
	}{
		{"+", maxI, 1, two63},
		{"+", minI, -1, NewFloat(-(1 << 63))},
		{"+", maxI, minI, NewInt(-1)},
		{"-", minI, 1, NewFloat(-(1 << 63))},
		{"-", 0, minI, two63},
		{"-", -1, maxI, NewInt(minI)},
		{"*", maxI, 2, NewFloat(2 * (1 << 63))},
		{"*", minI, -1, two63},
		{"*", -1, minI, two63},
		{"*", 3037000499, 3037000499, NewInt(9223372030926249001)},
		{"*", 3037000500, 3037000500, NewFloat(3037000500.0 * 3037000500.0)},
		{"/", minI, -1, two63},
		{"/", minI, 1, NewInt(minI)},
		{"%", minI, -1, NewInt(0)},
	}
	for _, c := range cases {
		got, err := Arith(c.op, NewInt(c.a), NewInt(c.b))
		if err != nil || got != c.want {
			t.Errorf("%d %s %d = %s %v (%v), want %s %v", c.a, c.op, c.b, got.K, got, err, c.want.K, c.want)
		}
	}
	for _, c := range []struct{ in, want Value }{
		{NewInt(minI), two63},
		{NewInt(maxI), NewInt(-maxI)},
		{NewFloat(1.5), NewFloat(-1.5)},
		{NewNull(), NewNull()},
	} {
		if got, err := Neg(c.in); err != nil || got != c.want {
			t.Errorf("-(%s %v) = %s %v (%v), want %s %v", c.in.K, c.in, got.K, got, err, c.want.K, c.want)
		}
	}
	if _, err := Neg(NewStr("x")); err == nil {
		t.Error("negating a string must error")
	}
}

// Property: over any two int64s, +, - and * give the exact result when it
// fits in int64 and the DOUBLE of the operands' float arithmetic otherwise.
func TestQuickIntArithExactOrDouble(t *testing.T) {
	ops := map[string]func(x, y *big.Int) *big.Int{
		"+": new(big.Int).Add, "-": new(big.Int).Sub, "*": new(big.Int).Mul,
	}
	floats := map[string]func(x, y float64) float64{
		"+": func(x, y float64) float64 { return x + y },
		"-": func(x, y float64) float64 { return x - y },
		"*": func(x, y float64) float64 { return x * y },
	}
	f := func(a, b int64) bool {
		for op, exact := range ops {
			got, err := Arith(op, NewInt(a), NewInt(b))
			want := exact(big.NewInt(a), big.NewInt(b))
			if err != nil {
				return false
			}
			if want.IsInt64() {
				if got != NewInt(want.Int64()) {
					return false
				}
			} else if got != NewFloat(floats[op](float64(a), float64(b))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashIdenticalValuesHashEqual(t *testing.T) {
	if Hash(NewInt(1)) != Hash(NewFloat(1.0)) {
		t.Error("1 and 1.0 must hash equal (they compare equal)")
	}
	if Hash(NewStr("a")) == Hash(NewStr("b")) {
		t.Error("suspicious collision 'a'/'b'")
	}
}

func TestRowCloneIndependent(t *testing.T) {
	r := Row{NewInt(1), NewStr("x")}
	c := r.Clone()
	c[0] = NewInt(9)
	if r[0].I != 1 {
		t.Error("Clone must not alias")
	}
}

func TestHashRowAndKey(t *testing.T) {
	a := Row{NewInt(1), NewStr("x"), NewFloat(1)}
	b := Row{NewFloat(1.0), NewStr("x"), NewInt(1)}
	if HashRow(a) != HashRow(b) {
		t.Error("rows equal on cols must hash equal")
	}
	if Key(a, []int{0}) != Key(b, []int{0}) {
		t.Error("Key must canonicalize integral floats")
	}
	if Key(a, []int{1}) == Key(a, []int{0}) {
		t.Error("keys of different cols should differ")
	}
}

// Property: Compare is antisymmetric and Equal agrees with Compare==0 on
// random int/float pairs.
func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := NewInt(a), NewInt(b)
		c1, _ := Compare(x, y)
		c2, _ := Compare(y, x)
		return c1 == -c2 && (Equal(x, y) == (c1 == 0))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Identical values hash identically for random strings.
func TestQuickHashConsistency(t *testing.T) {
	f := func(s string) bool {
		return Hash(NewStr(s)) == Hash(NewStr(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: integer arithmetic matches Go semantics for +,-,*.
func TestQuickIntArith(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := NewInt(int64(a)), NewInt(int64(b))
		plus, _ := Arith("+", x, y)
		minus, _ := Arith("-", x, y)
		times, _ := Arith("*", x, y)
		return plus.I == int64(a)+int64(b) && minus.I == int64(a)-int64(b) && times.I == int64(a)*int64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloatSpecials(t *testing.T) {
	inf := NewFloat(math.Inf(1))
	c, ok := Compare(inf, NewFloat(1e308))
	if !ok || c != 1 {
		t.Errorf("+inf compare: (%d,%v)", c, ok)
	}
}

func TestAsIntAsFloat(t *testing.T) {
	if NewFloat(2.9).AsInt() != 2 {
		t.Error("AsInt truncates")
	}
	if NewInt(3).AsFloat() != 3.0 {
		t.Error("AsFloat of int")
	}
	if NewStr("x").AsFloat() != 0 || NewStr("x").AsInt() != 0 {
		t.Error("non-numeric conversions yield 0")
	}
}
