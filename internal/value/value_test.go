package value

import (
	"math"
	"testing"
	"testing/quick"
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
