package value

import (
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// fnvHash is Hash as it was built on hash/fnv before it was inlined: the
// same kind tags over the same bytes, so every stored or compared hash keeps
// its value.
func fnvHash(v Value) uint64 {
	h := fnv.New64a()
	switch v.K {
	case Null:
		h.Write([]byte{0})
	case Int:
		fnvWriteUint64(h, uint64(v.I))
	case Float:
		if v.F == math.Trunc(v.F) && v.F >= math.MinInt64 && v.F < 1<<63 {
			fnvWriteUint64(h, uint64(int64(v.F)))
		} else {
			fnvWriteUint64(h, math.Float64bits(v.F))
		}
	case Str:
		h.Write([]byte{2})
		h.Write([]byte(v.S))
	case Bool:
		if v.B {
			h.Write([]byte{3, 1})
		} else {
			h.Write([]byte{3, 0})
		}
	}
	return h.Sum64()
}

func fnvWriteUint64(h hash.Hash64, u uint64) {
	buf := [9]byte{1}
	for i := 0; i < 8; i++ {
		buf[i+1] = byte(u >> (8 * i))
	}
	h.Write(buf[:])
}

func fnvHashRow(r Row) uint64 {
	h := fnv.New64a()
	for _, v := range r {
		fnvWriteUint64(h, fnvHash(v))
	}
	return h.Sum64()
}

// keyValues are the values grouping has to get right: every kind, both
// signs, 1 against 1.0, the 2^53 neighbourhood where float64 stops holding
// every integer, the 2^63 boundary of int64, and the float specials.
var keyValues = []Value{
	NewNull(),
	NewInt(0), NewInt(1), NewInt(-1), NewInt(42), NewInt(math.MaxInt64), NewInt(math.MinInt64),
	NewInt(1<<53 - 1), NewInt(1 << 53), NewInt(1<<53 + 1),
	NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(1), NewFloat(-1), NewFloat(42),
	NewFloat(1<<53 - 1), NewFloat(1 << 53), NewFloat(1<<53 + 2),
	NewFloat(1 << 63), NewFloat(-(1 << 63)), NewFloat(1 << 62), NewFloat(1e300),
	NewFloat(0.5), NewFloat(-2.75), NewFloat(math.Pi),
	NewFloat(math.NaN()), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)),
	NewStr(""), NewStr("a"), NewStr("ab"), NewStr("héllo, κόσμε"), NewStr("1"),
	NewBool(true), NewBool(false),
}

func TestHashMatchesFNV(t *testing.T) {
	for _, v := range keyValues {
		if got, want := Hash(v), fnvHash(v); got != want {
			t.Errorf("Hash(%s) = %#x, hash/fnv construction gives %#x", v, got, want)
		}
	}
	rows := []Row{nil, {}, keyValues, keyValues[:1], {NewInt(1), NewStr("x")}, {NewStr("x"), NewInt(1)}}
	for _, r := range rows {
		if got, want := HashRow(r), fnvHashRow(r); got != want {
			t.Errorf("HashRow(%v) = %#x, hash/fnv construction gives %#x", r, got, want)
		}
	}
	if n := testing.AllocsPerRun(10, func() { HashRow(keyValues) }); n != 0 {
		t.Errorf("HashRow allocates %.0f times, want 0", n)
	}
}

// NaN is one group whatever its payload (Key renders them all "NaN"), so
// every NaN hashes like the canonical one.
func TestHashNaNPayloads(t *testing.T) {
	other := NewFloat(math.Float64frombits(0xfff8000000000000)) // what Inf - Inf yields on amd64
	if other.F == other.F {
		t.Fatal("not a NaN")
	}
	nan := NewFloat(math.NaN())
	if Hash(other) != Hash(nan) || !SameKey(Row{other}, Row{nan}) || Key(Row{other}, []int{0}) != Key(Row{nan}, []int{0}) {
		t.Error("NaNs with different payloads must hash and group together")
	}
}

// Regression: the integral-float bound was v.F <= math.MaxInt64, which as a
// float64 is 2^63, and int64(2^63) wraps to -2^63.
func TestInt64BoundaryFloatsAreDistinctKeys(t *testing.T) {
	hi, lo := Row{NewFloat(1 << 63)}, Row{NewFloat(-(1 << 63))}
	if Key(hi, []int{0}) == Key(lo, []int{0}) || SameKey(hi, lo) || Hash(hi[0]) == Hash(lo[0]) {
		t.Error("2^63 and -2^63 must not share a key or a hash")
	}
	if minInt := (Row{NewInt(math.MinInt64)}); !SameKey(lo, minInt) || Key(lo, []int{0}) != Key(minInt, []int{0}) {
		t.Error("-2^63 fits int64 and must group with the integer")
	}
}

// Property: SameKey is the equivalence Key's strings induce, and rows it
// groups hash equally.
func TestSameKeyAgreesWithKey(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	randRow := func(n int) Row {
		row := make(Row, n)
		for i := range row {
			switch r.Intn(4) {
			case 0:
				row[i] = NewInt(int64(r.Intn(5) - 2))
			case 1:
				row[i] = NewFloat(float64(r.Intn(9)-4) / 2)
			default:
				row[i] = keyValues[r.Intn(len(keyValues))]
			}
		}
		return row
	}
	equal := 0
	for trial := 0; trial < 20000; trial++ {
		n := 1 + r.Intn(3)
		a, b := randRow(n), randRow(n)
		if r.Intn(4) == 0 {
			copy(b, a[:r.Intn(n+1)]) // share a prefix, so multi-column rows agree often enough
		}
		cols := []int{0, 1, 2}[:n]
		want := Key(a, cols) == Key(b, cols)
		if got := SameKey(a, b); got != want {
			t.Fatalf("SameKey(%v, %v) = %v, Key equality = %v", a, b, got, want)
		}
		if want {
			equal++
			if HashRow(a) != HashRow(b) {
				t.Fatalf("%v and %v share a key but not a hash", a, b)
			}
		}
	}
	if equal < 500 {
		t.Fatalf("only %d equal pairs in 20000: the property was barely exercised", equal)
	}
	if SameKey(Row{NewInt(1)}, Row{NewInt(1), NewInt(1)}) {
		t.Error("rows of different widths are different keys")
	}
}
