package value

import (
	"encoding/binary"
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
	equal := 0
	for trial := 0; trial < 20000; trial++ {
		a, b := randKeyRows(r)
		if keyAgreement(t, a, b) {
			equal++
		}
	}
	if equal < 500 {
		t.Fatalf("only %d equal pairs in 20000: the property was barely exercised", equal)
	}
	if SameKey(Row{NewInt(1)}, Row{NewInt(1), NewInt(1)}) {
		t.Error("rows of different widths are different keys")
	}
}

// randKeyRows draws two rows of one width from small integers, halves and
// keyValues; a quarter of the pairs share a prefix, so multi-column rows
// agree often enough.
func randKeyRows(r *rand.Rand) (a, b Row) {
	n := 1 + r.Intn(3)
	randRow := func() Row {
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
	a, b = randRow(), randRow()
	if r.Intn(4) == 0 {
		copy(b, a[:r.Intn(n+1)])
	}
	return a, b
}

// keyAgreement fails t unless SameKey is Key's equality on a and b, rows it
// groups hash equally, and rows the hash join matches (Equal column by
// column) hash equally and — with no NULL in either — are exactly the rows
// SameKey groups; it reports whether they group.
func keyAgreement(t *testing.T, a, b Row) bool {
	t.Helper()
	cols := make([]int, len(a))
	for i := range cols {
		cols[i] = i
	}
	// Read in place from a wider row, a key hashes as its projected copy: a
	// hash join may hash one side's key columns and the other's evaluated key.
	wide, at := append(append(Row{}, b...), a...), make([]int, len(a))
	for i := range at {
		at[i] = len(b) + i
	}
	if HashRowAt(wide, at) != HashRow(a) {
		t.Fatalf("HashRowAt(%v, %v) differs from HashRow(%v)", wide, at, a)
	}
	same := SameKey(a, b)
	if keyEq := Key(a, cols) == Key(b, cols); same != keyEq {
		t.Fatalf("SameKey(%v, %v) = %v, Key equality = %v", a, b, same, keyEq)
	}
	if same && HashRow(a) != HashRow(b) {
		t.Fatalf("%v and %v share a key but not a hash", a, b)
	}
	equal, nulls := true, false
	for i := range a {
		equal = equal && Equal(a[i], b[i])
		nulls = nulls || a[i].IsNull() || b[i].IsNull()
	}
	if equal && HashRow(a) != HashRow(b) {
		t.Fatalf("%v and %v are Equal but hash apart: the hash join would drop the match", a, b)
	}
	if !nulls && equal != same {
		t.Fatalf("Equal(%v, %v) = %v, SameKey = %v", a, b, equal, same)
	}
	return same
}

// encodeKeyRows writes two rows of one width as decodeKeyRows reads them: a
// width byte, then per value a kind byte and its payload — 8 little-endian
// bytes of an Int or of a Float's bits (so NaN payloads, -0.0 and ±2^63 are
// all spelled directly), a length-prefixed Str, one byte of a Bool.
func encodeKeyRows(a, b Row) []byte {
	out := []byte{byte(len(a) - 1)}
	for _, v := range append(append(Row{}, a...), b...) {
		out = append(out, byte(v.K))
		switch v.K {
		case Int:
			out = binary.LittleEndian.AppendUint64(out, uint64(v.I))
		case Float:
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v.F))
		case Str:
			out = append(append(out, byte(len(v.S))), v.S...)
		case Bool:
			var bit byte
			if v.B {
				bit = 1
			}
			out = append(out, bit)
		}
	}
	return out
}

// decodeKeyRows reads any bytes as two rows of one to three values: a
// missing byte reads as zero and a kind byte is taken modulo the five kinds.
func decodeKeyRows(data []byte) (a, b Row) {
	next := func(n int) []byte {
		buf := make([]byte, n)
		data = data[copy(buf, data):]
		return buf
	}
	n := 1 + int(next(1)[0])%3
	row := func() Row {
		r := make(Row, n)
		for i := range r {
			switch Kind(next(1)[0] % 5) {
			case Int:
				r[i] = NewInt(int64(binary.LittleEndian.Uint64(next(8))))
			case Float:
				r[i] = NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(next(8))))
			case Str:
				r[i] = NewStr(string(next(int(next(1)[0]))))
			case Bool:
				r[i] = NewBool(next(1)[0]&1 == 1)
			}
		}
		return r
	}
	return row(), row()
}

// FuzzKeyAgreement: the aggregate and DISTINCT cursors group by HashRow then
// SameKey, with no second implementation beside them, so SameKey must be the
// equivalence Key's strings induce and rows it groups must hash equally — for
// every kind, every float bit pattern and NULL. The hash join buckets by
// HashRow and matches by Equal, so Equal rows must hash equally too, and on
// non-NULL values Equal must be SameKey.
func FuzzKeyAgreement(f *testing.F) {
	r := rand.New(rand.NewSource(18))
	for i := 0; i < 64; i++ {
		f.Add(encodeKeyRows(randKeyRows(r)))
	}
	nan := NewFloat(math.Float64frombits(0xfff8000000000001))
	for _, pair := range [][2]Row{
		{{NewFloat(1 << 63)}, {NewFloat(-(1 << 63))}},
		{{NewFloat(-(1 << 63))}, {NewInt(math.MinInt64)}},
		{{nan, NewNull()}, {NewFloat(math.NaN()), NewNull()}},
		{{NewFloat(math.Copysign(0, -1))}, {NewInt(0)}},
		{{NewStr(""), NewBool(true)}, {NewNull(), NewBool(true)}},
		{{NewInt(1<<53 + 1)}, {NewFloat(1 << 53)}},
		{{NewFloat(math.NaN())}, {NewFloat(1)}},
	} {
		f.Add(encodeKeyRows(pair[0], pair[1]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := decodeKeyRows(data)
		keyAgreement(t, a, b)
	})
}
