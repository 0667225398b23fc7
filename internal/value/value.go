// Package value implements the typed value model used throughout the query
// trading engine: SQL-style scalar values with NULL, comparison, hashing and
// arithmetic. Rows are flat slices of values.
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime types a Value can hold.
type Kind uint8

// The supported value kinds. Null is the zero Kind so that the zero Value is
// SQL NULL.
const (
	Null Kind = iota
	Int
	Float
	Str
	Bool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case Null:
		return "NULL"
	case Int:
		return "INTEGER"
	case Float:
		return "DOUBLE"
	case Str:
		return "VARCHAR"
	case Bool:
		return "BOOLEAN"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a single SQL scalar. The zero value is NULL. The one-byte fields
// come last, so they share one word and a Value is 40 bytes; every row slab
// the executor carves is made of them.
type Value struct {
	I int64
	F float64
	S string
	K Kind
	B bool
}

// NewNull returns the SQL NULL value.
func NewNull() Value { return Value{} }

// NewInt returns an integer value.
func NewInt(i int64) Value { return Value{K: Int, I: i} }

// NewFloat returns a double-precision value.
func NewFloat(f float64) Value { return Value{K: Float, F: f} }

// NewStr returns a string value.
func NewStr(s string) Value { return Value{K: Str, S: s} }

// NewBool returns a boolean value.
func NewBool(b bool) Value { return Value{K: Bool, B: b} }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.K == Null }

// AsFloat converts numeric values to float64. Non-numeric values yield 0.
func (v Value) AsFloat() float64 {
	switch v.K {
	case Int:
		return float64(v.I)
	case Float:
		return v.F
	}
	return 0
}

// AsInt converts numeric values to int64 (floats truncate). Non-numeric
// values yield 0.
func (v Value) AsInt() int64 {
	switch v.K {
	case Int:
		return v.I
	case Float:
		return int64(v.F)
	}
	return 0
}

// Truth reports whether v counts as true in a WHERE clause. NULL is not true.
func (v Value) Truth() bool {
	switch v.K {
	case Bool:
		return v.B
	case Int:
		return v.I != 0
	case Float:
		return v.F != 0
	}
	return false
}

// String renders the value as a SQL literal.
func (v Value) String() string {
	switch v.K {
	case Null:
		return "NULL"
	case Int:
		return strconv.FormatInt(v.I, 10)
	case Float:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case Str:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case Bool:
		if v.B {
			return "TRUE"
		}
		return "FALSE"
	}
	return "?"
}

// numericKinds reports whether both values are numeric (Int or Float).
func numericKinds(a, b Value) bool {
	return (a.K == Int || a.K == Float) && (b.K == Int || b.K == Float)
}

// Compare orders two non-NULL values. It returns -1, 0 or +1. Mixed
// Int/Float compare exactly, as the numbers they denote (SQLite's rule: 2^53+1
// is above the float 2^53 it rounds to); NaN equals only NaN and orders above
// every other number (PostgreSQL's rule). So Equal is transitive and agrees
// with SameKey on non-NULL values, which the hash join relies on: it buckets
// by HashRow and matches by Equal. Values of other different kinds order by
// kind (a stable, arbitrary cross-type order so sorting is total). Comparing
// anything with NULL returns 0 with ok=false.
func Compare(a, b Value) (cmp int, ok bool) {
	if a.K == Null || b.K == Null {
		return 0, false
	}
	if numericKinds(a, b) && a.K != b.K {
		if a.K == Int {
			return cmpIntFloat(a.I, b.F), true
		}
		return -cmpIntFloat(b.I, a.F), true
	}
	if a.K != b.K {
		return cmpInt(int64(a.K), int64(b.K)), true
	}
	switch a.K {
	case Int:
		return cmpInt(a.I, b.I), true
	case Float:
		return cmpFloat(a.F, b.F), true
	case Str:
		return strings.Compare(a.S, b.S), true
	case Bool:
		x, y := 0, 0
		if a.B {
			x = 1
		}
		if b.B {
			y = 1
		}
		return cmpInt(int64(x), int64(y)), true
	}
	return 0, false
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	case a != a && b != b:
		return 0
	case a != a:
		return 1
	}
	return -1
}

// cmpIntFloat compares i with f exactly. float64 holds every integer up to
// 2^53, so a smaller i converts without rounding; past it, an f in int64
// range is integral or too small to reach i, and its truncation decides.
func cmpIntFloat(i int64, f float64) int {
	switch {
	case -1<<53 <= i && i <= 1<<53:
		return cmpFloat(float64(i), f)
	case f != f || f >= 1<<63:
		return -1
	case f < -1<<63:
		return 1
	}
	return cmpInt(i, int64(f))
}

// Equal reports SQL equality of two values; NULL equals nothing (not even
// NULL).
func Equal(a, b Value) bool {
	if a.K == Int && b.K == Int {
		return a.I == b.I // the usual join key, decided before Compare's kind tests
	}
	c, ok := Compare(a, b)
	return ok && c == 0
}

// Identical reports structural equality, treating NULL as identical to NULL.
// Used by grouping and DISTINCT, which follow SQL's "nulls group together".
func Identical(a, b Value) bool {
	if a.K == Null && b.K == Null {
		return true
	}
	c, ok := Compare(a, b)
	return ok && c == 0
}

// FNV-1a, 64 bit.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// integral reports the integer v groups and hashes as: an Int's value, or a
// Float's when it is integral and in int64 range, so 1 and 1.0 fall together.
// The range ends below 2^63: float64(math.MaxInt64) rounds up to 2^63, which
// int64 cannot hold.
func integral(v Value) (int64, bool) {
	switch v.K {
	case Int:
		return v.I, true
	case Float:
		if v.F == math.Trunc(v.F) && v.F >= math.MinInt64 && v.F < 1<<63 {
			return int64(v.F), true
		}
	}
	return 0, false
}

// Hash returns a hash of v such that Identical values, and values SameKey
// groups together, hash equally. It is FNV-1a over a kind tag and the value's
// bytes, folded inline: hashing allocates nothing.
func Hash(v Value) uint64 {
	h := uint64(fnvOffset64)
	switch v.K {
	case Null:
		h = (h ^ 0) * fnvPrime64
	case Int, Float:
		if i, ok := integral(v); ok {
			h = fnvUint64(h, uint64(i))
		} else if v.F != v.F {
			h = fnvUint64(h, math.Float64bits(math.NaN())) // every NaN payload is one key
		} else {
			h = fnvUint64(h, math.Float64bits(v.F))
		}
	case Str:
		h = (h ^ 2) * fnvPrime64
		for i := 0; i < len(v.S); i++ {
			h = (h ^ uint64(v.S[i])) * fnvPrime64
		}
	case Bool:
		h = (h ^ 3) * fnvPrime64
		if v.B {
			h ^= 1
		}
		h *= fnvPrime64
	}
	return h
}

// fnvUint64 folds the tag byte 1 and u's eight bytes, low byte first, into h.
func fnvUint64(h, u uint64) uint64 {
	h = (h ^ 1) * fnvPrime64
	for i := 0; i < 8; i++ {
		h = (h ^ (u & 0xff)) * fnvPrime64
		u >>= 8
	}
	return h
}

// Arith applies the arithmetic operator op ("+", "-", "*", "/", "%") to two
// values. NULL operands yield NULL. Division by zero yields NULL (SQL would
// raise; NULL keeps the engine total and is asserted in tests). For the same
// reason integer arithmetic whose result int64 cannot hold — MinInt64 / -1
// included — yields the DOUBLE computed from the two operands instead of
// wrapping (SQLite's rule).
func Arith(op string, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return NewNull(), nil
	}
	if !numericKinds(a, b) {
		if op == "+" && a.K == Str && b.K == Str {
			return NewStr(a.S + b.S), nil
		}
		return Value{}, fmt.Errorf("value: cannot apply %q to %s and %s", op, a.K, b.K)
	}
	if a.K == Int && b.K == Int {
		x, y := a.I, b.I
		switch op {
		case "+":
			if s := x + y; (x^s)&(y^s) >= 0 {
				return NewInt(s), nil
			}
			return NewFloat(float64(x) + float64(y)), nil
		case "-":
			if d := x - y; (x^y)&(x^d) >= 0 {
				return NewInt(d), nil
			}
			return NewFloat(float64(x) - float64(y)), nil
		case "*":
			if p := x * y; x == 0 || p/x == y && !(x == -1 && y == math.MinInt64) {
				return NewInt(p), nil
			}
			return NewFloat(float64(x) * float64(y)), nil
		case "/":
			if y == 0 {
				return NewNull(), nil
			}
			if x == math.MinInt64 && y == -1 {
				return NewFloat(-float64(x)), nil
			}
			return NewInt(x / y), nil
		case "%":
			if y == 0 {
				return NewNull(), nil
			}
			return NewInt(x % y), nil // MinInt64 % -1 is 0: no overflow
		}
		return Value{}, fmt.Errorf("value: unknown operator %q", op)
	}
	x, y := a.AsFloat(), b.AsFloat()
	switch op {
	case "+":
		return NewFloat(x + y), nil
	case "-":
		return NewFloat(x - y), nil
	case "*":
		return NewFloat(x * y), nil
	case "/":
		if y == 0 {
			return NewNull(), nil
		}
		return NewFloat(x / y), nil
	case "%":
		if y == 0 {
			return NewNull(), nil
		}
		return NewFloat(math.Mod(x, y)), nil
	}
	return Value{}, fmt.Errorf("value: unknown operator %q", op)
}

// Neg is unary minus, by Arith's rules: NULL stays NULL, and -MinInt64, which
// int64 cannot hold, is the DOUBLE 2^63.
func Neg(v Value) (Value, error) {
	switch v.K {
	case Int:
		if v.I == math.MinInt64 {
			return NewFloat(-float64(v.I)), nil
		}
		return NewInt(-v.I), nil
	case Float:
		return NewFloat(-v.F), nil
	case Null:
		return NewNull(), nil
	}
	return Value{}, fmt.Errorf("value: cannot negate %s", v.K)
}

// Row is a tuple of values.
type Row []Value

// Clone returns a deep copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// HashRow hashes every column of r in order: the hash of an already
// projected join or grouping key.
func HashRow(r Row) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range r {
		h = fnvUint64(h, Hash(v))
	}
	return h
}

// HashRowAt is HashRow of the row r's columns cols, read in place: the hash
// of a join key whose every part is a column.
func HashRowAt(r Row, cols []int) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range cols {
		h = fnvUint64(h, Hash(r[c]))
	}
	return h
}

// Key renders a row as a canonical string key on the given columns; used for
// grouping and distinct where hash collisions must be resolved exactly.
func Key(r Row, cols []int) string {
	var sb strings.Builder
	for _, c := range cols {
		v := r[c]
		switch v.K {
		case Null:
			sb.WriteString("\x00N")
		case Int, Float:
			if i, ok := integral(v); ok {
				sb.WriteString("\x00I")
				sb.WriteString(strconv.FormatInt(i, 10))
			} else {
				sb.WriteString("\x00F")
				sb.WriteString(strconv.FormatFloat(v.F, 'g', -1, 64))
			}
		case Str:
			sb.WriteString("\x00S")
			sb.WriteString(v.S)
		case Bool:
			if v.B {
				sb.WriteString("\x00B1")
			} else {
				sb.WriteString("\x00B0")
			}
		}
	}
	return sb.String()
}

// SameKey reports whether a and b fall in one GROUP BY / DISTINCT group: the
// equivalence Key's rendering induces, field by field, without building the
// strings. NULLs group together, an integral float with its integer, NaN
// with NaN; everything else by kind and value.
func SameKey(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameKey(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameKey(a, b Value) bool {
	ai, aInt := integral(a)
	bi, bInt := integral(b)
	if aInt || bInt {
		return aInt && bInt && ai == bi
	}
	if a.K != b.K {
		return false
	}
	switch a.K {
	case Float:
		return a.F == b.F || (a.F != a.F && b.F != b.F)
	case Str:
		return a.S == b.S
	case Bool:
		return a.B == b.B
	}
	return true
}
