package expr_test

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"qtrade/internal/expr"
	"qtrade/internal/sqlparse"
	"qtrade/internal/value"
)

// FuzzCompileMatchesEval: a compiled program is the tree-walking Eval, made
// fast. The input decodes to a row and an expression tree over every node
// kind — columns that resolve, are ambiguous, are unknown or lie past the
// row's end; literals of every kind with NULL, NaN, -0.0, ±2^63, 2^53+1 and
// the int64 extremes among them; every operator, unknown ones included;
// IN lists with NULL and non-literal items, BETWEEN, IS NULL and aggregate
// calls. Compile must fail exactly when Bind does, with its error text, and
// leave the tree as it found it; the program and Eval on the bound tree must
// then return the same value (floats compared bit for bit) and the same
// error, and Holds must agree with EvalBool.
func FuzzCompileMatchesEval(f *testing.F) {
	for _, src := range seedExprs {
		e := sqlparse.MustParseExpr(src)
		for _, row := range seedRows {
			f.Add(encodeSeed(row, e))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &decoder{data: data}
		row := d.row()
		e := d.expr(0)
		text := e.String()
		prog, cerr := expr.Compile(e, fuzzSchema)
		if got := e.String(); got != text {
			t.Fatalf("Compile rewrote %s as %s", text, got)
		}
		for _, c := range expr.Columns(e) {
			if c.Index != -1 {
				t.Fatalf("Compile bound %s of %s in place", c, text)
			}
		}
		bound, berr := expr.Bind(e, fuzzSchema)
		if errText(cerr) != errText(berr) {
			t.Fatalf("%s: Compile fails with %q, Bind with %q", text, errText(cerr), errText(berr))
		}
		if berr != nil {
			return
		}
		want, werr := expr.Eval(bound, row)
		got, gerr := prog.Eval(row)
		if errText(gerr) != errText(werr) || !sameValue(got, want) {
			t.Fatalf("%s over %v: the program gives %s %v (%v), Eval %s %v (%v)", text, row, got.K, got, gerr, want.K, want, werr)
		}
		wantOK, werr := expr.EvalBool(bound, row)
		gotOK, gerr := prog.Holds(row)
		if gotOK != wantOK || errText(gerr) != errText(werr) {
			t.Fatalf("%s over %v: Holds gives %v (%v), EvalBool %v (%v)", text, row, gotOK, gerr, wantOK, werr)
		}
	})
}

// seedExprs are the predicates and expressions the executor's operator
// corpora evaluate: exec's operatorCases() and streamingPlans().
var seedExprs = []string{
	"l.k = r.k", "l.k >= 500", "g.k + 1", "g.f", "g.k",
	"r1.pk < 10000 AND r1.pk >= 0 AND r1.pk >= 500",
	"c.custid > 2", "c.custid * 10", "c.office", "c.custid = i.custid", "c.custid < d.custid",
	"i.charge", "c.custname", "i.charge > 6", "i.charge * 2", "i.charge < 50", "i.charge + j.charge",
	"i.linenum = j.linenum AND i.invid < j.invid",
	"c.custid / (c.custid - 3) = i.custid / (i.custid - 3)",
	"c.custid < d.custid AND d.office <> 'Athens'",
}

// seedRows are full-width rows, one of them with NULL, NaN and an extreme
// integer, and a short one whose last columns are out of range.
var seedRows = []value.Row{
	{value.NewInt(600), value.NewInt(3), value.NewStr("Athens"), value.NewFloat(7.5), value.NewInt(500)},
	{value.NewNull(), value.NewInt(math.MinInt64), value.NewFloat(math.NaN()), value.NewInt(3), value.NewStr("")},
	{value.NewInt(3), value.NewFloat(6)},
}

// fuzzSchema is the schema every decoded tree compiles against: "a" is in it
// twice, under t and u.
var fuzzSchema = []expr.ColumnID{
	{Table: "t", Name: "a"}, {Table: "t", Name: "b"}, {Table: "u", Name: "a"}, {Table: "u", Name: "c"}, {Table: "t", Name: "s"},
}

// fuzzColumns are the references a decoded column draws from: each schema
// column qualified (the first five, which seeds map their columns onto),
// then bare and differently cased names, the ambiguous bare "a", and two
// that name nothing.
var fuzzColumns = [][2]string{
	{"t", "a"}, {"t", "b"}, {"u", "a"}, {"u", "c"}, {"t", "s"},
	{"", "b"}, {"", "C"}, {"T", "S"}, {"", "a"}, {"t", "c"}, {"", "zz"},
}

var (
	fuzzBinaryOps = []string{"+", "-", "*", "/", "%", "=", "<>", "<", "<=", ">", ">=", "AND", "OR", "^"}
	fuzzUnaryOps  = []string{"NOT", "-", "~"}
	fuzzAggFns    = []string{"SUM", "COUNT", "MIN"}
)

// fuzzValues are the values a decoder picks by number; the three numbers
// after them read an arbitrary int64, an arbitrary float64 and a short
// string from the input.
var fuzzValues = []value.Value{
	value.NewNull(), value.NewFloat(math.NaN()), value.NewFloat(math.Copysign(0, -1)),
	value.NewFloat(1 << 63), value.NewFloat(-(1 << 63)), value.NewInt(1<<53 + 1), value.NewFloat(1 << 53),
	value.NewInt(math.MaxInt64), value.NewInt(math.MinInt64), value.NewInt(0), value.NewInt(1), value.NewInt(-1),
	value.NewFloat(0.5), value.NewStr(""), value.NewStr("it's"), value.NewBool(true), value.NewBool(false),
}

const (
	valInt   = iota + 17 // len(fuzzValues)
	valFloat             // the float64 with the next eight bytes' bits
	valStr               // a string of up to 15 bytes
	valKinds
)

const (
	kColumn = iota
	kLit
	kBinary
	kUnary
	kIn
	kBetween
	kIsNull
	kAgg
	kinds
)

// maxDepth bounds a decoded tree: below it every node is a column or a
// literal.
const maxDepth = 6

type decoder struct{ data []byte }

func (d *decoder) byte() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

func (d *decoder) pick(n int) int { return int(d.byte()) % n }

func (d *decoder) value() value.Value {
	switch k := d.pick(valKinds); k {
	case valInt, valFloat:
		var b [8]byte
		for i := range b {
			b[i] = d.byte()
		}
		u := binary.LittleEndian.Uint64(b[:])
		if k == valInt {
			return value.NewInt(int64(u))
		}
		return value.NewFloat(math.Float64frombits(u))
	case valStr:
		s := make([]byte, d.pick(16))
		for i := range s {
			s[i] = d.byte()
		}
		return value.NewStr(string(s))
	default:
		return fuzzValues[k]
	}
}

func (d *decoder) row() value.Row {
	row := make(value.Row, d.pick(len(fuzzSchema)+1))
	for i := range row {
		row[i] = d.value()
	}
	return row
}

func (d *decoder) expr(depth int) expr.Expr {
	kind := d.pick(kinds)
	if depth >= maxDepth {
		kind %= 2
	}
	switch kind {
	case kColumn:
		c := fuzzColumns[d.pick(len(fuzzColumns))]
		return expr.NewColumn(c[0], c[1])
	case kLit:
		return expr.NewLit(d.value())
	case kBinary:
		op := fuzzBinaryOps[d.pick(len(fuzzBinaryOps))]
		l := d.expr(depth + 1)
		return &expr.Binary{Op: op, L: l, R: d.expr(depth + 1)}
	case kUnary:
		op := fuzzUnaryOps[d.pick(len(fuzzUnaryOps))]
		return &expr.Unary{Op: op, X: d.expr(depth + 1)}
	case kIn:
		in := &expr.In{X: d.expr(depth + 1)}
		for n := d.pick(5); n > 0; n-- {
			in.List = append(in.List, d.expr(depth+1))
		}
		in.Not = d.byte()&1 == 1
		return in
	case kBetween:
		b := &expr.Between{X: d.expr(depth + 1)}
		b.Lo = d.expr(depth + 1)
		b.Hi = d.expr(depth + 1)
		b.Not = d.byte()&1 == 1
		return b
	case kIsNull:
		n := &expr.IsNull{X: d.expr(depth + 1)}
		n.Not = d.byte()&1 == 1
		return n
	}
	a := &expr.Agg{Fn: fuzzAggFns[d.pick(len(fuzzAggFns))]}
	if a.Star = d.byte()&1 == 1; !a.Star {
		a.Arg = d.expr(depth + 1)
	}
	return a
}

// encodeSeed writes what the decoder reads back as row and e, with e's
// columns mapped onto the schema's qualified columns in order of first
// appearance.
func encodeSeed(row value.Row, e expr.Expr) []byte {
	enc := &encoder{cols: map[string]int{}}
	enc.buf = append(enc.buf, byte(len(row)))
	for _, v := range row {
		enc.value(v)
	}
	enc.expr(e)
	return enc.buf
}

type encoder struct {
	buf  []byte
	cols map[string]int
}

func (e *encoder) value(v value.Value) {
	switch v.K {
	case value.Int:
		e.buf = binary.LittleEndian.AppendUint64(append(e.buf, valInt), uint64(v.I))
	case value.Float:
		e.buf = binary.LittleEndian.AppendUint64(append(e.buf, valFloat), math.Float64bits(v.F))
	case value.Str:
		e.buf = append(append(e.buf, valStr, byte(len(v.S))), v.S...)
	case value.Bool:
		e.buf = append(e.buf, byte(indexOf(fuzzValues, v)))
	default:
		e.buf = append(e.buf, 0)
	}
}

func (e *encoder) expr(x expr.Expr) {
	switch t := x.(type) {
	case *expr.Column:
		key := strings.ToLower(t.Table + "." + t.Name)
		i, ok := e.cols[key]
		if !ok {
			i = len(e.cols)
			e.cols[key] = i
		}
		e.buf = append(e.buf, kColumn, byte(i))
	case *expr.Lit:
		e.buf = append(e.buf, kLit)
		e.value(t.V)
	case *expr.Binary:
		e.buf = append(e.buf, kBinary, byte(indexOf(fuzzBinaryOps, t.Op)))
		e.expr(t.L)
		e.expr(t.R)
	case *expr.Unary:
		e.buf = append(e.buf, kUnary, byte(indexOf(fuzzUnaryOps, t.Op)))
		e.expr(t.X)
	case *expr.In:
		e.buf = append(e.buf, kIn)
		e.expr(t.X)
		e.buf = append(e.buf, byte(len(t.List)))
		for _, item := range t.List {
			e.expr(item)
		}
		e.buf = append(e.buf, flag(t.Not))
	case *expr.Between:
		e.buf = append(e.buf, kBetween)
		e.expr(t.X)
		e.expr(t.Lo)
		e.expr(t.Hi)
		e.buf = append(e.buf, flag(t.Not))
	case *expr.IsNull:
		e.buf = append(e.buf, kIsNull)
		e.expr(t.X)
		e.buf = append(e.buf, flag(t.Not))
	default:
		panic("expr_test: no encoding for " + x.String())
	}
}

func flag(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func indexOf[T comparable](list []T, x T) int {
	for i, y := range list {
		if y == x {
			return i
		}
	}
	panic("expr_test: not in the list")
}

func sameValue(a, b value.Value) bool {
	return a.K == b.K && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S && a.B == b.B
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
