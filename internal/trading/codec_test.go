package trading

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"qtrade/internal/cost"
	"qtrade/internal/value"
)

// bitEqual is reflect.DeepEqual with floats compared bit for bit, so NaN
// payloads and -0.0 count: what the codec must preserve.
func bitEqual(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() || a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if v := b.MapIndex(k); !v.IsValid() || !bitEqual(a.MapIndex(k), v) {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
}

// roundTrip encodes v, decodes it into out, and checks the result against
// want bit for bit; every strict prefix of the message must fail to decode.
func roundTrip(t *testing.T, v gob.GobEncoder, out gob.GobDecoder, want any) {
	t.Helper()
	data, err := v.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != cap(data) {
		t.Fatalf("encoded %d bytes into a %d-byte buffer: the size pass and the writer disagree", len(data), cap(data))
	}
	if err := out.GobDecode(data); err != nil {
		t.Fatalf("decoding a message the codec wrote: %v", err)
	}
	if got := reflect.ValueOf(out).Elem(); !bitEqual(got, reflect.ValueOf(want)) {
		t.Fatalf("round trip:\n got %#v\nwant %#v", got.Interface(), want)
	}
	for _, n := range []int{0, len(data) / 2, len(data) - 1} {
		if err := out.GobDecode(data[:n]); err == nil {
			t.Fatalf("a %d-byte prefix of a %d-byte message decoded", n, len(data))
		}
	}
}

// decodeArbitrary decodes bytes from anywhere: an error or a value, never a
// panic, and never more than a fixed multiple of the message in allocations.
// A message that decodes re-encodes to one that decodes to the same thing.
func decodeArbitrary(t *testing.T, data []byte, fresh func() gob.GobDecoder) {
	t.Helper()
	if alloc := allocBytes(4, func() { _ = fresh().GobDecode(data) }); alloc > 256*uint64(len(data))+4096 {
		t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
	}
	out := fresh()
	if err := out.GobDecode(data); err != nil {
		return
	}
	again, err := out.(gob.GobEncoder).GobEncode()
	if err != nil {
		t.Fatalf("re-encoding a decoded message: %v", err)
	}
	back := fresh()
	if err := back.GobDecode(again); err != nil {
		t.Fatalf("decoding a re-encoded message: %v", err)
	}
	if !bitEqual(reflect.ValueOf(back).Elem(), reflect.ValueOf(out).Elem()) {
		t.Fatalf("decode → encode → decode is not the identity")
	}
}

// allocBytes is testing.AllocsPerRun in bytes: the heap bytes one call of f
// allocates, averaged over runs on one P.
func allocBytes(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return (m1.TotalAlloc - m0.TotalAlloc) / uint64(runs)
}

// rowsFrom builds a batch from a shape — per byte a value whose kind is the
// byte mod 5, a byte with the top bit set starting a new row first (so rows
// are ragged, and may be empty) — over one int, one float's bits and one
// string's suffixes.
func rowsFrom(shape []byte, i int64, x uint64, s string) (in, want Rows) {
	var row value.Row
	for k, b := range shape {
		if b&0x80 != 0 {
			in = append(in, row)
			row = value.Row{} // an empty row is non-nil here; it decodes as nil
		}
		var v value.Value
		switch value.Kind(b & 0x7f % 5) {
		case value.Int:
			v = value.NewInt(i + int64(k))
		case value.Float:
			v = value.NewFloat(math.Float64frombits(x ^ uint64(k)))
		case value.Str:
			v = value.NewStr(s[k%(len(s)+1):])
		case value.Bool:
			v = value.NewBool(k%2 == 0)
		}
		row = append(row, v)
	}
	if len(shape) > 0 {
		in = append(in, row)
	}
	for _, r := range in {
		if len(r) == 0 {
			r = nil
		}
		want = append(want, r)
	}
	return in, want
}

func FuzzRowsCodec(f *testing.F) {
	nan := math.Float64bits(math.NaN())
	for _, seed := range []struct {
		shape []byte
		i     int64
		x     uint64
		s     string
	}{
		{[]byte{0, 1, 2, 3, 4}, 7, math.Float64bits(2.5), "alice"},
		{[]byte{1, 2, 0x81, 2, 0x83, 0x80, 0x80, 4}, math.MinInt64, math.Float64bits(math.Copysign(0, -1)), ""},
		{[]byte{2, 0x82}, 0, math.Float64bits(math.Copysign(0, -1)), ""},
		{[]byte{2, 1, 2, 2}, math.MaxInt64 - 1, math.Float64bits(1 << 63), "\xff\xfe\x00"},
		{[]byte{2, 2, 2}, -1, math.Float64bits(-(1 << 63)), "ok"},
		{[]byte{2, 2, 2, 2}, 0, nan | 0x2a, "x"},      // NaN payloads
		{[]byte{2, 2}, 0, 0xfff0000000000001, "\xc3"}, // signalling NaN, sign set
		{nil, 0, 0, ""},                // zero rows
		{[]byte{0x80, 0x80}, 0, 0, ""}, // rows of width zero
		{bytes.Repeat([]byte{1, 2, 3}, 300), 1 << 40, math.Float64bits(1e-300), "telco"}, // a 900-value row
	} {
		in, _ := rowsFrom(seed.shape, seed.i, seed.x, seed.s)
		data, _ := in.GobEncode()
		f.Add(data, seed.shape, seed.i, seed.x, seed.s)
	}
	f.Add([]byte{codecVersion + 1, 0, 0}, []byte{}, int64(0), uint64(0), "")                        // unknown version
	f.Add([]byte{codecVersion, 1, 1, 1, 9}, []byte{}, int64(0), uint64(0), "")                      // unknown kind
	f.Add([]byte{codecVersion, 1, 1, 1, 4, 2}, []byte{}, int64(0), uint64(0), "")                   // bool byte 2
	f.Add([]byte{codecVersion, 0xff, 0xff, 0xff, 0xff, 0x0f, 1}, []byte{}, int64(0), uint64(0), "") // a count past the end
	f.Fuzz(func(t *testing.T, data, shape []byte, i int64, x uint64, s string) {
		in, want := rowsFrom(shape, i, x, s)
		var out Rows
		roundTrip(t, in, &out, want)
		decodeArbitrary(t, data, func() gob.GobDecoder { return new(Rows) })
	})
}

// offersFrom builds one offer per shape byte: its low four bits are the
// flags, the next two the number of bindings and columns, the top two pick a
// nil Parts, an empty one or one with entries (one of them with no ids).
func offersFrom(shape []byte, i int64, x uint64, s string) (in, want Offers) {
	for k, b := range shape {
		str := func(j int) string { return s[(k+j)%(len(s)+1):] }
		f := math.Float64frombits(x ^ uint64(k))
		o := Offer{OfferID: str(0), RFBID: str(1), QID: str(2), SellerID: str(3), SQL: str(4),
			Complete: b&1 != 0, Stripped: b&2 != 0, FromView: b&4 != 0, PartialAgg: b&8 != 0,
			Props: cost.Valuation{TotalTime: f, FirstRow: -f, RowsPerSec: f * 2, Rows: i - int64(k), Bytes: f,
				Freshness: 1, Completeness: 0.5, Money: -f},
			Price: f}
		for j := 0; j < int(b>>4&3); j++ {
			o.Bindings = append(o.Bindings, str(j))
			o.Cols = append(o.Cols, ColSpec{Table: str(j), Name: str(j + 1), Kind: value.Kind(b + byte(j))})
		}
		w := o
		switch b >> 6 {
		case 1:
			o.Parts, w.Parts = map[string][]string{}, map[string][]string{}
		case 2, 3:
			o.Parts = map[string][]string{str(0): {str(1), str(2)}, "empty" + str(5): {}}
			w.Parts = map[string][]string{str(0): {str(1), str(2)}, "empty" + str(5): nil}
		}
		in, want = append(in, o), append(want, w)
	}
	return in, want
}

func FuzzOffersCodec(f *testing.F) {
	// The codec writes these types field by field: a field added to one of
	// them must be added to codec.go (and to offersFrom) first.
	for typ, n := range map[reflect.Type]int{
		reflect.TypeOf(Offer{}): 14, reflect.TypeOf(ColSpec{}): 3, reflect.TypeOf(cost.Valuation{}): 8,
	} {
		if typ.NumField() != n {
			f.Fatalf("%s has %d fields, the codec writes %d", typ, typ.NumField(), n)
		}
	}
	for _, seed := range []struct {
		shape []byte
		i     int64
		x     uint64
		s     string
	}{
		{[]byte{0x00, 0x1f, 0x6a, 0xb5}, 300, math.Float64bits(12.75), "corfu/q1/o3"},
		{[]byte{0x40, 0x80, 0xff}, math.MinInt64, math.Float64bits(math.Copysign(0, -1)), "\xff"},
		{[]byte{0x30}, math.MaxInt64, math.Float64bits(math.NaN()) | 7, ""},
		{nil, 0, 0, ""},
	} {
		in, _ := offersFrom(seed.shape, seed.i, seed.x, seed.s)
		data, _ := in.GobEncode()
		f.Add(data, seed.shape, seed.i, seed.x, seed.s)
	}
	f.Add([]byte{codecVersion, 0xff, 0xff, 0xff, 0xff, 0x0f}, []byte{}, int64(0), uint64(0), "")
	f.Fuzz(func(t *testing.T, data, shape []byte, i int64, x uint64, s string) {
		in, want := offersFrom(shape, i, x, s)
		var out Offers
		roundTrip(t, in, &out, want)
		decodeArbitrary(t, data, func() gob.GobDecoder { return new(Offers) })
	})
}

// TestWireCodecLivesHere holds the wire format to one file: across internal/,
// cmd/, examples/ and the root package, a GobEncode, GobDecode or
// (Un)MarshalBinary method is declared only in internal/trading/codec.go, and
// internal/netsim builds no net/rpc codec of its own, so there is one
// transport — net/rpc's gob — and one format inside it for bulk payloads.
func TestWireCodecLivesHere(t *testing.T) {
	home := filepath.Join("..", "trading", "codec.go")
	netsim := filepath.Join("..", "netsim") + string(filepath.Separator)
	methods := map[string]bool{"GobEncode": true, "GobDecode": true, "MarshalBinary": true, "UnmarshalBinary": true}
	rpcCodec := map[string]bool{"ServerCodec": true, "ClientCodec": true, "NewClientWithCodec": true, "ServeCodec": true,
		"ReadRequestHeader": true, "ReadResponseHeader": true, "WriteRequest": true, "WriteResponse": true}
	fset := token.NewFileSet()
	found := 0
	scan := func(path string) error {
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil && methods[fn.Name.Name] {
				if path != home {
					t.Errorf("%s: %s declared outside codec.go", fset.Position(fn.Pos()), fn.Name.Name)
				}
				found++
			}
		}
		if strings.HasPrefix(path, netsim) {
			ast.Inspect(file, func(x ast.Node) bool {
				if id, ok := x.(*ast.Ident); ok && rpcCodec[id.Name] {
					t.Errorf("%s: %s in netsim: net/rpc's own gob codec is the one transport", fset.Position(id.Pos()), id.Name)
				}
				return true
			})
		}
		return nil
	}
	for _, dir := range []string{"..", filepath.Join("..", "..", "cmd"), filepath.Join("..", "..", "examples")} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			return scan(path)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	root, err := filepath.Glob(filepath.Join("..", "..", "*.go"))
	if err != nil || len(root) == 0 {
		t.Fatalf("root package not found: %v", err)
	}
	for _, path := range root {
		if err := scan(path); err != nil {
			t.Fatal(err)
		}
	}
	if found != 6 {
		t.Errorf("%d codec methods found, want Rows', Offers' and QueryPrices' GobEncode and GobDecode", found)
	}
}

// batchRows is the default fetch batch (exec.DefaultBatchSize).
const batchRows = 256

// telcoBatch is a full answer batch shaped like the telco query's: an int
// key, a name, a charge.
func telcoBatch() []value.Row {
	rows := make([]value.Row, batchRows)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(1000 + i)), value.NewStr(fmt.Sprintf("customer%04d", i)), value.NewFloat(float64(i%97) * 1.25)}
	}
	return rows
}

// BenchmarkAnswerCodec ships one telco-shaped batch through a long-lived gob
// stream, as a net/rpc connection does — type descriptors go out with the
// first message only, which is not timed — once as a plain []value.Row (gob's
// reflection) and once as Rows (the trading codec inside the gob envelope).
func BenchmarkAnswerCodec(b *testing.B) {
	batch := telcoBatch()
	b.Run("gob", func(b *testing.B) { benchGobStream(b, batch, func() any { return new([]value.Row) }) })
	b.Run("codec", func(b *testing.B) { benchGobStream(b, Rows(batch), func() any { return new(Rows) }) })
}

var codecSink any

func benchGobStream(b *testing.B, v any, fresh func() any) {
	var wire, in bytes.Buffer
	enc, dec := gob.NewEncoder(&wire), gob.NewDecoder(&in)
	if err := enc.Encode(v); err != nil {
		b.Fatal(err)
	}
	in.Write(wire.Bytes())
	if err := dec.Decode(fresh()); err != nil {
		b.Fatal(err)
	}
	wire.Reset()
	if err := enc.Encode(v); err != nil {
		b.Fatal(err)
	}
	msg := bytes.Clone(wire.Bytes())
	perRow := float64(len(msg)) / batchRows
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			wire.Reset()
			if err := enc.Encode(v); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(perRow, "B/row")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			in.Write(msg)
			out := fresh()
			if err := dec.Decode(out); err != nil {
				b.Fatal(err)
			}
			codecSink = out
		}
		b.ReportMetric(perRow, "B/row")
	})
}
