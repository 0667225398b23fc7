package trading

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"

	"qtrade/internal/obs"
)

// FuzzRequestMessages decodes arbitrary bytes as each request a buyer or a
// subcontracting seller sends: RFB, ImproveReq, Award and ExecReq cross the
// wire as plain gob, outside the trading codec. What FuzzRowsCodec holds for
// the codec's payloads holds here: a decode returns an error or a value,
// never panics, and a value re-encodes to a message that decodes to an equal
// value — equal under gob's rules, where floats keep their bits and an empty
// map is the same message as a nil one. The seeds are real encodings.
func FuzzRequestMessages(f *testing.F) {
	trace := obs.TraceContext{TraceID: "t-7f3a", Parent: 1 << 40, Sampled: true}
	for _, m := range []any{
		&RFB{RFBID: "hq/r1", BuyerID: "hq", Trace: trace, Queries: []QueryRequest{
			{QID: "q0", SQL: "SELECT c.office, SUM(i.charge) FROM customer c, invoiceline i WHERE c.custid = i.custid GROUP BY c.office", EstValue: 12.5},
			{QID: "q1", SQL: "SELECT c.custname FROM customer c WHERE c.office = 'Corfu'", EstValue: math.NaN()},
		}},
		&RFB{RFBID: "corfu/r2", BuyerID: "corfu", Depth: 1, Queries: []QueryRequest{{QID: "q0", SQL: "SELECT 1"}}},
		&ImproveReq{RFBID: "hq/r1", BuyerID: "hq", Trace: trace,
			BestPrice: map[string]float64{"q0": 41.25, "q1": math.Copysign(0, -1)},
			Target:    map[string]float64{"q0": 30}},
		&ImproveReq{RFBID: "hq/r3", BuyerID: "hq", BestPrice: map[string]float64{"q0": math.Inf(1)}},
		&Award{RFBID: "hq/r1", OfferID: "corfu/o3", BuyerID: "hq"},
		&ExecReq{BuyerID: "hq", OfferID: "corfu/o3", SQL: "SELECT c.custname FROM customer c", Stream: true, BatchRows: 64, Trace: trace},
		&ExecReq{BuyerID: "hq", Cursor: "corfu/c9", Seq: 3, CloseCursor: true},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeRequest(t, data, func() any { return new(RFB) })
		decodeRequest(t, data, func() any { return new(Award) })
		decodeRequest(t, data, func() any { return new(ExecReq) })
		// encoding/gob sizes a map from its count before reading an entry,
		// so a forged count would ask for gigabytes. Decoded without its
		// maps, gob skips each entry in turn and fails when the input runs
		// out: a message that decodes that way holds no count larger than
		// itself, and only such a message is decoded as an ImproveReq.
		var probe struct {
			RFBID, BuyerID string
			Trace          obs.TraceContext
		}
		if gob.NewDecoder(bytes.NewReader(data)).Decode(&probe) == nil {
			decodeRequest(t, data, func() any { return new(ImproveReq) })
		}
	})
}

// decodeRequest gob-decodes data into a fresh message; if that succeeds, the
// message must re-encode, and the re-encoding decode to an equal message.
func decodeRequest(t *testing.T, data []byte, fresh func() any) {
	t.Helper()
	out := fresh()
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(out); err != nil {
		return
	}
	var again bytes.Buffer
	if err := gob.NewEncoder(&again).Encode(out); err != nil {
		t.Fatalf("re-encoding a decoded %T: %v", out, err)
	}
	back := fresh()
	if err := gob.NewDecoder(&again).Decode(back); err != nil {
		t.Fatalf("decoding a re-encoded %T: %v", out, err)
	}
	got, want := reflect.ValueOf(back).Elem(), reflect.ValueOf(out).Elem()
	nilEmptyMaps(got)
	nilEmptyMaps(want)
	if !bitEqual(got, want) {
		t.Fatalf("decode → encode → decode is not the identity:\n got %#v\nwant %#v", got.Interface(), want.Interface())
	}
}

// nilEmptyMaps sets the empty maps among a struct's fields to nil: gob sends
// neither, so the two are one message.
func nilEmptyMaps(v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Map && f.Len() == 0 {
			f.SetZero()
		}
	}
}
