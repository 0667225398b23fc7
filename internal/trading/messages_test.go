package trading

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"reflect"
	"runtime"
	"testing"

	"qtrade/internal/obs"
)

// FuzzRequestMessages decodes arbitrary bytes as each request a buyer or a
// subcontracting seller sends: RFB, ImproveReq, Award and ExecReq cross the
// wire as gob, an improvement request's prices in the trading codec inside
// it. What FuzzRowsCodec holds for the codec's payloads holds here: a decode
// returns an error or a value, never panics, and a value re-encodes to a
// message that decodes to an equal value, floats bit for bit. No request
// carries a map, whose count gob would trust, so every request is decoded.
// The seeds are real encodings.
func FuzzRequestMessages(f *testing.F) {
	trace := obs.TraceContext{TraceID: "t-7f3a", Parent: 1 << 40, Sampled: true}
	for _, m := range []any{
		&RFB{RFBID: "hq/r1", BuyerID: "hq", Trace: trace, Queries: []QueryRequest{
			{QID: "q0", SQL: "SELECT c.office, SUM(i.charge) FROM customer c, invoiceline i WHERE c.custid = i.custid GROUP BY c.office"},
			{QID: "q1", SQL: "SELECT c.custname FROM customer c WHERE c.office = 'Corfu'"},
		}},
		&RFB{RFBID: "corfu/r2", BuyerID: "corfu", Depth: 1, Queries: []QueryRequest{{QID: "q0", SQL: "SELECT 1"}}},
		&ImproveReq{RFBID: "hq/r1", BuyerID: "hq", Trace: trace, Bargain: true,
			Prices: QueryPrices{{QID: "q0", Best: 41.25, Target: 37.125}, {QID: "q1", Best: math.Copysign(0, -1)}}},
		&ImproveReq{RFBID: "hq/r3", BuyerID: "hq", Prices: QueryPrices{{QID: "q0", Best: math.Inf(1)}}},
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
		decodeRequest(t, data, func() any { return new(ImproveReq) })
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
	if !bitEqual(got, want) {
		t.Fatalf("decode → encode → decode is not the identity:\n got %#v\nwant %#v", got.Interface(), want.Interface())
	}
}

// An improvement request's entry count is checked against the bytes that
// carry it, as every count of the trading codec is: a request whose count is
// forged to 2^27 fails to decode having allocated next to nothing. So does a
// request as an older build encoded it, its prices in two gob maps: gob sizes
// a map from its count before it reads one entry, and decoded into such a
// request, a BestPrice count forged to 2^20 cost 53 MiB on 204 bytes.
func TestForgedImproveReqIsCheap(t *testing.T) {
	prices := QueryPrices{{QID: "q0", Best: 1.0 / 3}}
	payload, err := prices.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	count := binary.AppendUvarint([]byte{codecVersion}, 1<<27)
	type mapReq struct {
		RFBID, BuyerID    string
		Trace             obs.TraceContext
		BestPrice, Target map[string]float64
	}
	forged := map[string][]byte{
		"entry count 2^27": forge(t, ImproveReq{RFBID: "hq-rfb1", BuyerID: "hq", Prices: prices},
			payload, append(count, payload[len(count):]...)),
		// gob writes an unsigned integer of 128 or more as its byte count,
		// negated, and the bytes big-endian: the count 1 and the key "q0"
		// become the count 2^20.
		"map count 2^20": forge(t, mapReq{RFBID: "hq-rfb1", BuyerID: "hq", BestPrice: map[string]float64{"q0": 1}},
			[]byte{1, 2, 'q', '0'}, []byte{0xFD, 0x10, 0, 0}),
	}
	for name, data := range forged {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := gob.NewDecoder(bytes.NewReader(data)).Decode(new(ImproveReq))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a forged request decoded", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s: decoding %d bytes allocated %d", name, len(data), grew)
		}
	}
}

// forge gob-encodes v and overwrites the bytes real of its encoding with
// forged, of the same length, so no length gob wrote around them changes.
func forge(t *testing.T, v any, real, forged []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	i := bytes.Index(data, real)
	if i < 0 || len(forged) != len(real) {
		t.Fatalf("cannot forge %x in place of %x in %x", forged, real, data)
	}
	copy(data[i:], forged)
	return data
}
