package node

import (
	"reflect"
	"strings"
	"testing"

	"qtrade/internal/catalog"
	"qtrade/internal/ledger"
	"qtrade/internal/obs"
	"qtrade/internal/storage"
	"qtrade/internal/trading"
	"qtrade/internal/value"
)

// streamAll opens a streamed execution at the given batch size and pulls
// every continuation, returning the reassembled answer.
func streamAll(t *testing.T, n *Node, sql string, batch int) trading.ExecResp {
	t.Helper()
	resp, err := n.Execute(trading.ExecReq{SQL: sql, Stream: true, BatchRows: batch})
	if err != nil {
		t.Fatalf("stream open %q: %v", sql, err)
	}
	all := resp
	seq := int64(0)
	for all.More {
		seq++
		next, err := n.Execute(trading.ExecReq{Cursor: all.Cursor, Seq: seq})
		if err != nil {
			t.Fatalf("continuation %d of %q: %v", seq, sql, err)
		}
		resp.Rows = append(resp.Rows, next.Rows...)
		all = next
	}
	resp.Cursor, resp.More = "", false
	return resp
}

// TestStreamingDifferentialSQLLogic delivers every query in the logic battery
// as a plain request and reassembled from 1-, 3-, 7-, 256-row and
// larger-than-answer batches, and demands Cols and rows identical — content
// AND order — every way: all of them are the same pull of the same cursor.
// Each delivery of a purchased answer leaves exactly one Served event, whose
// totals are the rows and bytes that delivery shipped.
func TestStreamingDifferentialSQLLogic(t *testing.T) {
	n := fullNode(t)
	queries := []string{
		"SELECT c.custname FROM customer c WHERE c.office = 'Corfu'",
		"SELECT c.custname FROM customer c WHERE c.custid > 2 AND c.custid <= 5",
		"SELECT c.custname FROM customer c WHERE c.custid IN (1, 5)",
		"SELECT c.custid * 10 + 1 FROM customer c WHERE c.custid = 3",
		"SELECT c.custname, i.charge FROM customer c, invoiceline i WHERE c.custid = i.custid AND i.charge > 9",
		"SELECT a.custname, b.custname FROM customer a, customer b WHERE a.office = b.office AND a.custid < b.custid",
		"SELECT SUM(i.charge) FROM invoiceline i",
		"SELECT MIN(i.charge), MAX(i.charge), AVG(i.charge) FROM invoiceline i WHERE i.custid = 1",
		"SELECT c.office, SUM(i.charge) FROM customer c, invoiceline i WHERE c.custid = i.custid GROUP BY c.office",
		"SELECT c.office, COUNT(*) FROM customer c GROUP BY c.office HAVING COUNT(*) > 1",
		"SELECT DISTINCT c.office FROM customer c",
		"SELECT c.custname FROM customer c ORDER BY c.custid DESC LIMIT 2",
		"SELECT c.custname FROM customer c ORDER BY c.custname LIMIT 1",
		"SELECT * FROM customer c WHERE c.custid = 1",
		"SELECT c.custname FROM customer c WHERE c.office = 'Paris'",
		"SELECT c.custid, i.invid FROM customer c, invoiceline i",
		"SELECT COUNT(*) FROM customer c WHERE c.custname IS NOT NULL",
	}
	const offer = "rfb7.oracle.1"
	// deliver runs one delivery against a fresh ledger and checks its single
	// Served event against what the responses carried.
	deliver := func(q string, batch int) trading.ExecResp {
		t.Helper()
		led := ledger.New(4)
		n.SetLedger(led)
		defer n.SetLedger(nil)
		req := trading.ExecReq{SQL: q, OfferID: offer, Stream: batch > 0, BatchRows: batch}
		resp, err := n.Execute(req)
		if err != nil {
			t.Fatalf("%q batch %d: %v", q, batch, err)
		}
		all, bytes := resp, int64(resp.WireSize())
		for seq := int64(1); resp.More; seq++ {
			if resp, err = n.Execute(trading.ExecReq{Cursor: resp.Cursor, Seq: seq}); err != nil {
				t.Fatalf("%q batch %d, continuation %d: %v", q, batch, seq, err)
			}
			all.Rows = append(all.Rows, resp.Rows...)
			bytes += int64(resp.WireSize())
		}
		served := servedEvents(led)
		if len(served) != 1 || served[0].OfferID != offer || served[0].SQL != q ||
			served[0].Rows != int64(len(all.Rows)) || served[0].Bytes != bytes {
			t.Fatalf("%q batch %d: shipped %d rows in %d bytes, served events %+v", q, batch, len(all.Rows), bytes, served)
		}
		return all
	}
	for _, q := range queries {
		want := deliver(q, 0) // a plain request
		for _, batch := range []int{1, 3, 7, 256, len(want.Rows) + 1} {
			got := deliver(q, batch)
			if !reflect.DeepEqual(got.Rows, want.Rows) &&
				!(len(got.Rows) == 0 && len(want.Rows) == 0) {
				t.Errorf("%s batch %d\n  streamed %v\n  one-shot %v", q, batch, got.Rows, want.Rows)
			}
			if !reflect.DeepEqual(got.Cols, want.Cols) {
				t.Errorf("%s batch %d\n  streamed cols %v != %v", q, batch, got.Cols, want.Cols)
			}
		}
	}
	if n.OpenCursors() != 0 {
		t.Fatalf("drained streams must leave no parked cursors, have %d", n.OpenCursors())
	}
}

// Sub-batch answers complete in the opening exchange: no cursor, no More,
// no extra round trips — the streamed wire conversation for small results
// is the one-shot conversation.
func TestStreamSmallResultSingleExchange(t *testing.T) {
	n := fullNode(t)
	resp, err := n.Execute(trading.ExecReq{
		SQL: "SELECT i.invid FROM invoiceline i", Stream: true, BatchRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	if resp.More || resp.Cursor != "" {
		t.Fatalf("5-row answer in 64-row batches must finish in one exchange: %+v", resp)
	}
	if n.OpenCursors() != 0 {
		t.Fatal("nothing may be parked for a single-exchange answer")
	}
}

func TestStreamContinuationProtocol(t *testing.T) {
	n := fullNode(t)
	q := "SELECT c.custid, i.invid FROM customer c, invoiceline i" // 20 rows
	open, err := n.Execute(trading.ExecReq{SQL: q, Stream: true, BatchRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !open.More || open.Cursor == "" || len(open.Rows) != 4 {
		t.Fatalf("open: %+v", open)
	}
	b1, err := n.Execute(trading.ExecReq{Cursor: open.Cursor, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A retried delivery of the same seq returns the identical batch and
	// does not advance the cursor.
	again, err := n.Execute(trading.ExecReq{Cursor: open.Cursor, Seq: 1})
	if err != nil {
		t.Fatalf("idempotent retry: %v", err)
	}
	if !reflect.DeepEqual(b1.Rows, again.Rows) || b1.More != again.More {
		t.Fatalf("retried seq must re-deliver: %v vs %v", b1.Rows, again.Rows)
	}
	b2, err := n.Execute(trading.ExecReq{Cursor: open.Cursor, Seq: 2})
	if err != nil || len(b2.Rows) != 4 {
		t.Fatalf("seq 2 after retry: %v %v", b2.Rows, err)
	}
	// Skipping ahead is a protocol violation: the cursor dies, and the
	// next touch reports it gone.
	if _, err := n.Execute(trading.ExecReq{Cursor: open.Cursor, Seq: 9}); err == nil ||
		!strings.Contains(err.Error(), "out of sync") {
		t.Fatalf("out-of-sync must kill the cursor, got %v", err)
	}
	if _, err := n.Execute(trading.ExecReq{Cursor: open.Cursor, Seq: 3}); err == nil {
		t.Fatal("killed cursor must refuse further pulls")
	}
	if n.OpenCursors() != 0 {
		t.Fatalf("killed cursor must be unregistered, have %d", n.OpenCursors())
	}
	// Unknown cursors fail loudly.
	if _, err := n.Execute(trading.ExecReq{Cursor: "ghost.c9", Seq: 1}); err == nil ||
		!strings.Contains(err.Error(), "unknown cursor") {
		t.Fatalf("unknown cursor: %v", err)
	}
}

// CloseCursor abandons a parked execution early and reclaims it
// immediately — the buyer-side LIMIT path depends on this not leaking.
func TestStreamEarlyClose(t *testing.T) {
	n := fullNode(t)
	open, err := n.Execute(trading.ExecReq{
		SQL:    "SELECT c.custid, i.invid FROM customer c, invoiceline i",
		Stream: true, BatchRows: 2})
	if err != nil || !open.More {
		t.Fatalf("open: %+v %v", open, err)
	}
	if n.OpenCursors() != 1 {
		t.Fatalf("parked cursors = %d, want 1", n.OpenCursors())
	}
	if _, err := n.Execute(trading.ExecReq{Cursor: open.Cursor, CloseCursor: true}); err != nil {
		t.Fatalf("close: %v", err)
	}
	if n.OpenCursors() != 0 {
		t.Fatalf("closed cursor must be reclaimed, have %d", n.OpenCursors())
	}
	// Closing twice is an error (the cursor is gone), not a hang.
	if _, err := n.Execute(trading.ExecReq{Cursor: open.Cursor, CloseCursor: true}); err == nil {
		t.Fatal("double close must report the cursor gone")
	}
}

// The registry is bounded, and the bound is paid by the stream pulled
// longest ago, not the one opened first: with the registry full, a stream
// its buyer keeps pulling survives a further open, and the abandoned stream
// at the front of the order is evicted — its next continuation fails into
// recovery.
//
// Eviction is a delivery that ended early, so — like completion and early
// close — it leaves exactly one served event, carrying what was shipped
// before the stream was cut.
func TestStreamCursorEviction(t *testing.T) {
	n := fullNode(t)
	led := ledger.New(4)
	n.SetLedger(led)
	q := "SELECT c.custid, i.invid FROM customer c, invoiceline i"
	open := func(i int) trading.ExecResp {
		resp, err := n.Execute(trading.ExecReq{SQL: q, Stream: true, BatchRows: 2,
			OfferID: "rfb7.oracle." + itoa(i)})
		if err != nil || !resp.More {
			t.Fatalf("open %d: %+v %v", i, resp, err)
		}
		return resp
	}
	opened := make([]trading.ExecResp, maxOpenCursors)
	for i := range opened {
		opened[i] = open(i)
	}
	first, second := opened[0], opened[1]
	if _, err := n.Execute(trading.ExecReq{Cursor: first.Cursor, Seq: 1}); err != nil {
		t.Fatalf("first stream, seq 1: %v", err)
	}
	if served := servedEvents(led); len(served) != 0 {
		t.Fatalf("nothing is served while every stream is still parked: %+v", served)
	}
	open(maxOpenCursors)
	if got := n.OpenCursors(); got != maxOpenCursors {
		t.Fatalf("registry must stay bounded: %d > %d", got, maxOpenCursors)
	}
	served := servedEvents(led)
	if len(served) != 1 || served[0].OfferID != "rfb7.oracle.1" ||
		served[0].Rows != int64(len(second.Rows)) || served[0].Bytes != int64(second.WireSize()) {
		t.Fatalf("eviction must record the opening batch of the evicted stream as served, got %+v", served)
	}
	if b, err := n.Execute(trading.ExecReq{Cursor: first.Cursor, Seq: 2}); err != nil || len(b.Rows) == 0 {
		t.Fatalf("a stream that keeps pulling must survive a full registry: %v %v", b.Rows, err)
	}
	if _, err := n.Execute(trading.ExecReq{Cursor: second.Cursor, Seq: 1}); err == nil {
		t.Fatal("the least recently pulled cursor must be evicted and refuse continuation")
	}
	for i, o := range opened[2:] {
		if _, err := n.Execute(trading.ExecReq{Cursor: o.Cursor, CloseCursor: true}); err != nil {
			t.Fatalf("stream %d must still be parked: %v", i+2, err)
		}
	}
}

// A node that has Left the federation refuses continuations like any other
// execution, with a transient error that routes the buyer into recovery.
func TestStreamLeftNodeRefusesContinuation(t *testing.T) {
	n := fullNode(t)
	open, err := n.Execute(trading.ExecReq{
		SQL:    "SELECT c.custid, i.invid FROM customer c, invoiceline i",
		Stream: true, BatchRows: 2})
	if err != nil || !open.More {
		t.Fatalf("open: %+v %v", open, err)
	}
	n.Leave("maintenance")
	if _, err := n.Execute(trading.ExecReq{Cursor: open.Cursor, Seq: 1}); err == nil {
		t.Fatal("left node must refuse continuations")
	}
}

// servedEvents returns every Served event in the ledger.
func servedEvents(led *ledger.Ledger) []ledger.Event {
	var served []ledger.Event
	for _, neg := range led.Negotiations(0) {
		for _, e := range neg.Events {
			if e.Kind == ledger.KindServed {
				served = append(served, e)
			}
		}
	}
	return served
}

// Delivery of a purchased (offer-bound) answer records exactly one Served
// ledger event however it is shipped: streamed, it carries the cumulative
// rows and bytes of every batch; drained into one response, or streamed in a
// batch larger than the answer, it carries that one exchange.
func TestStreamServedLedgerOnce(t *testing.T) {
	q := "SELECT c.custid, i.invid FROM customer c, invoiceline i"
	const offer = "rfb7.oracle.1"
	serve := func(req trading.ExecReq) (rows int, bytes int64, ev ledger.Event) {
		t.Helper()
		n := fullNode(t)
		led := ledger.New(4)
		n.SetLedger(led)
		resp, err := n.Execute(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ExecMS <= 0 {
			t.Fatalf("ExecMS must be set on the opening response: %+v", resp.ExecMS)
		}
		rows, bytes = len(resp.Rows), int64(resp.WireSize())
		seq := int64(0)
		for resp.More {
			seq++
			resp, err = n.Execute(trading.ExecReq{Cursor: resp.Cursor, Seq: seq, OfferID: offer})
			if err != nil {
				t.Fatal(err)
			}
			rows += len(resp.Rows)
			bytes += int64(resp.WireSize())
		}
		served := servedEvents(led)
		if len(served) != 1 {
			t.Fatalf("%+v: served events = %d, want 1: %+v", req, len(served), served)
		}
		return rows, bytes, served[0]
	}
	reqs := []trading.ExecReq{
		{SQL: q, OfferID: offer, Stream: true, BatchRows: 8},
		{SQL: q, OfferID: offer, Stream: true, BatchRows: 64},
		{SQL: q, OfferID: offer},
	}
	events := make([]ledger.Event, len(reqs))
	for i, req := range reqs {
		rows, bytes, ev := serve(req)
		if rows != 20 {
			t.Fatalf("%+v: delivered %d rows, want 20", req, rows)
		}
		if ev.Rows != 20 || ev.Bytes != bytes || ev.WallMS < 0 {
			t.Fatalf("%+v: served %+v, want 20 rows and the %d bytes shipped", req, ev, bytes)
		}
		events[i] = ev
	}
	// One exchange is one exchange: the plain request and the stream whose
	// batch exceeds the answer serve the same rows in the same bytes.
	if whole, plain := events[1], events[2]; whole.Bytes != plain.Bytes {
		t.Fatalf("single-exchange stream served %+v, plain request %+v", whole, plain)
	}
}

// A UNION chain is a plan.Union over its branches' plans and streams like any
// other pipeline. Reassembled from 1-row batches, the answer must equal the
// one-shot union, and abandoning it mid-transfer must reclaim the parked
// cursor like any other.
func TestStreamUnionChunked(t *testing.T) {
	n := fullNode(t)
	q := `
		SELECT c.custname FROM customer c WHERE c.office = 'Corfu'
		UNION ALL
		SELECT c.custname FROM customer c WHERE c.office = 'Corfu'`
	want, err := n.Execute(trading.ExecReq{SQL: q})
	if err != nil {
		t.Fatal(err)
	}
	got := streamAll(t, n, q, 1)
	if !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(got.Cols, want.Cols) {
		t.Fatalf("streamed union differs:\n  streamed %v\n  one-shot %v", got.Rows, want.Rows)
	}
	open, err := n.Execute(trading.ExecReq{SQL: q, Stream: true, BatchRows: 1})
	if err != nil || !open.More {
		t.Fatalf("open: %+v %v", open, err)
	}
	if _, err := n.Execute(trading.ExecReq{Cursor: open.Cursor, CloseCursor: true}); err != nil {
		t.Fatal(err)
	}
	if n.OpenCursors() != 0 {
		t.Fatalf("abandoned union cursor still parked: %d", n.OpenCursors())
	}
}

// The DISTINCT twin: a plain UNION is the same plan under a Distinct, so it
// streams batch by batch too and de-duplicates across branches and batches.
func TestStreamUnionDistinctChunked(t *testing.T) {
	n := fullNode(t)
	q := `
		SELECT c.office FROM customer c WHERE c.custid < 3
		UNION
		SELECT c.office FROM customer c`
	want, err := n.Execute(trading.ExecReq{SQL: q})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != 2 {
		t.Fatalf("one-shot union: %v", want.Rows)
	}
	got := streamAll(t, n, q, 1)
	if !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(got.Cols, want.Cols) {
		t.Fatalf("streamed union differs:\n  streamed %v\n  one-shot %v", got.Rows, want.Rows)
	}
	if n.OpenCursors() != 0 {
		t.Fatalf("drained union left %d cursors parked", n.OpenCursors())
	}
}

// A composite answer is a plan too — the node's own rows, then one Remote
// leaf per subcontractor — so it streams like any other: reassembled from
// 1-row batches it equals the one-shot answer, an early close frees the
// cursor, and a subcontractor that fails when its fragment is fetched fails
// the exchange that needed it, parks nothing and is named in the error.
func TestStreamSubcontractChunked(t *testing.T) {
	net, corfu, _ := subFederation(t)
	o := compositeOffer(t, corfu, "r-stream")
	want, err := corfu.Execute(trading.ExecReq{BuyerID: "buyer", OfferID: o.OfferID, SQL: o.SQL})
	if err != nil || len(want.Rows) != 4 {
		t.Fatalf("one-shot composite: %v %v", want.Rows, err)
	}
	stream := trading.ExecReq{BuyerID: "buyer", OfferID: o.OfferID, SQL: o.SQL, Stream: true, BatchRows: 1}
	resp, err := corfu.Execute(stream)
	if err != nil {
		t.Fatal(err)
	}
	got := resp.Rows
	for seq := int64(1); resp.More; seq++ {
		if len(resp.Rows) != 1 {
			t.Fatalf("batch %d carries %d rows, want 1", seq-1, len(resp.Rows))
		}
		if resp, err = corfu.Execute(trading.ExecReq{Cursor: resp.Cursor, Seq: seq}); err != nil {
			t.Fatalf("continuation %d: %v", seq, err)
		}
		got = append(got, resp.Rows...)
	}
	if !reflect.DeepEqual(got, want.Rows) {
		t.Fatalf("streamed composite differs:\n  streamed %v\n  one-shot %v", got, want.Rows)
	}

	open, err := corfu.Execute(stream)
	if err != nil || !open.More {
		t.Fatalf("open: %+v %v", open, err)
	}
	if _, err := corfu.Execute(trading.ExecReq{Cursor: open.Cursor, CloseCursor: true}); err != nil {
		t.Fatal(err)
	}
	if corfu.OpenCursors() != 0 {
		t.Fatalf("abandoned composite cursor still parked: %d", corfu.OpenCursors())
	}

	net.SetDown("myconos", true)
	// A batch wider than corfu's own rows: the opening exchange already needs
	// the purchased fragment.
	stream.BatchRows = 64
	if _, err := corfu.Execute(stream); err == nil || !strings.Contains(err.Error(), "subcontractor myconos") {
		t.Fatalf("open over a dead subcontractor: %v", err)
	}
	// In 1-row batches corfu's own rows ship first; the continuation that
	// runs into the fragment fails and takes the cursor with it.
	stream.BatchRows = 1
	open, err = corfu.Execute(stream)
	if err != nil || !open.More {
		t.Fatalf("open: %+v %v", open, err)
	}
	if _, err := corfu.Execute(trading.ExecReq{Cursor: open.Cursor, Seq: 1}); err == nil ||
		!strings.Contains(err.Error(), "subcontractor myconos") {
		t.Fatalf("continuation over a dead subcontractor: %v", err)
	}
	if corfu.OpenCursors() != 0 {
		t.Fatalf("a failed composite must park nothing, have %d", corfu.OpenCursors())
	}
}

// View-backed offers stream through the same chunked protocol: the view
// plan feeds the cursor pipeline and the reassembled rollup matches the
// one-shot execution of the same offer SQL.
func TestStreamViewOfferChunked(t *testing.T) {
	n := myconosNode(t, nil)
	if err := n.Store().AddView(&storage.MaterializedView{
		Name: "officetotals",
		SQL: `SELECT c.office, c.custid, SUM(i.charge) AS total FROM customer c, invoiceline i
		      WHERE c.custid = i.custid GROUP BY c.office, c.custid`,
		Columns: []catalog.ColumnDef{
			{Name: "office", Kind: value.Str},
			{Name: "custid", Kind: value.Int},
			{Name: "total", Kind: value.Float},
		},
		Rows: []value.Row{
			{value.NewStr("Myconos"), value.NewInt(3), value.NewFloat(20)},
			{value.NewStr("Myconos"), value.NewInt(5), value.NewFloat(2)},
		},
	}); err != nil {
		t.Fatal(err)
	}
	q := `SELECT c.office, SUM(i.charge) AS total FROM customer c, invoiceline i
	      WHERE c.custid = i.custid GROUP BY c.office`
	rfb := trading.RFB{RFBID: "r2", BuyerID: "athens",
		Queries: []trading.QueryRequest{{QID: "q0", SQL: q}}}
	offers, err := bidOffers(n.RequestBids(rfb))
	if err != nil {
		t.Fatal(err)
	}
	var viewOffer *trading.Offer
	for i := range offers {
		if offers[i].FromView {
			viewOffer = &offers[i]
		}
	}
	if viewOffer == nil {
		t.Fatal("view offer expected")
	}
	want, err := n.Execute(trading.ExecReq{SQL: viewOffer.SQL})
	if err != nil {
		t.Fatal(err)
	}
	got := streamAll(t, n, viewOffer.SQL, 1)
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("streamed view offer differs:\n  streamed %v\n  one-shot %v", got.Rows, want.Rows)
	}
	if n.OpenCursors() != 0 {
		t.Fatalf("view stream left %d cursors parked", n.OpenCursors())
	}
}

// A sampled continuation ships a per-batch span payload back for grafting
// into the buyer's trace; an unsampled one must ship nothing.
func TestStreamContinuationTraced(t *testing.T) {
	n := fullNode(t)
	open, err := n.Execute(trading.ExecReq{
		SQL:    "SELECT c.custid, i.invid FROM customer c, invoiceline i",
		Stream: true, BatchRows: 4})
	if err != nil || !open.More {
		t.Fatalf("open: %+v %v", open, err)
	}
	sampled, err := n.Execute(trading.ExecReq{Cursor: open.Cursor, Seq: 1,
		Trace: obs.TraceContext{TraceID: "t1", Parent: 7, Sampled: true}})
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Trace == nil {
		t.Fatal("sampled continuation must carry a span payload")
	}
	plain, err := n.Execute(trading.ExecReq{Cursor: open.Cursor, Seq: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Fatal("unsampled continuation must not ship trace data")
	}
	if _, err := n.Execute(trading.ExecReq{Cursor: open.Cursor, CloseCursor: true}); err != nil {
		t.Fatal(err)
	}
}
