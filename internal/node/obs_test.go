package node

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"qtrade/internal/ledger"
	"qtrade/internal/obs"
	"qtrade/internal/trading"
)

// sampled is a trace context as a traced buyer stamps it on its requests.
var sampled = obs.TraceContext{TraceID: "t", Sampled: true}

// serve drives one RFB (sampled, so its subtree reaches the trace log) and
// one purchased execution through n, and returns the offers it bid.
func serve(t *testing.T, n *Node, rfbID string) []trading.Offer {
	t.Helper()
	rfb := paperRFB()
	rfb.RFBID, rfb.Trace = rfbID, sampled
	offers, err := bidOffers(n.RequestBids(rfb))
	if err != nil || len(offers) == 0 {
		t.Fatalf("%s: %d offers, err %v", rfbID, len(offers), err)
	}
	if _, err := n.Execute(trading.ExecReq{BuyerID: "athens", OfferID: offers[0].OfferID, SQL: offers[0].SQL}); err != nil {
		t.Fatalf("%s: execute: %v", rfbID, err)
	}
	return offers
}

// TestObserverSettersAreIndependent: the node's sinks live behind one
// pointer, yet attaching or detaching one never undoes another, in either
// order, and a node with everything detached still answers.
func TestObserverSettersAreIndependent(t *testing.T) {
	n := myconosNode(t, nil)
	led, tl, m := ledger.New(8), obs.NewTraceLogN(0), obs.NewMetrics()
	rfbs := m.Counter("node.myconos.rfbs")

	n.SetLedger(led)
	n.SetTraceLog(tl)
	n.SetObs(nil, m) // after the other two: must keep both
	serve(t, n, "rfb1")
	if led.Len() != 1 || len(tl.Recent(0)) != 1 || rfbs.Value() != 1 {
		t.Fatalf("all attached: ledger %d, trace log %d, rfbs %d, want 1 each", led.Len(), len(tl.Recent(0)), rfbs.Value())
	}

	n.SetObs(nil, nil) // detaches tracer and metrics only
	serve(t, n, "rfb2")
	if led.Len() != 2 || len(tl.Recent(0)) != 2 || rfbs.Value() != 1 {
		t.Fatalf("SetObs(nil, nil): ledger %d, trace log %d, want 2 each; rfbs %d, want 1", led.Len(), len(tl.Recent(0)), rfbs.Value())
	}

	n.SetLedger(nil)
	n.SetTraceLog(nil)
	n.SetObs(nil, m) // before the other two are back: they stay detached
	offers := serve(t, n, "rfb3")
	if err := n.Award(trading.Award{RFBID: "rfb3", OfferID: offers[0].OfferID, BuyerID: "athens"}); err != nil {
		t.Fatal(err)
	}
	n.Drain("test")
	if led.Len() != 2 || len(tl.Recent(0)) != 2 || len(led.LifecycleEvents()) != 0 {
		t.Fatalf("detached sinks still fed: ledger %d, trace log %d, lifecycle %d", led.Len(), len(tl.Recent(0)), len(led.LifecycleEvents()))
	}
	if rfbs.Value() != 2 || m.Counter("node.myconos.offers_won").Value() != 1 {
		t.Fatalf("re-attached metrics: rfbs %d, want 2; offers_won %d, want 1", rfbs.Value(), m.Counter("node.myconos.offers_won").Value())
	}
}

// TestObserverSettersRaceServing swaps every sink in and out while the node
// prices, executes, streams and drains; run under -race. Whatever observer a
// call loaded, it runs to completion on it.
func TestObserverSettersRaceServing(t *testing.T) {
	n := myconosNode(t, nil)
	led, tl, tr, m := ledger.New(8), obs.NewTraceLogN(0), obs.NewTracer(), obs.NewMetrics()
	stop := make(chan struct{})
	var setters, servers sync.WaitGroup
	flip := func(attach, detach func()) {
		setters.Add(1)
		go func() {
			defer setters.Done()
			for {
				select {
				case <-stop:
					return
				default:
					attach()
					detach()
				}
			}
		}()
	}
	flip(func() { n.SetObs(tr, m) }, func() { n.SetObs(nil, nil) })
	flip(func() { n.SetLedger(led) }, func() { n.SetLedger(nil) })
	flip(func() { n.SetTraceLog(tl) }, func() { n.SetTraceLog(nil) })
	flip(func() { n.Drain("race") }, func() { n.Undrain() })

	for w := 0; w < 4; w++ {
		servers.Add(1)
		go func(w int) {
			defer servers.Done()
			for i := 0; i < 25; i++ {
				rfb := paperRFB()
				rfb.RFBID = fmt.Sprintf("w%d-%d", w, i)
				rfb.Depth = w % 2 // Depth 0 takes the admission gate, and is refused while draining
				if i%2 == 0 {
					rfb.Trace = sampled
				}
				offers, err := bidOffers(n.RequestBids(rfb))
				if errors.Is(err, trading.ErrDraining) {
					continue
				}
				if err != nil || len(offers) == 0 {
					t.Errorf("%s: %d offers, err %v", rfb.RFBID, len(offers), err)
					return
				}
				o := offers[0]
				resp, err := n.Execute(trading.ExecReq{BuyerID: "athens", OfferID: o.OfferID, SQL: o.SQL,
					Stream: true, BatchRows: 1, Trace: rfb.Trace})
				for seq := int64(1); err == nil && resp.More; seq++ {
					resp, err = n.Execute(trading.ExecReq{OfferID: o.OfferID, Cursor: resp.Cursor, Seq: seq, Trace: rfb.Trace})
				}
				if err != nil {
					t.Errorf("%s: execute: %v", rfb.RFBID, err)
					return
				}
			}
		}(w)
	}
	servers.Wait()
	close(stop)
	setters.Wait()
	if n.OpenCursors() != 0 {
		t.Fatalf("%d cursors left parked", n.OpenCursors())
	}
}

// agreeQuery joins ten customers to their invoices: a 2-way partial of ten
// rows to stream.
const agreeQuery = `SELECT c.custid, c.custname, i.charge FROM customer c, invoiceline i
	WHERE c.custid = i.custid AND c.custid < 10`

// buyStreamed purchases offer o and pulls the answer in 1-row batches under
// trace context tc, returning every reply's shipped subtree and how many
// exchanges the delivery took.
func buyStreamed(t *testing.T, n *Node, o trading.Offer, tc obs.TraceContext) ([]*obs.SpanPayload, int) {
	t.Helper()
	resp, err := n.Execute(trading.ExecReq{BuyerID: "athens", OfferID: o.OfferID, SQL: o.SQL, Stream: true, BatchRows: 1, Trace: tc})
	shipped, exchanges := []*obs.SpanPayload{resp.Trace}, 1
	for seq := int64(1); err == nil && resp.More; seq++ {
		resp, err = n.Execute(trading.ExecReq{OfferID: o.OfferID, Cursor: resp.Cursor, Seq: seq, Trace: tc})
		shipped, exchanges = append(shipped, resp.Trace), exchanges+1
	}
	if err != nil {
		t.Fatalf("streaming %s: %v", o.OfferID, err)
	}
	return shipped, exchanges
}

// joinOffer is the 2-way partial among offers.
func joinOffer(t *testing.T, offers []trading.Offer) trading.Offer {
	t.Helper()
	for _, o := range offers {
		if len(o.Bindings) == 2 && !o.PartialAgg && !o.FromView {
			return o
		}
	}
	t.Fatalf("no 2-way partial among %d offers", len(offers))
	return trading.Offer{}
}

// TestExecMSIsPerDelivery: node.<id>.exec_ms times a whole delivery, however
// many exchanges it takes, as the Served event does — one sample, from the
// opening to the last batch, whose value is the Served wall. (It used to be
// observed after the opening batch, so slow continuations never showed.)
func TestExecMSIsPerDelivery(t *testing.T) {
	n := telcoNodeCfg(t, nil)
	m, led := obs.NewMetrics(), ledger.New(0)
	n.SetObs(nil, m)
	n.SetLedger(led)
	offers, err := bidOffers(n.RequestBids(trading.RFB{RFBID: "rfb-ms", BuyerID: "athens",
		Queries: []trading.QueryRequest{{QID: "q0", SQL: agreeQuery}}}))
	if err != nil {
		t.Fatal(err)
	}
	if _, exchanges := buyStreamed(t, n, joinOffer(t, offers), obs.TraceContext{}); exchanges < 3 {
		t.Fatalf("the answer took %d exchanges, want several", exchanges)
	}
	h, served := m.Histogram("node.myconos.exec_ms"), servedEvents(led)
	if len(served) != 1 || h.Count() != 1 || h.Sum() != served[0].WallMS {
		t.Fatalf("exec_ms holds %d samples summing to %v; %d Served events %+v", h.Count(), h.Sum(), len(served), served)
	}
}

// TestSellerSinksAgree is the seller's counterpart of core.TestSinksAgree:
// one sampled RFB whose two queries share a text (a price-cache miss, then a
// hit) and one purchased answer streamed over several batches, with metrics,
// ledger and trace log attached, tell the same story in every sink — they
// are all fed from the one observer.
func TestSellerSinksAgree(t *testing.T) {
	n := telcoNodeCfg(t, nil)
	n.pool = make(chan struct{}, 1) // the two queries are priced one after the other
	m, led, tl := obs.NewMetrics(), ledger.New(0), obs.NewTraceLogN(0)
	n.SetObs(nil, m)
	n.SetLedger(led)
	n.SetTraceLog(tl)

	rfb := trading.RFB{RFBID: "rfb-agree", BuyerID: "athens", Trace: sampled,
		Queries: []trading.QueryRequest{{QID: "q0", SQL: agreeQuery}, {QID: "q1", SQL: agreeQuery}}}
	reply, err := n.RequestBids(rfb)
	if err != nil {
		t.Fatal(err)
	}
	shipped, exchanges := buyStreamed(t, n, joinOffer(t, reply.Offers), sampled)
	if exchanges < 3 {
		t.Fatalf("the answer took %d exchanges, want several", exchanges)
	}
	spans := map[string]int{}
	var count func(p *obs.SpanPayload)
	count = func(p *obs.SpanPayload) {
		spans[p.Name]++
		for _, c := range p.Children {
			count(c)
		}
	}
	for _, p := range append(shipped, reply.Trace) {
		count(p)
	}
	counter := func(name string) int { return int(m.Counter("node.myconos." + name).Value()) }

	if counter("rfbs") != 1 || spans["request-bids"] != 1 {
		t.Errorf("rfbs %d, request-bids spans %d", counter("rfbs"), spans["request-bids"])
	}
	if hits, misses := counter("pricecache_hits"), counter("pricecache_misses"); hits != 1 || misses != 1 || spans["dp-pricing"] != hits+misses {
		t.Errorf("price cache: %d hits + %d misses, %d dp-pricing spans", hits, misses, spans["dp-pricing"])
	}
	if rw := m.Histogram("node.myconos.rewrite_ms").Count(); rw != 1 || spans["rewrite"] != int(rw) {
		t.Errorf("rewrite_ms holds %d samples, %d rewrite spans", rw, spans["rewrite"])
	}
	priced := 0
	for _, neg := range led.Negotiations(0) {
		for _, e := range neg.Events {
			if e.Kind == ledger.KindPriced {
				priced++
			}
		}
	}
	if priced != len(rfb.Queries) {
		t.Errorf("%d Priced events for %d priced queries", priced, len(rfb.Queries))
	}
	served := servedEvents(led)
	if counter("execs") != 1 || spans["execute"] != 1 || len(served) != 1 || spans["fetch-batch"] != exchanges-1 {
		t.Fatalf("execs %d, execute spans %d, Served events %d, fetch-batch spans %d for %d exchanges",
			counter("execs"), spans["execute"], len(served), spans["fetch-batch"], exchanges)
	}
	if h := m.Histogram("node.myconos.exec_ms"); h.Count() != 1 || h.Sum() != served[0].WallMS {
		t.Errorf("exec_ms holds %d samples summing to %v, the Served wall is %v", h.Count(), h.Sum(), served[0].WallMS)
	}
	// The trace log keeps the subtrees that open a negotiation or a delivery.
	var logged []string
	for _, p := range tl.Recent(0) {
		logged = append(logged, p.Name)
	}
	if fmt.Sprint(logged) != "[request-bids execute]" && fmt.Sprint(logged) != "[execute request-bids]" {
		t.Errorf("trace log holds %v, want the request-bids and execute subtrees", logged)
	}
}
