package ledger

import (
	"bufio"
	"encoding/json"
	"math"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
)

// record one full synthetic negotiation against l and return its handle.
func oneNegotiation(l *Ledger) *Rec {
	r := l.Begin("hq", "SELECT * FROM t")
	r.RFBIssued("hq-rfb1", 1, 2)
	r.Bid(1, "corfu", "q0", "corfu/hq-rfb1/q0/o1", 10, 12)
	r.Bid(1, "myconos", "q0", "myconos/hq-rfb1/q0/o1", 8, 9)
	r.Round(1, 2, 2, 2, 3.5)
	l.Priced("hq-rfb1", "hq", "corfu", "q0", 1, false, 0.4)
	r.Award("myconos", "q0", "myconos/hq-rfb1/q0/o1", 8, 9)
	r.ExecStarted()
	r.Fetch("myconos", "myconos/hq-rfb1/q0/o1", "SELECT 1", 8, 16, 14, 5, 120, "")
	r.ExecFinished(20, 5, "")
	l.Served("hq-rfb1", "myconos", "myconos/hq-rfb1/q0/o1", "SELECT 1", 14, 5, 120)
	return r
}

func TestNegotiationChain(t *testing.T) {
	l := New(0)
	oneNegotiation(l)
	negs := l.Negotiations(0)
	if len(negs) != 1 {
		t.Fatalf("want 1 negotiation, got %d", len(negs))
	}
	n := negs[0]
	if n.ID != "hq-rfb1" || n.Buyer != "hq" || !n.Awarded {
		t.Fatalf("bad negotiation header: %+v", n)
	}
	wantKinds := []string{KindRFB, KindBid, KindBid, KindRound, KindPriced,
		KindAward, KindExecStart, KindFetch, KindExec, KindServed}
	if len(n.Events) != len(wantKinds) {
		t.Fatalf("want %d events, got %d: %+v", len(wantKinds), len(n.Events), n.Events)
	}
	var lastSeq int64
	for i, e := range n.Events {
		if e.Kind != wantKinds[i] {
			t.Errorf("event %d: want kind %s, got %s", i, wantKinds[i], e.Kind)
		}
		if e.Seq <= lastSeq {
			t.Errorf("event %d: seq not monotonic (%d after %d)", i, e.Seq, lastSeq)
		}
		lastSeq = e.Seq
	}
	// The seller-side priced event must land in the buyer's record (shared
	// ledger) because RFBIssued indexed the RFBID.
	if n.Events[4].Seller != "corfu" || n.Events[4].Offers != 1 {
		t.Errorf("priced event misrecorded: %+v", n.Events[4])
	}
	if f := n.Events[7]; f.WallMS != 16 || f.SellerMS != 14 || f.Rows != 5 || f.Bytes != 120 {
		t.Errorf("fetch actuals misrecorded: %+v", f)
	}
}

func TestRingEviction(t *testing.T) {
	l := New(3)
	for i := 0; i < 5; i++ {
		r := l.Begin("hq", "q")
		r.RFBIssued("rfb"+string(rune('a'+i)), 1, 1)
	}
	if l.Len() != 3 {
		t.Fatalf("want ring of 3, got %d", l.Len())
	}
	negs := l.Negotiations(0)
	if negs[0].ID != "rfbc" || negs[2].ID != "rfbe" {
		t.Fatalf("wrong retention order: %s..%s", negs[0].ID, negs[2].ID)
	}
	// Evicted RFBIDs must not resurrect their records via seller events.
	l.Priced("rfba", "hq", "s", "q0", 1, false, 1)
	if l.Len() != 3 {
		t.Fatalf("evicted RFB resurrected the ring: %d", l.Len())
	}
	if got := l.Negotiations(0)[2].ID; got != "rfba" {
		t.Fatalf("priced event for evicted RFB should open a fresh record, newest is %s", got)
	}
	// Negotiations(n) limits to the newest n.
	if got := l.Negotiations(2); len(got) != 2 {
		t.Fatalf("Negotiations(2) returned %d", len(got))
	}
}

// A record remembers the RFB ids filed under it, and its eviction deletes
// exactly those from the index: every iteration's id of the evicted
// negotiation, a seller-opened record's one id, and nobody else's.
func TestEvictionRemovesExactlyItsOwnIDs(t *testing.T) {
	l := New(2)
	a := l.Begin("hq", "a")
	a.RFBIssued("a-1", 1, 1)
	a.RFBIssued("a-2", 2, 1)
	l.Priced("s-1", "far", "corfu", "q0", 1, false, 1) // seller-local record
	b := l.Begin("hq", "b")                            // evicts a
	b.RFBIssued("b-1", 1, 1)
	index := func() string {
		l.mu.Lock()
		defer l.mu.Unlock()
		ids := make([]string, 0, len(l.byRFB))
		for id := range l.byRFB {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		return strings.Join(ids, " ")
	}
	if got := index(); got != "b-1 s-1" {
		t.Fatalf("after evicting a the index holds %q, want %q", got, "b-1 s-1")
	}
	// An id filed again under a newer record is that record's: the older
	// owner's eviction must leave it alone.
	b.RFBIssued("s-1", 2, 1)
	l.Begin("hq", "c") // evicts the seller-local record that first held s-1
	if got := index(); got != "b-1 s-1" {
		t.Fatalf("after evicting s-1's first owner the index holds %q, want %q", got, "b-1 s-1")
	}
	l.Begin("hq", "d") // evicts b
	if got := index(); got != "" {
		t.Fatalf("after evicting b the index holds %q, want it empty", got)
	}
}

func TestSellerOnlyLedger(t *testing.T) {
	// A qtnode process has no buyer Rec: Priced/Served must open records
	// keyed by the remote buyer's RFBID.
	l := New(0)
	l.Priced("remote-rfb1", "hq", "corfu", "q0", 2, true, 0.2)
	l.Served("remote-rfb1", "corfu", "corfu/remote-rfb1/q0/o1", "SELECT 1", 3, 4, 99)
	negs := l.Negotiations(0)
	if len(negs) != 1 || negs[0].ID != "remote-rfb1" || negs[0].Buyer != "hq" {
		t.Fatalf("seller-only record wrong: %+v", negs)
	}
	if len(negs[0].Events) != 2 || !negs[0].Events[0].CacheHit {
		t.Fatalf("events wrong: %+v", negs[0].Events)
	}
}

func TestCalibrationReport(t *testing.T) {
	l := New(0)
	r := l.Begin("hq", "q")
	r.RFBIssued("rfb1", 1, 1)
	for i := 0; i < 4; i++ {
		r.Bid(1, "slow", "q0", "o", 10, 10)
		r.Bid(1, "good", "q0", "o", 10, 10)
	}
	r.Award("slow", "q0", "o", 10, 10)
	r.Award("good", "q0", "o", 10, 10)
	// "good" quotes perfectly; "slow" runs 4x its quote.
	r.Fetch("good", "o", "s", 10, 10, 9, 1, 10, "")
	r.Fetch("slow", "o", "s", 10, 40, 39, 1, 10, "")
	r.Fetch("slow", "o", "s", 10, 40, 39, 1, 10, "")
	rep := l.Calibration()
	if rep.Negotiations != 1 || len(rep.Sellers) != 2 {
		t.Fatalf("report shape: %+v", rep)
	}
	good, slow := rep.Sellers[0], rep.Sellers[1]
	if good.Seller != "good" || slow.Seller != "slow" {
		t.Fatalf("seller order: %s, %s", good.Seller, slow.Seller)
	}
	if good.Bids != 4 || good.Wins != 1 || good.WinRate != 0.25 || good.Execs != 1 {
		t.Errorf("good tallies: %+v", good)
	}
	if math.Abs(good.MeanRatio-1) > 1e-9 || math.Abs(good.EWMAErr) > 1e-9 {
		t.Errorf("good should be perfectly calibrated: %+v", good)
	}
	if math.Abs(slow.MeanRatio-4) > 1e-9 || slow.EWMAErr < 2.9 {
		t.Errorf("slow should show 4x ratio and large positive EWMA error: %+v", slow)
	}
	if slow.P95Ratio < 4 {
		t.Errorf("slow p95 ratio %v < 4", slow.P95Ratio)
	}
	// Where the time went is the metrics registry's (core.TestEveryPhaseHasOneHistogram):
	// the report lists sellers only.
	if txt := rep.Text(); !strings.Contains(txt, "slow") || strings.Contains(txt, "phase") {
		t.Errorf("Text must render the sellers and no phase table:\n%s", txt)
	}
}

func TestJSONLExport(t *testing.T) {
	l := New(0)
	oneNegotiation(l)
	var b strings.Builder
	if err := l.WriteJSONL(&b, 0); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	lines := 0
	for sc.Scan() {
		var neg Negotiation
		if err := json.Unmarshal(sc.Bytes(), &neg); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
		if neg.ID == "" || len(neg.Events) == 0 {
			t.Fatalf("empty negotiation on line %d", lines)
		}
		lines++
	}
	if lines != 1 {
		t.Fatalf("want 1 JSONL line, got %d", lines)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	l := New(0)

	// /ledger before any negotiation: 404.
	rw := httptest.NewRecorder()
	l.ServeHTTP(rw, httptest.NewRequest("GET", "/ledger", nil))
	if rw.Code != 404 {
		t.Fatalf("empty ledger should 404, got %d", rw.Code)
	}

	oneNegotiation(l)
	oneNegotiation(l)

	rw = httptest.NewRecorder()
	l.ServeHTTP(rw, httptest.NewRequest("GET", "/ledger", nil))
	if rw.Code != 200 {
		t.Fatalf("/ledger: %d", rw.Code)
	}
	if ct := rw.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/jsonl") {
		t.Errorf("/ledger content-type: %s", ct)
	}
	if n := strings.Count(rw.Body.String(), "\n"); n != 2 {
		t.Errorf("want 2 JSONL lines, got %d", n)
	}

	// ?n=1 limits to the newest negotiation.
	rw = httptest.NewRecorder()
	l.ServeHTTP(rw, httptest.NewRequest("GET", "/ledger?n=1", nil))
	if n := strings.Count(rw.Body.String(), "\n"); n != 1 {
		t.Errorf("?n=1: want 1 line, got %d", n)
	}

	// Bad n and non-GET are client errors.
	rw = httptest.NewRecorder()
	l.ServeHTTP(rw, httptest.NewRequest("GET", "/ledger?n=x", nil))
	if rw.Code != 400 {
		t.Errorf("bad n: %d", rw.Code)
	}
	rw = httptest.NewRecorder()
	l.ServeHTTP(rw, httptest.NewRequest("POST", "/ledger", nil))
	if rw.Code != 405 {
		t.Errorf("POST /ledger: %d", rw.Code)
	}

	// /calibration: JSON object with the sellers seen above.
	rw = httptest.NewRecorder()
	l.CalibrationHandler().ServeHTTP(rw, httptest.NewRequest("GET", "/calibration", nil))
	if rw.Code != 200 {
		t.Fatalf("/calibration: %d", rw.Code)
	}
	if ct := rw.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/calibration content-type: %s", ct)
	}
	var rep Report
	if err := json.Unmarshal(rw.Body.Bytes(), &rep); err != nil {
		t.Fatalf("/calibration not JSON: %v", err)
	}
	if len(rep.Sellers) != 2 || rep.Sellers[0].Seller != "corfu" {
		t.Errorf("calibration shape: %+v", rep)
	}
	rw = httptest.NewRecorder()
	l.CalibrationHandler().ServeHTTP(rw, httptest.NewRequest("POST", "/calibration", nil))
	if rw.Code != 405 {
		t.Errorf("POST /calibration: %d", rw.Code)
	}
}

// TestDisabledLedgerZeroAlloc pins the acceptance criterion that an unset
// ledger adds zero allocations on the negotiation hot path: every recording
// call on a nil Ledger / nil Rec must be a pure nil check.
func TestDisabledLedgerZeroAlloc(t *testing.T) {
	var l *Ledger
	allocs := testing.AllocsPerRun(100, func() {
		r := l.Begin("hq", "q")
		r.RFBIssued("rfb", 1, 1)
		r.Bid(1, "s", "q0", "o", 1, 1)
		r.Round(1, 1, 1, 1, 1)
		r.Award("s", "q0", "o", 1, 1)
		r.ExecStarted()
		r.Fetch("s", "o", "sql", 1, 1, 1, 1, 1, "")
		r.ExecFinished(1, 1, "")
		r.Recovery("a", "b", "o", "crash")
		l.Priced("rfb", "hq", "s", "q0", 1, false, 1)
		l.Served("rfb", "s", "o", "sql", 1, 1, 1)
		l.Anomaly("p95_regression", "buyer.hq.wall_ms", 2, 1, 0)
		if l.Len() != 0 {
			t.Fatal("nil ledger has length")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled ledger allocated %.1f objects per negotiation", allocs)
	}
}

func TestConcurrentRecording(t *testing.T) {
	l := New(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				oneNegotiation(l)
				_ = l.Calibration()
			}
		}()
	}
	wg.Wait()
	if l.Len() != 16 {
		t.Fatalf("ring should be full at 16, got %d", l.Len())
	}
	rep := l.Calibration()
	var total int64
	for _, s := range rep.Sellers {
		total += s.Execs
	}
	if total != 8*50 {
		t.Fatalf("calibration lost executions: %d", total)
	}
}

// Membership events: joins, drains, undrains and leaves are recorded in
// order into a bounded ring, nil-safely, and the JSONL export appends them
// as one synthetic "lifecycle" negotiation after the real ones.
func TestLifecycleEvents(t *testing.T) {
	var nilLedger *Ledger
	nilLedger.Lifecycle(KindJoin, "n1", "") // must not panic
	if nilLedger.LifecycleEvents() != nil {
		t.Fatal("nil ledger has no lifecycle events")
	}

	l := New(4)
	if l.LifecycleEvents() != nil {
		t.Fatal("fresh ledger has no lifecycle events")
	}
	oneNegotiation(l)
	l.Lifecycle(KindJoin, "n9", "")
	l.Lifecycle(KindDrain, "n4", "elastic scale-down")
	l.Lifecycle(KindUndrain, "n4", "")
	l.Lifecycle(KindLeave, "n4", "decommissioned")

	life := l.LifecycleEvents()
	wantKinds := []string{KindJoin, KindDrain, KindUndrain, KindLeave}
	if len(life) != len(wantKinds) {
		t.Fatalf("lifecycle events: %+v", life)
	}
	var lastSeq int64
	for i, e := range life {
		if e.Kind != wantKinds[i] {
			t.Fatalf("event %d kind %s, want %s", i, e.Kind, wantKinds[i])
		}
		if e.At.IsZero() || e.Seq <= lastSeq {
			t.Fatalf("event %d missing timestamp or ordering: %+v", i, e)
		}
		lastSeq = e.Seq
	}
	if life[1].Seller != "n4" || life[1].Reason != "elastic scale-down" {
		t.Fatalf("drain context lost: %+v", life[1])
	}

	// The ring shares the negotiation capacity: a 5th event evicts the oldest.
	l.Lifecycle(KindJoin, "n10", "")
	life = l.LifecycleEvents()
	if len(life) != 4 || life[0].Kind != KindDrain {
		t.Fatalf("lifecycle ring must evict oldest-first: %+v", life)
	}

	var buf strings.Builder
	if err := l.WriteJSONL(&buf, 0); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want negotiation + lifecycle lines, got %d:\n%s", len(lines), buf.String())
	}
	var last Negotiation
	if err := json.Unmarshal([]byte(lines[1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.ID != "lifecycle" || len(last.Events) != 4 {
		t.Fatalf("lifecycle export line: %+v", last)
	}
}

// Recovery events carry the substitution triple plus the failure class, and
// every recording entry point is nil-safe.
func TestRecoveryEventAndNilRec(t *testing.T) {
	var r *Rec
	r.Recovery("corfu", "myconos", "o1", "crash") // must not panic

	l := New(0)
	rec := oneNegotiation(l)
	rec.Recovery("corfu", "myconos", "o1", "drain")
	negs := l.Negotiations(0)
	var got *Event
	for i, e := range negs[0].Events {
		if e.Kind == KindRecovery {
			got = &negs[0].Events[i]
		}
	}
	if got == nil {
		t.Fatal("no recovery event recorded")
	}
	if got.Err != "corfu" || got.Seller != "myconos" || got.OfferID != "o1" || got.Reason != "drain" {
		t.Fatalf("recovery event: %+v", got)
	}
}

// A record holds its execution's dossier: filed by Finish, replaced by a
// re-run, read with the negotiation's events filled in, and found by the
// negotiation's name; the fetch and recovery sums it reads are kept as the
// events arrive.
func TestRecordHoldsItsDossier(t *testing.T) {
	l := New(2)
	r := oneNegotiation(l)
	r.RFBIssued("hq-rfb2", 2, 1)
	r.Fetch("corfu", "o2", "SELECT 2", 4, 6, 5, 2, 30, "")
	r.Recovery("corfu", "myconos", "o2", "crash")
	fetchMS, bytes, recs := r.Delivery()
	if fetchMS != 22 || bytes != 150 || len(recs) != 1 || recs[0] != (Recovery{Failed: "corfu", Substitute: "myconos", OfferID: "o2", Reason: "crash"}) {
		t.Fatalf("delivery sums: %v ms, %d bytes, %+v", fetchMS, bytes, recs)
	}
	if r.Dossier() != nil || len(l.Finished(0)) != 0 {
		t.Fatal("no dossier before Finish")
	}
	r.Finish(&Dossier{ID: "hq-rfb1", WallMS: 5})
	r.Finish(&Dossier{ID: "hq-rfb1", WallMS: 7}) // a recovery re-run replaces it
	d := r.Dossier()
	if d.WallMS != 7 || d.Ledger.ID != "hq-rfb1" || len(d.Ledger.Events) != 13 {
		t.Fatalf("dossier read: wall %v, ledger %s with %d events", d.WallMS, d.Ledger.ID, len(d.Ledger.Events))
	}
	if r.Outcome().Ledger.Events != nil {
		t.Fatal("the filed dossier keeps no copy of the events")
	}
	if l.Lookup("hq-rfb1") != r || l.Lookup("hq-rfb2") != r || l.Lookup("nope") != nil {
		t.Fatal("Lookup finds a record by any id filed under it")
	}
	if r.Ledger() != l || l.Capacity() != 2 {
		t.Fatal("record's ledger and ring capacity")
	}

	// A negotiation that sends no RFB is named once and indexed like one.
	e := l.Begin("hq", "SELECT 3")
	e.Name("hq-rfb3")
	e.Finish(&Dossier{ID: "hq-rfb3"})
	l.Begin("hq", "SELECT 4") // evicts r: newest first, finished only
	if got := l.Finished(0); len(got) != 1 || got[0] != e || l.Lookup("hq-rfb3") != e || l.Lookup("hq-rfb1") != nil {
		t.Fatalf("finished after eviction: %d records", len(got))
	}
	if got := l.Finished(1); len(got) != 1 {
		t.Fatalf("Finished(1): %d", len(got))
	}

	var nilL *Ledger
	var nilR *Rec
	nilR.Name("x")
	nilR.Finish(&Dossier{})
	if nilL.Finished(0) != nil || nilL.Lookup("x") != nil || nilL.Capacity() != 0 || nilR.Dossier() != nil || nilR.Ledger() != nil {
		t.Fatal("nil ledger and record must no-op")
	}
	if ms, b, rs := nilR.Delivery(); ms != 0 || b != 0 || rs != nil {
		t.Fatal("nil record delivery")
	}
}
