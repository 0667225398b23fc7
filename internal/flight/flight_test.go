package flight

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"qtrade/internal/ledger"
	"qtrade/internal/obs"
)

func d(id string, wall float64) *ledger.Dossier {
	return &ledger.Dossier{ID: id, Buyer: "hq", SQL: "SELECT 1", WallMS: wall}
}

// admit opens a negotiation named id on l and admits a dossier of the given
// wall for it, as an execution's finalizer does.
func admit(r *Recorder, l *ledger.Ledger, id string, wall float64) *ledger.Rec {
	rec := l.Begin("hq", "SELECT 1")
	rec.RFBIssued(id, 1, 1)
	r.Admit(rec, d(id, wall))
	return rec
}

// outliers reads the worst-K set's dossiers, worst first.
func outliers(r *Recorder) []*ledger.Dossier {
	_, outs := r.view()
	return dossiers(outs)
}

// TestDisabledRecorderZeroAlloc pins the off switch: a nil *Recorder must
// be free on the hot path, exactly like the nil ledger and tracer.
func TestDisabledRecorderZeroAlloc(t *testing.T) {
	var r *Recorder
	doss := d("q1", 5)
	rec := ledger.New(1).Begin("hq", "SELECT 1")
	allocs := testing.AllocsPerRun(100, func() {
		r.Admit(rec, doss)
		r.SetTriggers(Triggers{SlowMS: 1})
		_ = r.Triggers()
		_ = r.Recent(4)
		_ = r.Slow(4)
		_ = r.Get("q1")
		_, _ = r.Stats()
	})
	if allocs != 0 {
		t.Fatalf("disabled recorder must not allocate, got %.1f allocs/op", allocs)
	}
}

// TestTriggerEdges pins the rule boundaries the outlier set depends on: the
// SLO and recovery rules, and the estimate rules against an explicit norm.
func TestTriggerEdges(t *testing.T) {
	trig := Triggers{SlowMS: 100}

	// Exactly at the SLO counts as a breach.
	if got := trig.Evaluate(&ledger.Dossier{WallMS: 100}, nil); len(got) != 1 || got[0] != TrigSlow {
		t.Fatalf("exactly-at-SLO must trip slow_slo: %v", got)
	}
	if got := trig.Evaluate(&ledger.Dossier{WallMS: 99.999}, nil); len(got) != 0 {
		t.Fatalf("below SLO must not trip: %v", got)
	}
	// SlowMS == 0 disables the latency rule entirely.
	if got := (Triggers{}).Evaluate(&ledger.Dossier{WallMS: 1e9}, nil); len(got) != 0 {
		t.Fatalf("disabled SLO tripped: %v", got)
	}

	// A recovery-then-success query still carries its recovery list and is
	// captured even though it finished fine and fast.
	rec := &ledger.Dossier{WallMS: 1, Recoveries: []ledger.Recovery{{Failed: "n2", Substitute: "n3", Reason: "crash"}}}
	if got := trig.Evaluate(rec, nil); len(got) != 1 || got[0] != TrigRecovery {
		t.Fatalf("recovery-then-success must trip recovery: %v", got)
	}

	// The estimate rules judge against a norm: a federation whose queries run
	// at 1/16 of their quote with estimates 2× off.
	at := func(costRatio, cardError float64) *Norm {
		return &Norm{cost: baseline{v: math.Log(costRatio), seen: true}, card: baseline{v: math.Log(cardError), seen: true}}
	}
	eval := func(d *ledger.Dossier) []string { return (Triggers{}).Evaluate(d, at(1.0/16, 2)) }
	for _, tc := range []struct {
		name string
		d    ledger.Dossier
		want string
	}{
		{"4x above the cost norm", ledger.Dossier{CostRatio: 0.25}, TrigCostOutlier},
		{"4x below the cost norm", ledger.Dossier{CostRatio: 1.0 / 64}, TrigCostOutlier},
		{"3.9x above the cost norm", ledger.Dossier{CostRatio: 3.9 / 16}, ""},
		{"a perfect quote in a federation that quotes 16x high", ledger.Dossier{CostRatio: 1}, TrigCostOutlier},
		{"the usual cost ratio", ledger.Dossier{CostRatio: 1.0 / 16}, ""},
		{"unknown ratio (no quotes)", ledger.Dossier{CostRatio: 0}, ""},
		{"8x above the card norm", ledger.Dossier{CardError: 16}, TrigCardError},
		{"7.9x above the card norm", ledger.Dossier{CardError: 15.8}, ""},
		{"a card error 8x on a perfect model, 4x on the norm", ledger.Dossier{CardError: 8}, ""},
	} {
		got := eval(&tc.d)
		if want := []string{tc.want}; (tc.want == "" && len(got) != 0) || (tc.want != "" && fmt.Sprint(got) != fmt.Sprint(want)) {
			t.Errorf("%s: tripped %v, want %q", tc.name, got, tc.want)
		}
	}
	// A nil norm is a perfect model: the fixed 4× and 8× bands.
	for _, d := range []ledger.Dossier{{CostRatio: 4}, {CostRatio: 0.25}, {CardError: 8}} {
		if got := (Triggers{}).Evaluate(&d, nil); len(got) != 1 {
			t.Errorf("%+v against a perfect model tripped %v", d, got)
		}
	}
	if got := (Triggers{}).Evaluate(&ledger.Dossier{CostRatio: 3.9, CardError: 7.9}, nil); len(got) != 0 {
		t.Errorf("in band of a perfect model tripped %v", got)
	}

	// The norm follows the watchdog's rule: the first value seeds it without
	// tripping, an in-band value moves it by baselineAlpha, and a trip is not
	// folded in, so a sustained regression keeps tripping.
	var n Norm
	for i, tc := range []struct {
		ratio float64
		trips bool
		norm  float64 // log CostRatio after the dossier
	}{
		{1.0 / 32, false, math.Log(1.0 / 32)},
		{1.0 / 16, false, 0.7*math.Log(1.0/32) + 0.3*math.Log(1.0/16)},
		{1, true, 0.7*math.Log(1.0/32) + 0.3*math.Log(1.0/16)},
		{1, true, 0.7*math.Log(1.0/32) + 0.3*math.Log(1.0/16)},
	} {
		got := (Triggers{}).Evaluate(&ledger.Dossier{CostRatio: tc.ratio}, &n)
		if (len(got) == 1) != tc.trips || math.Abs(n.cost.v-tc.norm) > 1e-12 || n.card.seen {
			t.Errorf("dossier %d (ratio %v): tripped %v, norm %v (card seen %v), want trip %v norm %v",
				i, tc.ratio, got, n.cost.v, n.card.seen, tc.trips, tc.norm)
		}
	}

	// Multiple rules can fire at once; order is stable.
	multi := trig.Evaluate(&ledger.Dossier{WallMS: 500, CostRatio: 10, CardError: 20,
		Recoveries: []ledger.Recovery{{Failed: "n2"}}}, nil)
	want := []string{TrigSlow, TrigRecovery, TrigCostOutlier, TrigCardError}
	if fmt.Sprint(multi) != fmt.Sprint(want) {
		t.Fatalf("multi-trigger: got %v want %v", multi, want)
	}
}

// TestRecorderRetention pins that recent dossiers are the ledger ring's, the
// worst-K ordering, an outlier outliving its ring eviction, and the
// replace-in-place semantics recovery re-execution depends on.
func TestRecorderRetention(t *testing.T) {
	l := ledger.New(4)
	r := NewRecorder(2)
	r.SetTriggers(Triggers{SlowMS: 100})

	for i := 0; i < 8; i++ {
		admit(r, l, fmt.Sprintf("q%d", i), float64(10*i)) // q0..q7, walls 0..70
	}
	recent := r.Recent(0)
	if len(recent) != 4 || recent[0].ID != "q7" || recent[3].ID != "q4" {
		t.Fatalf("recent must follow the ledger ring: %v", ids(recent))
	}
	if got := r.Recent(2); len(got) != 2 || got[0].ID != "q7" {
		t.Fatalf("recent limit: %v", ids(got))
	}
	// A negotiation that never executed takes a ring slot but lists nothing,
	// and nothing is kept for an execution without a record.
	l.Begin("hq", "SELECT 2").RFBIssued("unexecuted", 1, 1)
	r.Admit(nil, d("orphan", 500))
	if got := r.Recent(0); len(got) != 3 || got[0].ID != "q7" || got[2].ID != "q5" {
		t.Fatalf("recent after an unexecuted negotiation: %v", ids(got))
	}
	if len(outliers(r)) != 0 {
		t.Fatal("nothing breached the SLO yet")
	}

	// Three breaches into a worst-2 set: the mildest one falls out.
	admit(r, l, "s1", 150)
	s2 := admit(r, l, "s2", 400)
	admit(r, l, "s3", 250)
	out := outliers(r)
	if len(out) != 2 || out[0].ID != "s2" || out[1].ID != "s3" {
		t.Fatalf("worst-K: %v", ids(out))
	}
	if out[0].Triggers[0] != TrigSlow {
		t.Fatalf("admitted dossier must be stamped with its triggers: %v", out[0].Triggers)
	}

	// The ring rotates past every breach; the outliers stay addressable, a
	// breach the outlier set dropped does not.
	for i := 0; i < 4; i++ {
		admit(r, l, fmt.Sprintf("f%d", i), 1)
	}
	if got := r.Get("s2"); got == nil || got.WallMS != 400 || len(got.Ledger.Events) != 1 {
		t.Fatalf("outlier must survive ring eviction with its ledger chain: %+v", got)
	}
	if r.Get("s1") != nil {
		t.Fatal("s1 was evicted from the ring and dropped from the outliers")
	}

	// Re-admitting a negotiation (recovery re-executed the plan) replaces its
	// dossier, never duplicates it: in the outliers, and in the recent list.
	r.Admit(s2, d("s2", 300))
	if got := r.Get("s2"); got.WallMS != 300 {
		t.Fatalf("replace in place: %v", got.WallMS)
	}
	if out := outliers(r); len(out) != 2 || out[0].ID != "s2" || out[1].ID != "s3" {
		t.Fatalf("re-admitted outlier: %v", ids(out))
	}
	f3 := l.Lookup("f3")
	r.Admit(f3, d("f3", 600))
	r.Admit(f3, d("f3", 700))
	in := func(ds []*ledger.Dossier) (n int) {
		for _, x := range ds {
			if x.ID == "f3" {
				n++
			}
		}
		return n
	}
	if in(r.Recent(0)) != 1 || in(outliers(r)) != 1 || outliers(r)[0].WallMS != 700 {
		t.Fatalf("re-admitted f3: recent %v outliers %v", ids(r.Recent(0)), ids(outliers(r)))
	}

	admitted, flagged := r.Stats()
	if admitted != 18 || flagged != 6 {
		t.Fatalf("stats: admitted=%d flagged=%d", admitted, flagged)
	}
}

// TestRecorderSlow pins the merged slowest-first view behind qtsql \slow:
// the outlier set and the ledger's records, each record once.
func TestRecorderSlow(t *testing.T) {
	l := ledger.New(3)
	r := NewRecorder(0)
	r.SetTriggers(Triggers{SlowMS: 100})
	admit(r, l, "a", 150) // outlier, will fall out of the ring
	admit(r, l, "b", 20)
	admit(r, l, "c", 90)
	admit(r, l, "e", 50) // evicts a from the ring
	slow := r.Slow(0)
	if len(slow) != 4 || slow[0].ID != "a" || slow[1].ID != "c" || slow[2].ID != "e" || slow[3].ID != "b" {
		t.Fatalf("slow view: %v", ids(slow))
	}
	if got := r.Slow(2); len(got) != 2 || got[0].ID != "a" || got[1].ID != "c" {
		t.Fatalf("slow limit: %v", ids(got))
	}
	// A flagged record still in the ring is listed once.
	admit(r, l, "g", 200)
	if got := r.Slow(0); len(got) != 4 || got[0].ID != "g" || got[1].ID != "a" {
		t.Fatalf("slow view with a ring outlier: %v", ids(got))
	}
}

// TestRecorderConcurrentAdmitAndRead: executions finishing on many
// goroutines admit into one recorder over one ledger while the views read
// it; run under -race. The outlier set stays worst-first and bounded.
func TestRecorderConcurrentAdmitAndRead(t *testing.T) {
	l := ledger.New(16)
	r := NewRecorder(4)
	r.SetTriggers(Triggers{SlowMS: 50})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := fmt.Sprintf("g%d-q%d", g, i)
				rec := admit(r, l, id, float64(i*2))
				r.Admit(rec, d(id, float64(i*3))) // a recovery re-run
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			for _, x := range r.Slow(5) {
				_ = r.Get(x.ID)
			}
			_ = r.Recent(3)
			r.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/debug/queries", nil))
		}
	}()
	wg.Wait()
	<-done
	if admitted, _ := r.Stats(); admitted != 800 {
		t.Fatalf("admitted %d, want 800", admitted)
	}
	out := outliers(r)
	if len(out) != 4 || out[0].WallMS != 147 || out[3].WallMS != 147 {
		t.Fatalf("outliers: %v", ids(out))
	}
}

func ids(ds []*ledger.Dossier) []string {
	out := make([]string, len(ds))
	for i, x := range ds {
		out[i] = x.ID
	}
	return out
}

// TestRecorderHTTP drives both endpoints through real requests.
func TestRecorderHTTP(t *testing.T) {
	r := NewRecorder(0)
	r.SetTriggers(Triggers{SlowMS: 100})
	l := ledger.New(4)
	rec := l.Begin("hq", "SELECT x FROM t")
	rec.RFBIssued("hq-rfb1", 1, 2)
	full := &ledger.Dossier{
		ID: "hq-rfb1", Buyer: "hq", SQL: "SELECT x FROM t", WallMS: 250,
		OptimizeMS: 50, ExecMS: 200, QuotedMS: 40, CostRatio: 5,
		Rows: 10, WireBytes: 1234,
		Recoveries: []ledger.Recovery{{Failed: "n2", Substitute: "n3", OfferID: "o9", Reason: "crash"}},
		Operators:  []ledger.OpStat{{Op: "Join", EstRows: 10, Rows: 80, ErrRatio: 7.36, Executed: true}},
		Spans:      []*obs.SpanPayload{{Source: "hq", Name: "optimize"}},
	}
	r.Admit(rec, full)
	admit(r, l, "hq-rfb2", 5)

	// List view.
	w := httptest.NewRecorder()
	r.ServeHTTP(w, httptest.NewRequest("GET", "/debug/queries", nil))
	if w.Code != 200 {
		t.Fatalf("list: %d %s", w.Code, w.Body)
	}
	var p recorderPayload
	if err := json.Unmarshal(w.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if p.Capacity != 4 || p.WorstK != DefaultWorstK || p.Admitted != 2 || p.Flagged != 1 || len(p.Recent) != 2 || len(p.Outliers) != 1 {
		t.Fatalf("payload: %+v", p)
	}
	if p.Outliers[0].ID != "hq-rfb1" || p.Outliers[0].Recoveries != 1 || len(p.Outliers[0].Triggers) == 0 {
		t.Fatalf("outlier summary: %+v", p.Outliers[0])
	}

	// ?n limit and bad n.
	w = httptest.NewRecorder()
	r.ServeHTTP(w, httptest.NewRequest("GET", "/debug/queries?n=1", nil))
	p = recorderPayload{}
	_ = json.Unmarshal(w.Body.Bytes(), &p)
	if len(p.Recent) != 1 || p.Recent[0].ID != "hq-rfb2" {
		t.Fatalf("n=1: %+v", p.Recent)
	}
	w = httptest.NewRecorder()
	r.ServeHTTP(w, httptest.NewRequest("GET", "/debug/queries?n=zero", nil))
	if w.Code != 400 {
		t.Fatalf("bad n: %d", w.Code)
	}

	// Detail view: one response carrying spans + ledger + operators +
	// quoted-vs-measured — the acceptance shape.
	w = httptest.NewRecorder()
	r.ServeHTTP(w, httptest.NewRequest("GET", "/debug/queries/hq-rfb1", nil))
	if w.Code != 200 {
		t.Fatalf("detail: %d %s", w.Code, w.Body)
	}
	body := w.Body.String()
	for _, want := range []string{`"optimize"`, `"rfb"`, `"est_rows": 10`, `"actual_rows": 80`,
		`"quoted_ms": 40`, `"exec_ms": 200`, `"cost_ratio": 5`, `"reason": "crash"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("detail missing %s:\n%s", want, body)
		}
	}

	w = httptest.NewRecorder()
	r.ServeHTTP(w, httptest.NewRequest("GET", "/debug/queries/nope", nil))
	if w.Code != 404 {
		t.Fatalf("unknown id: %d", w.Code)
	}

	var nilR *Recorder
	w = httptest.NewRecorder()
	nilR.ServeHTTP(w, httptest.NewRequest("GET", "/debug/queries", nil))
	if w.Code != 404 || !strings.Contains(w.Body.String(), "disabled") {
		t.Fatalf("nil recorder: %d %s", w.Code, w.Body)
	}
}
