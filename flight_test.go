package qtrade

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"qtrade/internal/flight"
	"qtrade/internal/ledger"
)

// TestWithFlightRecorderEndToEnd drives real queries through the public API
// and checks that every completed execution lands as one dossier, complete
// with ledger events, operator actuals, and both span trees, and that the
// HTTP surface serves it back.
func TestWithFlightRecorderEndToEnd(t *testing.T) {
	fed := buildLedgerFed(t, []FederationOption{WithFlightRecorder(8)})
	if fed.FlightRecorder() == nil {
		t.Fatal("WithFlightRecorder did not attach a recorder")
	}
	if fed.Ledger() == nil {
		t.Fatal("flight recorder did not auto-attach a default ledger")
	}

	res, err := fed.Query("hq", totalsQuery, WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %v", res.Rows)
	}

	ds := fed.SlowQueries(10)
	if len(ds) != 1 {
		t.Fatalf("dossiers: %d", len(ds))
	}
	d := ds[0]
	// The dossier stores the parser's rendering of the query, not the raw text.
	if !strings.Contains(d.SQL, "SUM(i.charge)") || d.Buyer != "hq" {
		t.Fatalf("dossier identity: %q buyer %q", d.SQL, d.Buyer)
	}
	if d.WallMS <= 0 || d.OptimizeMS <= 0 || d.ExecMS <= 0 {
		t.Fatalf("dossier walls: %+v", d)
	}
	if d.Rows != 2 {
		t.Fatalf("dossier rows: %d", d.Rows)
	}
	if len(d.Ledger.Events) == 0 {
		t.Fatal("dossier carries no ledger events")
	}
	if len(d.Operators) == 0 {
		t.Fatal("dossier carries no operator stats")
	}
	if len(d.Spans) != 2 {
		t.Fatalf("span roots: %d", len(d.Spans))
	}

	// The detail endpoint serves the full dossier as JSON.
	rr := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/debug/queries/"+d.ID, nil)
	fed.FlightRecorder().ServeHTTP(rr, req)
	if rr.Code != 200 {
		t.Fatalf("detail status %d: %s", rr.Code, rr.Body.String())
	}
	var got ledger.Dossier
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatalf("detail not JSON: %v", err)
	}
	if got.ID != d.ID || got.Rows != 2 {
		t.Fatalf("detail mismatch: %+v", got)
	}

	// The list endpoint summarizes it.
	rr = httptest.NewRecorder()
	fed.FlightRecorder().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/queries", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), d.ID) {
		t.Fatalf("list status %d missing %s", rr.Code, d.ID)
	}
}

// TestEmptyQueriesHaveNames: a query proven empty before B1 sends no RFB,
// yet its negotiation still gets a name of its own, so each such query's
// dossier is served by id and listed by SlowQueries.
func TestEmptyQueriesHaveNames(t *testing.T) {
	fed := buildLedgerFed(t, []FederationOption{WithFlightRecorder(8)})
	for _, sql := range []string{
		"SELECT COUNT(*) AS n FROM customer c WHERE 1 = 0",
		"SELECT c.custname FROM customer c WHERE c.office = 'Nowhere'",
	} {
		if _, err := fed.Query("hq", sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	ds := fed.SlowQueries(10)
	if len(ds) != 2 || ds[0].ID == "" || ds[1].ID == "" || ds[0].ID == ds[1].ID {
		t.Fatalf("two empty queries must give two named dossiers: %v", ds)
	}
	for _, d := range ds {
		rr := httptest.NewRecorder()
		fed.FlightRecorder().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/queries/"+d.ID, nil))
		var got ledger.Dossier
		if rr.Code != 200 || json.Unmarshal(rr.Body.Bytes(), &got) != nil || got.ID != d.ID || got.Ledger.ID != d.ID {
			t.Fatalf("/debug/queries/%s: %d %s", d.ID, rr.Code, rr.Body.String())
		}
	}
}

// TestWithSlowQuerySLO pins that a query breaching a latency SLO armed
// through the recorder's triggers is flagged into the outlier set with the
// slow trigger.
func TestWithSlowQuerySLO(t *testing.T) {
	fed := buildLedgerFed(t, []FederationOption{WithFlightRecorder(0)})
	fed.FlightRecorder().SetTriggers(flight.Triggers{SlowMS: float64(time.Nanosecond) / float64(time.Millisecond)})
	if _, err := fed.Query("hq", totalsQuery); err != nil {
		t.Fatal(err)
	}
	out := fed.SlowQueries(0)
	if len(out) != 1 {
		t.Fatalf("dossiers: %d", len(out))
	}
	found := false
	for _, tr := range out[0].Triggers {
		if tr == flight.TrigSlow {
			found = true
		}
	}
	if !found {
		t.Fatalf("triggers: %v", out[0].Triggers)
	}
}

// TestQueryWithRecoveryDossier pins that the public recovery path produces a
// single dossier whose recovery chain names the failed seller, flagged as an
// outlier by the recovery trigger.
func TestQueryWithRecoveryDossier(t *testing.T) {
	// Topology where every answer the victim can sell has a substitute: the
	// customer partitions live on one store node, invoiceline is replicated
	// on two dedicated nodes, and the buyer holds nothing.
	sch := NewSchema()
	sch.MustTable("customer",
		Col("custid", Int), Col("custname", Str), Col("office", Str))
	sch.MustTable("invoiceline",
		Col("invid", Int), Col("linenum", Int), Col("custid", Int), Col("charge", Float))
	sch.MustPartition("customer",
		Part("corfu", "office = 'Corfu'"),
		Part("myconos", "office = 'Myconos'"))
	fed := NewFederation(sch, WithFlightRecorder(8))
	store := fed.MustAddNode("store")
	store.MustCreateFragment("customer", "corfu")
	store.MustInsert("customer", "corfu", Row(1, "alice", "Corfu"), Row(2, "bob", "Corfu"))
	store.MustCreateFragment("customer", "myconos")
	store.MustInsert("customer", "myconos", Row(3, "carol", "Myconos"), Row(5, "eve", "Myconos"))
	lines := [][]any{
		{100, 1, 1, 10.0}, {100, 2, 1, 5.0}, {101, 1, 2, 7.0},
		{102, 1, 3, 20.0}, {103, 1, 5, 2.0},
	}
	for _, id := range []string{"dup1", "dup2"} {
		n := fed.MustAddNode(id)
		n.MustCreateFragment("invoiceline", "p0")
		for _, r := range lines {
			n.MustInsert("invoiceline", "p0", Row(r...))
		}
	}
	fed.MustAddNode("hq")
	// A fault policy arms the cheap recovery path: standing-offer
	// substitution instead of a full re-optimization.
	fed.EnableFaultTolerance(FaultTolerance{
		CallTimeout:  500 * time.Millisecond,
		RoundTimeout: time.Second,
		MaxRetries:   2,
		Backoff:      time.Millisecond,
	})

	p, err := fed.Optimize("hq", totalsQuery)
	if err != nil {
		t.Fatal(err)
	}
	// Crash the invoiceline seller right after it accepts its award: it dies
	// between winning the negotiation and delivering, forcing standing-offer
	// recovery to substitute the replica.
	var victim string
	for _, pu := range p.Purchases() {
		if strings.Contains(pu.SQL, "invoiceline") {
			victim = pu.Seller
			break
		}
	}
	if victim != "dup1" && victim != "dup2" {
		t.Fatalf("invoiceline seller: %q (purchases %v)", victim, p.Purchases())
	}
	fed.SetFaultPlan(&FaultPlan{Seed: 7, CrashAfterAward: map[string]bool{victim: true}})
	res, err := fed.QueryWithRecovery("hq", totalsQuery, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %v", res.Rows)
	}
	ds := fed.SlowQueries(10)
	// One dossier per top-level query: the earlier Optimize never executed, so
	// only QueryWithRecovery's negotiation finalized.
	if len(ds) != 1 {
		t.Fatalf("dossiers: %d", len(ds))
	}
	d := ds[0]
	if len(d.Recoveries) == 0 {
		t.Fatalf("no recovery records: %+v", d)
	}
	if d.Recoveries[0].Failed != victim {
		t.Fatalf("recovery failed=%q want %q", d.Recoveries[0].Failed, victim)
	}
	flagged := false
	for _, tr := range d.Triggers {
		if tr == flight.TrigRecovery {
			flagged = true
		}
	}
	if !flagged {
		t.Fatalf("triggers: %v", d.Triggers)
	}
}

// TestWithMetricsHistoryEndToEnd spins a tight sampling window, runs queries,
// and checks windows accumulate, serve over HTTP, and feed the watchdog.
func TestWithMetricsHistoryEndToEnd(t *testing.T) {
	fed := buildLedgerFed(t, []FederationOption{
		WithLedger(64), WithMetricsHistory(10 * time.Millisecond)})
	h := fed.MetricsHistory()
	if h == nil {
		t.Fatal("WithMetricsHistory did not attach a history")
	}
	if fed.Watchdog() == nil {
		t.Fatal("WithMetricsHistory did not attach a watchdog")
	}
	defer fed.Watchdog().Stop()

	if _, err := fed.Query("hq", totalsQuery); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(h.Windows(0)) < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	wins := h.Windows(0)
	if len(wins) < 2 {
		t.Fatalf("windows: %d", len(wins))
	}

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics/history?n=2", nil))
	if rr.Code != 200 {
		t.Fatalf("history status %d", rr.Code)
	}
	var payload struct {
		Windows []struct {
			Seq int64 `json:"seq"`
		} `json:"windows"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &payload); err != nil {
		t.Fatalf("history not JSON: %v", err)
	}
	if len(payload.Windows) != 2 {
		t.Fatalf("served windows: %d", len(payload.Windows))
	}
	// A healthy run may or may not surface anomalies; the ledger's stream,
	// where the watchdog records them, just has to be readable while the
	// sampler runs.
	_ = fed.Ledger().Anomalies()
}

// TestFlightDisabledByDefault pins the off switch: a plain federation has a
// nil recorder/history/watchdog and every accessor no-ops.
func TestFlightDisabledByDefault(t *testing.T) {
	fed := buildLedgerFed(t, nil)
	if fed.FlightRecorder() != nil || fed.MetricsHistory() != nil || fed.Watchdog() != nil {
		t.Fatal("observability attached without options")
	}
	if ds := fed.SlowQueries(5); ds != nil {
		t.Fatalf("SlowQueries on nil recorder: %v", ds)
	}
	if _, err := fed.Query("hq", totalsQuery); err != nil {
		t.Fatal(err)
	}
	if ds := fed.SlowQueries(5); ds != nil {
		t.Fatalf("dossiers admitted without recorder: %v", ds)
	}
}
