package ledger

import (
	"strings"
	"testing"
)

// TestAnomalyStream pins the watchdog's ledger surface: typed anomaly
// events retained in the bounded side stream, exported as a synthetic
// "anomalies" object in the JSONL feed.
func TestAnomalyStream(t *testing.T) {
	l := New(4)
	l.Anomaly("p95_regression", "buyer.hq.wall_ms", 12.5, 3.1, 7)
	l.Anomaly("recovery_spike", "buyer.hq.recoveries", 3, 0, 8)
	anoms := l.Anomalies()
	if len(anoms) != 2 {
		t.Fatalf("anomalies: %d", len(anoms))
	}
	a := anoms[0]
	if a.Kind != KindAnomaly || a.Reason != "p95_regression" || a.QID != "buyer.hq.wall_ms" ||
		a.WallMS != 12.5 || a.QuotedMS != 3.1 || a.Window != 7 {
		t.Fatalf("anomaly event: %+v", a)
	}
	if a.Seq == 0 || a.At.IsZero() {
		t.Fatalf("anomaly must be sequenced and timestamped: %+v", a)
	}

	// Bounded like the negotiation ring.
	for i := 0; i < 10; i++ {
		l.Anomaly("calibration_drift", "seller.n1", 2, 1, int64(i))
	}
	if got := len(l.Anomalies()); got != 4 {
		t.Fatalf("anomaly stream must stay bounded at capacity: %d", got)
	}

	var b strings.Builder
	if err := l.WriteJSONL(&b, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"id":"anomalies"`) || !strings.Contains(b.String(), `"calibration_drift"`) {
		t.Fatalf("JSONL missing anomalies object:\n%s", b.String())
	}

	var nilL *Ledger
	if nilL.Anomalies() != nil {
		t.Fatal("nil ledger anomalies")
	}
}

// TestRecSnapshot checks the deep copy a dossier's "ledger" is read from:
// later events must not leak into an already-taken snapshot.
func TestRecSnapshot(t *testing.T) {
	l := New(4)
	r := l.Begin("hq", "SELECT 1")
	r.RFBIssued("rfb-1", 1, 2)
	r.Bid(1, "n1", "q0", "o1", 5, 6)
	snap := r.Snapshot()
	if snap.ID != "rfb-1" || snap.Buyer != "hq" || len(snap.Events) != 2 {
		t.Fatalf("snapshot: %+v", snap)
	}
	r.Award("n1", "q0", "o1", 5, 6)
	if len(snap.Events) != 2 {
		t.Fatal("snapshot must be isolated from later events")
	}
	if got := r.Snapshot(); len(got.Events) != 3 || !got.Awarded {
		t.Fatalf("fresh snapshot: %+v", got)
	}
	var nilRec *Rec
	if s := nilRec.Snapshot(); s.ID != "" || s.Events != nil {
		t.Fatal("nil rec snapshot must be empty")
	}
}

// The side stream is one bounded stream for both kinds of events outside a
// negotiation; each view filters it, and the JSONL export keeps its two
// synthetic objects.
func TestSideStreamIsShared(t *testing.T) {
	l := New(3)
	l.Lifecycle(KindJoin, "n1", "")
	l.Anomaly("p95_regression", "buyer.hq.wall_ms", 9, 3, 1)
	l.Lifecycle(KindDrain, "n1", "operator")
	if life, anoms := l.LifecycleEvents(), l.Anomalies(); len(life) != 2 || len(anoms) != 1 || anoms[0].Seq <= life[0].Seq {
		t.Fatalf("lifecycle %+v anomalies %+v", life, anoms)
	}
	l.Anomaly("recovery_spike", "buyer.hq.recovery_fallbacks", 4, 0, 2) // evicts the join
	if life := l.LifecycleEvents(); len(life) != 1 || life[0].Kind != KindDrain {
		t.Fatalf("the stream holds 3 events whatever their kind: %+v", life)
	}
	var b strings.Builder
	if err := l.WriteJSONL(&b, 0); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); !strings.Contains(got, `"id":"lifecycle"`) || !strings.Contains(got, `"id":"anomalies"`) {
		t.Fatalf("JSONL export:\n%s", got)
	}
}
