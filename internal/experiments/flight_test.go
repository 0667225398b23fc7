package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// TestF19FlightSmoke is the fixed-seed flight-recorder smoke test. The hard
// acceptance bar: every query of every recorded phase lands as exactly one
// dossier, the slow-seller phase's queries are all captured by the latency
// SLO trigger and its window is flagged by the watchdog, and the stale-stats
// phase's queries are all flagged as cardinality blowouts. Wall-clock stays
// unasserted — it belongs to the benchmark.
func TestF19FlightSmoke(t *testing.T) {
	tab := F19Flight(8, 7)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (steady/slow_seller/stale_stats):\n%v", len(tab.Rows), tab.Rows)
	}
	for _, h := range tab.Header {
		if h == "overhead_pct" {
			t.Fatalf("header %v still carries overhead_pct", tab.Header)
		}
	}
	col := func(name string) int {
		for i, h := range tab.Header {
			if h == name {
				return i
			}
		}
		t.Fatalf("missing column %q", name)
		return -1
	}
	num := func(row []string, name string) int {
		v, err := strconv.Atoi(row[col(name)])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return v
	}
	rows := map[string][]string{}
	for _, row := range tab.Rows {
		rows[row[0]] = row
	}

	// Steady state: one dossier per query, none flagged, no anomalies — the
	// recorder must be silent on a healthy run.
	if got := num(rows["steady"], "dossiers"); got != 16 {
		t.Fatalf("steady admitted %d dossiers, want 16 (one per query)", got)
	}
	if got := num(rows["steady"], "flagged"); got != 0 {
		t.Fatalf("steady flagged %d dossiers, want 0:\n%v", got, rows["steady"])
	}
	if got := num(rows["steady"], "anomalies"); got != 0 {
		t.Fatalf("steady raised %d anomalies, want 0", got)
	}

	// Slow seller: every query breaches the SLO, and the watchdog flags the
	// window against the steady baselines.
	if got := num(rows["slow_seller"], "dossiers"); got != 8 {
		t.Fatalf("slow_seller admitted %d dossiers, want 8", got)
	}
	if got := num(rows["slow_seller"], "flagged"); got != 8 {
		t.Fatalf("slow_seller flagged %d dossiers, want 8:\n%v", got, rows["slow_seller"])
	}
	if trig := rows["slow_seller"][col("triggers")]; !strings.Contains(trig, "slow_slo=8") {
		t.Fatalf("slow_seller triggers = %q, want slow_slo=8", trig)
	}
	if got := num(rows["slow_seller"], "anomalies"); got < 1 {
		t.Fatalf("watchdog raised no anomaly for the slow window:\n%v", rows["slow_seller"])
	}

	// Stale statistics: every query's estimate blows out against the actuals.
	if got := num(rows["stale_stats"], "flagged"); got != 8 {
		t.Fatalf("stale_stats flagged %d dossiers, want 8:\n%v", got, rows["stale_stats"])
	}
	if trig := rows["stale_stats"][col("triggers")]; !strings.Contains(trig, "card_blowout=8") {
		t.Fatalf("stale_stats triggers = %q, want card_blowout=8", trig)
	}
}

// BenchmarkExpF19 times the flight-recorder experiment end to end.
func BenchmarkExpF19(b *testing.B) {
	for i := 0; i < b.N; i++ {
		F19Flight(8, 1)
	}
}
