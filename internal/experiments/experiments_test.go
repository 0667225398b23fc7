package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("not a number: %q", s)
	}
	return v
}

func TestT1PlanQualityShape(t *testing.T) {
	tab := T1PlanQuality(4, 6, 1)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		qt := parseF(t, r[2])
		ship := parseF(t, r[4])
		// QT must stay within a small factor of the full-knowledge optimum
		// and beat (or at least not lose badly to) naive shipping.
		if qt > 3 {
			t.Fatalf("QT plan quality off: %v", r)
		}
		if qt > ship*2 {
			t.Fatalf("QT should not lose to shipping by 2x: %v", r)
		}
	}
}

func TestF1AndF2Shapes(t *testing.T) {
	f1 := F1OptTimeVsNodes([]int{4, 8}, 3, 1)
	if len(f1.Rows) != 2 {
		t.Fatalf("F1 rows: %v", f1.Rows)
	}
	f2t := F2MessagesVsNodes([]int{4, 8}, 3, 1)
	if len(f2t.Rows) != 2 {
		t.Fatalf("F2 rows: %v", f2t.Rows)
	}
	// Messages grow with nodes for both methods.
	qt4 := parseF(t, f2t.Rows[0][1])
	qt8 := parseF(t, f2t.Rows[1][1])
	if qt8 <= qt4 {
		t.Fatalf("QT messages must grow with nodes: %v", f2t.Rows)
	}
	cen4 := parseF(t, f2t.Rows[0][3])
	cen8 := parseF(t, f2t.Rows[1][3])
	if cen8 <= cen4 {
		t.Fatalf("central stat messages must grow: %v", f2t.Rows)
	}
}

func TestF3ConvergenceMonotone(t *testing.T) {
	tab := F3Convergence(4, 8, 1)
	if len(tab.Rows) == 0 {
		t.Fatal("no iterations traced")
	}
	prev := 1e18
	for _, r := range tab.Rows {
		if r[0] == "error" {
			t.Fatalf("convergence errored: %v", r)
		}
		v := parseF(t, r[1])
		if v > prev*1.0001 {
			t.Fatalf("best value must be non-increasing: %v", tab.Rows)
		}
		prev = v
	}
}

func TestF4PartitionsRuns(t *testing.T) {
	tab := F4Partitions([]int{1, 2, 4}, 1)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows: %v", tab.Rows)
	}
	for _, r := range tab.Rows {
		if r[1] == "n/a" {
			t.Fatalf("partition sweep failed: %v", r)
		}
	}
}

func TestF5PlanGenOrdering(t *testing.T) {
	tab := F5PlanGen(4, 6, 1)
	for _, r := range tab.Rows {
		dp := parseF(t, r[1])
		idp := parseF(t, r[3])
		greedy := parseF(t, r[5])
		// DP is exhaustive: it can never be beaten on estimated value.
		if idp < dp*0.999 || greedy < dp*0.999 {
			t.Fatalf("DP must be optimal: %v", r)
		}
	}
}

func TestF6MarginsAdapt(t *testing.T) {
	tab := F6Strategies(10, 1)
	if len(tab.Rows) < 2 {
		t.Fatalf("rows: %v", tab.Rows)
	}
	first := parseF(t, tab.Rows[0][3])
	last := parseF(t, tab.Rows[len(tab.Rows)-1][3])
	if first == last {
		t.Fatalf("margins never adapted: %v", tab.Rows)
	}
	for _, r := range tab.Rows {
		paid := parseF(t, r[1])
		truth := parseF(t, r[2])
		if paid < truth*0.999 {
			t.Fatalf("paid below truthful cost: %v", r)
		}
	}
}

func TestF7ViewsImprovePlans(t *testing.T) {
	tab := F7Views(1)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows: %v", tab.Rows)
	}
	off := parseF(t, tab.Rows[0][1])
	on := parseF(t, tab.Rows[1][1])
	if on >= off {
		t.Fatalf("view offers must reduce plan value: off=%f on=%f", off, on)
	}
}

func TestF8ProtocolsReducePaid(t *testing.T) {
	tab := F8Protocols(1)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows: %v", tab.Rows)
	}
	sealed := parseF(t, tab.Rows[0][1])
	iter := parseF(t, tab.Rows[1][1])
	if iter > sealed*1.001 {
		t.Fatalf("iterative bidding must not pay more than sealed: %v", tab.Rows)
	}
	sealedMsgs := parseF(t, tab.Rows[0][3])
	iterMsgs := parseF(t, tab.Rows[1][3])
	if iterMsgs <= sealedMsgs {
		t.Fatalf("iterative bidding costs more messages: %v", tab.Rows)
	}
}

func TestF9ReplicationRuns(t *testing.T) {
	tab := F9Replication([]int{1, 2}, 1)
	for _, r := range tab.Rows {
		if r[1] == "n/a" {
			t.Fatalf("replication sweep failed: %v", r)
		}
	}
	one := parseF(t, tab.Rows[0][1])
	two := parseF(t, tab.Rows[1][1])
	if two > one*1.5 {
		t.Fatalf("replication should not hurt plan value badly: %v", tab.Rows)
	}
}

func TestQuickSuiteAndPrint(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick suite in short mode")
	}
	// The paper's tables, and nothing else: F12–F19 are retired, not
	// renumbered.
	want := []string{"T1", "T2", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "F10", "F11"}
	specs := QuickSpecs(1)
	ids := make([]string, len(specs))
	for i, s := range specs {
		ids[i] = s.ID
	}
	if strings.Join(ids, ",") != strings.Join(want, ",") {
		t.Fatalf("QuickSpecs lists %v, want %v", ids, want)
	}
	var buf bytes.Buffer
	for _, s := range specs {
		s.Run().Fprint(&buf)
	}
	out := buf.String()
	for _, id := range want {
		if !strings.Contains(out, "== "+id+":") {
			t.Fatalf("missing table %s in output", id)
		}
	}
}

func TestT2StarShape(t *testing.T) {
	tab := T2StarPlanQuality(3, 5, 1)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows: %v", tab.Rows)
	}
	for _, r := range tab.Rows {
		if qt := parseF(t, r[2]); qt > 3 {
			t.Fatalf("star QT quality off: %v", r)
		}
	}
}

func TestF11AggPushdownShape(t *testing.T) {
	tab := F11AggPushdown(1)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows: %v", tab.Rows)
	}
	off := parseF(t, tab.Rows[0][1])
	on := parseF(t, tab.Rows[1][1])
	if on >= off {
		t.Fatalf("pushdown must reduce plan value on a slow network: off=%f on=%f", off, on)
	}
	bytesOff := parseF(t, tab.Rows[0][2])
	bytesOn := parseF(t, tab.Rows[1][2])
	if bytesOn >= bytesOff {
		t.Fatalf("pushdown must ship fewer bytes: %f vs %f", bytesOn, bytesOff)
	}
}

func TestF10SubcontractShape(t *testing.T) {
	tab := F10Subcontract(1)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows: %v", tab.Rows)
	}
	if tab.Rows[0][1] != "unanswerable" {
		t.Fatalf("without subcontracting the restricted query must fail: %v", tab.Rows[0])
	}
	if tab.Rows[1][1] != "answered" {
		t.Fatalf("with subcontracting it must succeed: %v", tab.Rows[1])
	}
}
