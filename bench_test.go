package qtrade

// One benchmark per reproduced table/figure (see DESIGN.md's per-experiment
// index). Each benchmark regenerates its experiment at quick scale and
// reports the headline series values as custom metrics, so
// `go test -bench . -benchmem` reproduces the whole evaluation. Run
// `go run ./cmd/qtbench -full` for the paper-scale sweeps.

import (
	"io"
	"strconv"
	"testing"

	"qtrade/internal/experiments"
)

func lastRowMetric(b *testing.B, tab *experiments.Table, col int, name string) {
	b.Helper()
	if len(tab.Rows) == 0 {
		b.Fatalf("%s produced no rows", tab.ID)
	}
	last := tab.Rows[len(tab.Rows)-1]
	v, err := strconv.ParseFloat(last[col], 64)
	if err != nil {
		b.Fatalf("%s metric %q: %v", tab.ID, last[col], err)
	}
	b.ReportMetric(v, name)
}

func discard(tab *experiments.Table) { tab.Fprint(io.Discard) }

// BenchmarkExpT1PlanQuality regenerates T1: QT plan cost relative to the
// full-knowledge centralized DP as queries grow.
func BenchmarkExpT1PlanQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.T1PlanQuality(4, 6, int64(i))
		lastRowMetric(b, tab, 2, "qt_vs_central")
		discard(tab)
	}
}

// BenchmarkExpT2StarPlanQuality regenerates T2: bushy star-schema plan
// quality.
func BenchmarkExpT2StarPlanQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.T2StarPlanQuality(3, 5, int64(i))
		lastRowMetric(b, tab, 2, "qt_vs_central_star")
		discard(tab)
	}
}

// BenchmarkExpF1OptTimeVsNodes regenerates F1: optimization time scaling.
func BenchmarkExpF1OptTimeVsNodes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.F1OptTimeVsNodes([]int{4, 8, 16}, 3, int64(i))
		lastRowMetric(b, tab, 3, "qt_total_ms_at_16n")
		discard(tab)
	}
}

// BenchmarkExpF2MessagesVsNodes regenerates F2: negotiation messages.
func BenchmarkExpF2MessagesVsNodes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.F2MessagesVsNodes([]int{4, 8, 16}, 3, int64(i))
		lastRowMetric(b, tab, 1, "qt_msgs_at_16n")
		discard(tab)
	}
}

// BenchmarkExpF3Convergence regenerates F3: plan value per iteration.
func BenchmarkExpF3Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.F3Convergence(4, 8, int64(i))
		lastRowMetric(b, tab, 1, "final_value_ms")
		discard(tab)
	}
}

// BenchmarkExpF4Partitions regenerates F4: horizontal partitioning sweep.
func BenchmarkExpF4Partitions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.F4Partitions([]int{1, 2, 4}, int64(i))
		lastRowMetric(b, tab, 1, "value_at_4parts_ms")
		discard(tab)
	}
}

// BenchmarkExpF5PlanGen regenerates F5: plan generator ablation.
func BenchmarkExpF5PlanGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.F5PlanGen(4, 6, int64(i))
		lastRowMetric(b, tab, 1, "dp_value_ms")
		discard(tab)
	}
}

// BenchmarkExpF6Strategies regenerates F6: competitive margin adaptation.
func BenchmarkExpF6Strategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.F6Strategies(10, int64(i))
		lastRowMetric(b, tab, 3, "final_avg_margin")
		discard(tab)
	}
}

// BenchmarkExpF7Views regenerates F7: materialized-view offers.
func BenchmarkExpF7Views(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.F7Views(int64(i))
		lastRowMetric(b, tab, 1, "value_with_views_ms")
		discard(tab)
	}
}

// BenchmarkExpF8Protocols regenerates F8: protocol ablation.
func BenchmarkExpF8Protocols(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.F8Protocols(int64(i))
		lastRowMetric(b, tab, 1, "bargain_paid")
		discard(tab)
	}
}

// BenchmarkExpF9Replication regenerates F9: replication sweep.
func BenchmarkExpF9Replication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.F9Replication([]int{1, 2}, int64(i))
		lastRowMetric(b, tab, 1, "value_at_2rep_ms")
		discard(tab)
	}
}

// BenchmarkExpF10Subcontract regenerates F10: restricted-visibility
// subcontracting.
func BenchmarkExpF10Subcontract(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.F10Subcontract(int64(i))
		lastRowMetric(b, tab, 2, "value_with_subcontract_ms")
		discard(tab)
	}
}

// BenchmarkExpF11AggPushdown regenerates F11: aggregate pushdown.
func BenchmarkExpF11AggPushdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.F11AggPushdown(int64(i))
		lastRowMetric(b, tab, 1, "value_with_pushdown_ms")
		discard(tab)
	}
}

// BenchmarkOptimizeTelco measures one end-to-end QT optimization of the
// paper's motivating query on the three-office federation.
func BenchmarkOptimizeTelco(b *testing.B) {
	fedB := buildBenchFed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fedB.Optimize("hq", benchTotalsQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryTelco measures optimize + execute.
func BenchmarkQueryTelco(b *testing.B) {
	fedB := buildBenchFed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fedB.Query("hq", benchTotalsQuery); err != nil {
			b.Fatal(err)
		}
	}
}

const benchTotalsQuery = `SELECT c.office, SUM(i.charge) AS total
	FROM customer c, invoiceline i
	WHERE c.custid = i.custid AND c.office IN ('Corfu', 'Myconos')
	GROUP BY c.office ORDER BY c.office`

func buildBenchFed() *Federation {
	sch := NewSchema()
	sch.MustTable("customer",
		Col("custid", Int), Col("custname", Str), Col("office", Str))
	sch.MustTable("invoiceline",
		Col("invid", Int), Col("linenum", Int), Col("custid", Int), Col("charge", Float))
	sch.MustPartition("customer",
		Part("corfu", "office = 'Corfu'"),
		Part("myconos", "office = 'Myconos'"))
	fed := NewFederation(sch)
	id := 0
	for _, office := range []string{"Corfu", "Myconos"} {
		part := map[string]string{"Corfu": "corfu", "Myconos": "myconos"}[office]
		n := fed.MustAddNode(part)
		n.MustCreateFragment("customer", part)
		n.MustCreateFragment("invoiceline", "p0")
		for k := 0; k < 50; k++ {
			id++
			n.MustInsert("customer", part, Row(id, "c", office))
			n.MustInsert("invoiceline", "p0", Row(1000+id, 1, id, float64(id%17)))
		}
	}
	fed.MustAddNode("hq")
	return fed
}
