package workload

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"qtrade/internal/expr"
	"qtrade/internal/sqlparse"
	"qtrade/internal/trading"
	"qtrade/internal/value"
)

func rowsKey(rows []value.Row) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		idx := make([]int, len(r))
		for j := range idx {
			idx[j] = j
		}
		out[i] = value.Key(r, idx)
	}
	sort.Strings(out)
	return strings.Join(out, "|")
}

func TestTelcoFederationEndToEnd(t *testing.T) {
	f := NewTelco(TelcoOptions{Seed: 1, CustomersPerOffice: 10, LinesPerCustomer: 2})
	q := TotalsQuery("Corfu", "Myconos")
	truth, err := f.GroundTruth(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(truth.Rows) != 2 {
		t.Fatalf("truth rows: %v", truth.Rows)
	}
	res, err := f.Optimize(f.BuyerConfig(), q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Execute(res)
	if err != nil {
		t.Fatal(err)
	}
	if rowsKey(got.Rows) != rowsKey(truth.Rows) {
		t.Fatalf("distributed != truth:\ngot  %v\nwant %v", got.Rows, truth.Rows)
	}
}

func TestTelcoDeterminism(t *testing.T) {
	a := NewTelco(TelcoOptions{Seed: 42})
	b := NewTelco(TelcoOptions{Seed: 42})
	ra, _ := a.GroundTruth(TotalsQuery("Corfu"))
	rb, _ := b.GroundTruth(TotalsQuery("Corfu"))
	if rowsKey(ra.Rows) != rowsKey(rb.Rows) {
		t.Fatal("same seed must generate identical data")
	}
	c := NewTelco(TelcoOptions{Seed: 43})
	rc, _ := c.GroundTruth(TotalsQuery("Corfu"))
	if rowsKey(ra.Rows) == rowsKey(rc.Rows) {
		t.Fatal("different seeds should differ (with overwhelming probability)")
	}
}

func TestTelcoPartitionsCoverAndAreDisjoint(t *testing.T) {
	// Property: every generated customer row satisfies exactly one partition
	// predicate.
	f := NewTelco(TelcoOptions{Seed: 3, CustomersPerOffice: 15})
	sch := f.Schema
	def, _ := sch.Table("customer")
	parts := sch.Partitions("customer")
	for _, n := range f.Nodes {
		for _, part := range n.Store().PartIDs("customer") {
			if err := n.Store().Scan("customer", part, nil, func(r value.Row) bool {
				matches := 0
				for _, p := range parts {
					pred := expr.MustBind(p.Predicate, def.ColumnIDs(""))
					ok, err := expr.EvalBool(pred, r)
					if err != nil {
						t.Fatal(err)
					}
					if ok {
						matches++
					}
				}
				if matches != 1 {
					t.Fatalf("row %v matches %d partitions", r, matches)
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestTelcoInvoiceReplicas(t *testing.T) {
	f := NewTelco(TelcoOptions{Seed: 5, InvoiceReplicas: 1})
	holders := 0
	for id, n := range f.Nodes {
		if id == "hq" {
			continue
		}
		if len(n.Store().PartIDs("invoiceline")) > 0 {
			holders++
		}
	}
	if holders != 1 {
		t.Fatalf("invoice holders: %d, want 1", holders)
	}
}

func TestChainFederationEndToEnd(t *testing.T) {
	opts := ChainOptions{Relations: 3, RowsPerRel: 60, Parts: 2, Nodes: 4, Replicas: 2, Seed: 9}
	f := NewChain(opts)
	q := ChainQuery(opts, 0.5)
	truth, err := f.GroundTruth(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Optimize(f.BuyerConfig(), q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Execute(res)
	if err != nil {
		t.Fatal(err)
	}
	if rowsKey(got.Rows) != rowsKey(truth.Rows) {
		t.Fatalf("chain distributed != truth: %d vs %d rows", len(got.Rows), len(truth.Rows))
	}
	if len(truth.Rows) == 0 {
		t.Fatal("degenerate workload: truth empty")
	}
}

// Integer arithmetic past int64 gives a DOUBLE, under trading as in the
// oracle: r1.pk + MaxInt64 is an INTEGER for pk 0 and the DOUBLE 2^63 for pk
// 1 and 2, where it used to wrap to the most negative integers.
func TestIntOverflowUnderTradingIsDouble(t *testing.T) {
	f := NewChain(ChainOptions{Relations: 1, RowsPerRel: 20, Parts: 2, Nodes: 3, Seed: 5})
	q := "SELECT r1.pk + 9223372036854775807 FROM r1 WHERE r1.pk < 3"
	truth, err := f.GroundTruth(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Optimize(f.BuyerConfig(), q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Execute(res)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"DOUBLE 9.223372036854776e+18", "DOUBLE 9.223372036854776e+18", "INTEGER 9223372036854775807"}
	for name, rows := range map[string][]value.Row{"trading": got.Rows, "oracle": truth.Rows} {
		var kinded []string
		for _, r := range rows {
			kinded = append(kinded, r[0].K.String()+" "+r[0].String())
		}
		sort.Strings(kinded)
		if !reflect.DeepEqual(kinded, want) {
			t.Errorf("%s answers %v, want %v", name, kinded, want)
		}
	}
}

func TestChainQueryShape(t *testing.T) {
	opts := ChainOptions{Relations: 4, RowsPerRel: 100}
	q := ChainQuery(opts, 1)
	sel := sqlparse.MustParseSelect(q)
	if len(sel.From) != 4 {
		t.Fatalf("from: %v", sel.From)
	}
	conj := len(expr.Conjuncts(sel.Where))
	if conj != 3 {
		t.Fatalf("join predicates: %d", conj)
	}
	q2 := ChainQuery(opts, 0.25)
	sel2 := sqlparse.MustParseSelect(q2)
	if len(expr.Conjuncts(sel2.Where)) != 4 {
		t.Fatalf("filter missing: %s", q2)
	}
}

func TestChainReplicaCounts(t *testing.T) {
	opts := ChainOptions{Relations: 2, RowsPerRel: 40, Parts: 4, Nodes: 4, Replicas: 2, Seed: 1}
	f := NewChain(opts)
	counts := map[string]int{}
	for _, n := range f.Nodes {
		for _, table := range n.Store().Tables() {
			for _, pid := range n.Store().PartIDs(table) {
				counts[table+"/"+pid]++
			}
		}
	}
	for frag, c := range counts {
		if c != 2 {
			t.Fatalf("fragment %s has %d replicas, want 2", frag, c)
		}
	}
	if len(counts) != 8 {
		t.Fatalf("fragments: %d, want 8", len(counts))
	}
}

func TestChainSkipOracle(t *testing.T) {
	f := NewChain(ChainOptions{Relations: 2, RowsPerRel: 20, Nodes: 2, SkipOracleData: true, Seed: 2})
	if f.Oracle() != nil {
		t.Fatal("oracle must be skipped")
	}
}

func TestGroundTruthMatchesManualSum(t *testing.T) {
	f := NewTelco(TelcoOptions{Seed: 11, CustomersPerOffice: 5, LinesPerCustomer: 2})
	resp, err := f.GroundTruth(TotalsQuery("Corfu"))
	if err != nil {
		t.Fatal(err)
	}
	// Manually sum corfu charges from the oracle store.
	var want float64
	custIDs := map[int64]bool{}
	if err := f.Oracle().Store().Scan("customer", "corfu", nil, func(r value.Row) bool {
		custIDs[r[0].I] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.Oracle().Store().Scan("invoiceline", "p0", nil, func(r value.Row) bool {
		if custIDs[r[2].I] {
			want += r[3].F
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 || resp.Rows[0][1].AsFloat() != want {
		t.Fatalf("sum: got %v, want %f", resp.Rows, want)
	}
}

func TestStrategyFactoryIsUsed(t *testing.T) {
	built := 0
	f := NewTelco(TelcoOptions{Seed: 1, Strategy: func() trading.SellerStrategy {
		built++
		return trading.NewCompetitive()
	}})
	if built < len(f.Nodes)-1 {
		t.Fatalf("strategy factory calls: %d", built)
	}
}
