package qtrade

import (
	"strconv"
	"strings"
	"testing"
)

// buildFed builds the paper's three-office federation through the public
// API.
func buildFed(t *testing.T, opts ...NodeOption) *Federation {
	t.Helper()
	sch := NewSchema()
	sch.MustTable("customer",
		Col("custid", Int), Col("custname", Str), Col("office", Str))
	sch.MustTable("invoiceline",
		Col("invid", Int), Col("linenum", Int), Col("custid", Int), Col("charge", Float))
	sch.MustPartition("customer",
		Part("corfu", "office = 'Corfu'"),
		Part("myconos", "office = 'Myconos'"),
		Part("athens", "office = 'Athens'"))

	fed := NewFederation(sch)
	offices := map[string][][]any{
		"corfu":   {{1, "alice", "Corfu"}, {2, "bob", "Corfu"}},
		"myconos": {{3, "carol", "Myconos"}, {5, "eve", "Myconos"}},
		"athens":  {{4, "dave", "Athens"}},
	}
	lines := [][]any{
		{100, 1, 1, 10.0}, {100, 2, 1, 5.0}, {101, 1, 2, 7.0},
		{102, 1, 3, 20.0}, {103, 1, 5, 2.0}, {104, 1, 4, 100.0},
	}
	for id, custRows := range offices {
		n := fed.MustAddNode(id, opts...)
		n.MustCreateFragment("customer", id)
		for _, r := range custRows {
			n.MustInsert("customer", id, Row(r...))
		}
		if id != "athens" {
			n.MustCreateFragment("invoiceline", "p0")
			for _, r := range lines {
				n.MustInsert("invoiceline", "p0", Row(r...))
			}
		}
	}
	fed.MustAddNode("hq", opts...)
	return fed
}

const totalsQuery = `SELECT c.office, SUM(i.charge) AS total
	FROM customer c, invoiceline i
	WHERE c.custid = i.custid AND c.office IN ('Corfu', 'Myconos')
	GROUP BY c.office ORDER BY c.office`

func TestPublicAPIQuery(t *testing.T) {
	fed := buildFed(t)
	res, err := fed.Query("hq", totalsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %v", res.Rows)
	}
	if res.Columns[0] != "c.office" || res.Columns[1] != "total" {
		t.Fatalf("columns: %v", res.Columns)
	}
	if res.Rows[0][0] != "Corfu" || res.Rows[0][1].(float64) != 22 {
		t.Fatalf("corfu row: %v", res.Rows[0])
	}
	if res.Rows[1][0] != "Myconos" || res.Rows[1][1].(float64) != 22 {
		t.Fatalf("myconos row: %v", res.Rows[1])
	}
}

func TestPublicAPIOptimizeExplain(t *testing.T) {
	fed := buildFed(t)
	p, err := fed.Optimize("hq", totalsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if p.EstimatedResponseTime() <= 0 || p.Iterations() < 1 {
		t.Fatalf("plan metrics: %f %d", p.EstimatedResponseTime(), p.Iterations())
	}
	if !strings.Contains(p.Explain(), "Remote[") {
		t.Fatalf("explain: %s", p.Explain())
	}
	buys := p.Purchases()
	if len(buys) == 0 {
		t.Fatal("no purchases")
	}
	sellers := map[string]bool{}
	for _, b := range buys {
		sellers[b.Seller] = true
		if b.Price < 0 || b.SQL == "" {
			t.Fatalf("purchase: %+v", b)
		}
	}
	if !sellers["corfu"] || !sellers["myconos"] {
		t.Fatalf("sellers: %v", sellers)
	}
	res, err := p.Run()
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("run: %v %v", res, err)
	}
}

func TestPublicAPIOptions(t *testing.T) {
	fed := buildFed(t, WithStrategy(Competitive))
	for _, mode := range []string{"dp", "idp", "greedy"} {
		res, err := fed.Query("hq", totalsQuery, WithPlanGenerator(mode))
		if err != nil || len(res.Rows) != 2 {
			t.Fatalf("mode %s: %v %v", mode, res, err)
		}
	}
	for _, proto := range []string{"sealed", "iterative", "bargain"} {
		res, err := fed.Query("hq", totalsQuery, WithProtocol(proto), WithMaxIterations(2))
		if err != nil || len(res.Rows) != 2 {
			t.Fatalf("protocol %s: %v %v", proto, res, err)
		}
	}
}

// A plan generator the buyer does not know fails the query, naming it,
// instead of running full DP.
func TestUnknownPlanGeneratorFails(t *testing.T) {
	fed := buildFed(t)
	for _, mode := range []string{"gredy", "DP"} {
		_, err := fed.Query("hq", totalsQuery, WithPlanGenerator(mode))
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(mode)) {
			t.Errorf("mode %q: got %v, want an error naming it", mode, err)
		}
	}
	if _, err := fed.Query("hq", totalsQuery, WithPlanGenerator("")); err != nil {
		t.Errorf("empty mode: %v, want dp", err)
	}
}

// TestUnknownProtocolFails: a protocol name WithProtocol does not know fails
// the query with an error naming it, before any seller is asked, rather than
// running sealed bidding in its place — also a query known empty, which
// trades nothing; the empty name is sealed bidding.
func TestUnknownProtocolFails(t *testing.T) {
	fed := buildFed(t)
	for _, name := range []string{"itertive", "Sealed"} {
		for _, sql := range []string{totalsQuery, "SELECT COUNT(*) FROM customer WHERE 1 = 0"} {
			fed.ResetNetworkStats()
			_, err := fed.Query("hq", sql, WithProtocol(name))
			if err == nil || !strings.Contains(err.Error(), strconv.Quote(name)) {
				t.Errorf("protocol %q, %s: got %v, want an error naming it", name, sql, err)
			}
			if msgs, _ := fed.NetworkStats(); msgs != 0 {
				t.Errorf("protocol %q: %d messages sent, want none", name, msgs)
			}
		}
	}
	if _, err := fed.Query("hq", totalsQuery, WithProtocol("")); err != nil {
		t.Errorf("empty protocol: %v, want sealed bidding", err)
	}
}

func TestPublicAPINetworkStats(t *testing.T) {
	fed := buildFed(t)
	fed.ResetNetworkStats()
	if _, err := fed.Query("hq", totalsQuery); err != nil {
		t.Fatal(err)
	}
	msgs, bytes := fed.NetworkStats()
	if msgs == 0 || bytes == 0 {
		t.Fatal("stats must be counted")
	}
}

func TestPublicAPINodeDown(t *testing.T) {
	fed := buildFed(t)
	fed.CrashNode("corfu")
	res, err := fed.Query("hq",
		"SELECT c.custname FROM customer c WHERE c.office = 'Myconos'")
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("myconos query with corfu down: %v %v", res, err)
	}
}

func TestPublicAPIErrors(t *testing.T) {
	fed := buildFed(t)
	if _, err := fed.Query("ghost", totalsQuery); err == nil {
		t.Fatal("unknown buyer must error")
	}
	if _, err := fed.Query("hq", "not sql"); err == nil {
		t.Fatal("bad SQL must error")
	}
	if _, err := fed.AddNode("hq"); err == nil {
		t.Fatal("duplicate node must error")
	}
	n := fed.Node("hq")
	if n == nil || n.ID() != "hq" {
		t.Fatal("node lookup")
	}
	if err := n.CreateFragment("ghost", "p0"); err == nil {
		t.Fatal("unknown table must error")
	}
	sch := NewSchema()
	if err := sch.Partition("nope", Part("a", "x = 1")); err == nil {
		t.Fatal("partitioning unknown table must error")
	}
	if err := sch.Table("t", Col("x", Int)); err != nil {
		t.Fatal(err)
	}
	if err := sch.Partition("t", Part("a", "not a predicate ((")); err == nil {
		t.Fatal("bad predicate must error")
	}
}

func TestPublicAPIRowConversion(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsupported type must panic")
		}
	}()
	r := Row(1, int64(2), 3.5, "x", true, nil)
	if len(r) != 6 || !r[5].IsNull() {
		t.Fatalf("row: %v", r)
	}
	Row(struct{}{})
}

func TestPublicAPIQueryWithRecovery(t *testing.T) {
	fed := buildFed(t)
	// Healthy path.
	res, err := fed.QueryWithRecovery("hq", totalsQuery, 2)
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("recovery healthy: %v %v", res, err)
	}
	if _, err := fed.QueryWithRecovery("ghost", totalsQuery, 1); err == nil {
		t.Fatal("unknown buyer must error")
	}
}

func TestPublicAPIUnionQuery(t *testing.T) {
	fed := buildFed(t)
	// UNION executes through a complete-coverage seller.
	res, err := fed.Query("hq", `SELECT c.custname FROM customer c WHERE c.office = 'Corfu'`)
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("sanity: %v %v", res, err)
	}
}

func TestPublicAPIViews(t *testing.T) {
	fed := buildFed(t)
	n := fed.Node("corfu")
	err := n.AddView("totals",
		"SELECT c.office, c.custid, SUM(i.charge) AS total FROM customer c, invoiceline i WHERE c.custid = i.custid GROUP BY c.office, c.custid",
		[]Column{Col("office", Str), Col("custid", Int), Col("total", Float)},
		Row("Corfu", 1, 15.0), Row("Corfu", 2, 7.0))
	if err != nil {
		t.Fatal(err)
	}
	// The view-backed offer should win for the matching aggregation query.
	p, err := fed.Optimize("hq",
		"SELECT c.office, SUM(i.charge) AS total FROM customer c, invoiceline i WHERE c.custid = i.custid GROUP BY c.office")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, b := range p.Purchases() {
		if strings.Contains(b.SQL, "totals") {
			found = true
		}
	}
	if !found {
		t.Logf("view offer did not win (allowed), plan:\n%s", p.Explain())
	}
}

// TestPublicAPIUnsatisfiableQuery: a query whose WHERE clause no row can
// satisfy has an answer — the empty one, or one zero row for a global
// aggregate — and trading must return it rather than fail for want of offers.
// The buyer knows before its first RFB, so nothing is asked for or bought.
func TestPublicAPIUnsatisfiableQuery(t *testing.T) {
	fed := buildFed(t)
	const join = "SELECT c.custname, i.charge FROM customer c, invoiceline i WHERE c.custid = i.custid AND "
	cases := []struct {
		q    string
		rows int
	}{
		{join + "c.custid < 2 AND c.custid > 4", 0},        // contradicting ranges
		{join + "c.office = 'Paris'", 0},                   // every partition pruned
		{join + "i.charge > 1 AND 1 = 0", 0},               // constant false
		{join + "2 < 1 ORDER BY i.charge DESC LIMIT 3", 0}, // with a tail
		{"SELECT COUNT(*) FROM customer c WHERE 1 = 0", 1}, // global aggregate: one row, 0
		{"SELECT COUNT(*) FROM customer c, invoiceline i WHERE c.custid = i.custid AND c.office = 'Paris'", 1},
	}
	for _, mode := range []string{"dp", "idp", "greedy"} {
		for _, tc := range cases {
			p, err := fed.Optimize("hq", tc.q, WithPlanGenerator(mode))
			if err != nil {
				t.Fatalf("%s: %s: %v", mode, tc.q, err)
			}
			if st := p.Stats(); st.RFBsSent != 0 || len(p.Purchases()) != 0 {
				t.Fatalf("%s: %s: %d RFBs sent, %d offers bought, want none", mode, tc.q, st.RFBsSent, len(p.Purchases()))
			}
			res, err := p.Run()
			if err != nil {
				t.Fatalf("%s: %s: run: %v", mode, tc.q, err)
			}
			if len(res.Rows) != tc.rows || tc.rows == 1 && res.Rows[0][0] != int64(0) {
				t.Fatalf("%s: %s: rows %v, want %d", mode, tc.q, res.Rows, tc.rows)
			}
			if _, err := fed.Query("hq", tc.q, WithPlanGenerator(mode)); err != nil {
				t.Fatalf("%s: %s: query: %v", mode, tc.q, err)
			}
		}
	}
	// The traced and analysed paths take the same plan.
	p, err := fed.Optimize("hq", cases[0].q, WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if out, err := p.ExplainAnalyze(); err != nil || !strings.Contains(out, "Empty") {
		t.Fatalf("explain analyze: %v\n%s", err, out)
	}
}
