package qtrade

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"qtrade/internal/value"
)

// TestPublicLifecycleDrainUndrain walks the reversible half of the lifecycle
// through the public API: draining a node removes it from every buyer's
// fan-out (queries that need its unreplicated data fail fast, queries served
// by the rest of the federation keep working), and undraining restores it.
func TestPublicLifecycleDrainUndrain(t *testing.T) {
	fed := buildFed(t)
	fed.EnableFaultTolerance(FaultTolerance{MaxRetries: 2, BreakerThreshold: 1_000_000})

	states := fed.NodeStates()
	if len(states) != 4 {
		t.Fatalf("members: %v", states)
	}
	for id, st := range states {
		if st != "active" {
			t.Fatalf("fresh node %s is %s", id, st)
		}
	}

	if err := fed.DrainNode("ghost"); err == nil {
		t.Fatal("draining an unknown node must error")
	}
	if err := fed.DrainNode("corfu"); err != nil {
		t.Fatal(err)
	}
	if st := fed.NodeStates()["corfu"]; st != "draining" {
		t.Fatalf("corfu state after drain: %s", st)
	}
	h, err := fed.NodeHealth("corfu")
	if err != nil || h.State != "draining" || h.Ready {
		t.Fatalf("corfu health after drain: %+v, %v", h, err)
	}
	dirState := ""
	for _, p := range fed.PeerDirectory() {
		if p.ID == "corfu" {
			dirState = p.State
		}
	}
	if dirState != "draining" {
		t.Fatalf("peer directory must mark corfu draining: %+v", fed.PeerDirectory())
	}

	// Myconos customers and the invoiceline replica live outside corfu: the
	// federation keeps answering around the draining member.
	res, err := fed.Query("hq", `SELECT c.custname FROM customer c WHERE c.office = 'Myconos'`)
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("query around the drained node: %v, %+v", err, res)
	}
	// Corfu's customer partition has no replica: a query needing it cannot be
	// covered while corfu is out of the fan-out.
	if _, err := fed.Query("hq", totalsQuery); err == nil {
		t.Fatal("a drained node's unreplicated partition must be unreachable")
	}

	if err := fed.UndrainNode("corfu"); err != nil {
		t.Fatal(err)
	}
	if err := fed.UndrainNode("corfu"); err == nil {
		t.Fatal("undraining an active node must error")
	}
	res, err = fed.Query("hq", totalsQuery)
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("undrained federation must answer again: %v, %+v", err, res)
	}
}

// TestPublicLifecycleRemoveAndRejoin makes the departure final: RemoveNode
// drops the member from states, directory and network, and rejoining under
// the same id is a fresh AddNode that serves again.
func TestPublicLifecycleRemoveAndRejoin(t *testing.T) {
	fed := buildFed(t)
	fed.EnableFaultTolerance(FaultTolerance{MaxRetries: 2, BreakerThreshold: 1_000_000})

	if err := fed.DrainNode("athens"); err != nil {
		t.Fatal(err)
	}
	if !fed.QuiesceNode("athens", time.Second) {
		t.Fatal("an idle draining node must quiesce")
	}
	if err := fed.RemoveNode("athens"); err != nil {
		t.Fatal(err)
	}
	if err := fed.RemoveNode("athens"); err == nil {
		t.Fatal("removing a removed node must error")
	}
	if _, ok := fed.NodeStates()["athens"]; ok {
		t.Fatalf("athens still listed: %v", fed.NodeStates())
	}
	for _, p := range fed.PeerDirectory() {
		if p.ID == "athens" {
			t.Fatalf("athens still in the peer directory: %+v", p)
		}
	}
	if _, err := fed.NodeHealth("athens"); err == nil {
		t.Fatal("health of a removed node must error")
	}

	res, err := fed.Query("hq", totalsQuery)
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("federation must survive the removal: %v, %+v", err, res)
	}
	if _, err := fed.Query("hq", `SELECT c.custname FROM customer c WHERE c.office = 'Athens'`); err == nil {
		t.Fatal("the removed node's partition must be unreachable")
	}

	// Rejoin: same identity, fresh node, fresh data.
	n := fed.MustAddNode("athens")
	n.MustCreateFragment("customer", "athens")
	n.MustInsert("customer", "athens", Row(4, "dave", "Athens"))
	res, err = fed.Query("hq", `SELECT c.custname FROM customer c WHERE c.office = 'Athens'`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("rejoined node must serve: %v, %+v", err, res)
	}
	if st := fed.NodeStates()["athens"]; st != "active" {
		t.Fatalf("rejoined state: %s", st)
	}
}

// TestRejoinedNodeStartsWithAClosedBreaker: a peer's breaker lives in its
// directory entry, so RemoveNode drops it with the entry and a node that
// rejoins under the same id is not skipped for its predecessor's failures.
func TestRejoinedNodeStartsWithAClosedBreaker(t *testing.T) {
	fed := buildFed(t)
	fed.EnableFaultTolerance(FaultTolerance{BreakerThreshold: 1, BreakerCooldown: time.Hour})
	athensQuery := `SELECT c.custname FROM customer c WHERE c.office = 'Athens'`

	// One failed call opens athens's breaker.
	fed.CrashNode("athens")
	if _, err := fed.Query("hq", athensQuery); err == nil {
		t.Fatal("a crashed node's partition must be unreachable")
	}
	if v := metricValue(t, fed.MetricsSnapshot(), "fault.breaker.athens"); v != 2 {
		t.Fatalf("the failed call must open athens's breaker: fault.breaker.athens = %d", v)
	}

	if err := fed.RemoveNode("athens"); err != nil {
		t.Fatal(err)
	}
	n := fed.MustAddNode("athens")
	n.MustCreateFragment("customer", "athens")
	n.MustInsert("customer", "athens", Row(4, "dave", "Athens"))

	res, err := fed.Query("hq", athensQuery)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("the rejoined node must serve: %v, %+v", err, res)
	}
	for _, p := range fed.PeerDirectory() {
		if p.ID == "athens" && p.Breaker == "open" {
			t.Fatalf("the rejoined node inherited its predecessor's breaker: %+v", p)
		}
	}
	h, err := fed.NodeHealth("hq")
	if err != nil {
		t.Fatal(err)
	}
	if st := h.Breakers["athens"]; st == "open" {
		t.Fatalf("hq reports a stale athens:%s breaker: %v", st, h.Breakers)
	}
	if v := metricValue(t, fed.MetricsSnapshot(), "fault.breaker.athens"); v != 0 {
		t.Fatalf("fault.breaker.athens = %d after the rejoin, want 0 (closed)", v)
	}
}

// TestLedgerRecordsMembershipEvents pins the audit half of the lifecycle:
// joins, drains, undrains and leaves land as membership events in the
// federation ledger and in its JSONL export next to the negotiations.
func TestLedgerRecordsMembershipEvents(t *testing.T) {
	fed := buildLedgerFed(t, []FederationOption{WithLedger(8)})
	if err := fed.DrainNode("corfu"); err != nil {
		t.Fatal(err)
	}
	if err := fed.UndrainNode("corfu"); err != nil {
		t.Fatal(err)
	}
	if err := fed.DrainNode("corfu"); err != nil {
		t.Fatal(err)
	}
	if err := fed.RemoveNode("corfu"); err != nil {
		t.Fatal(err)
	}

	var kinds []string
	for _, e := range fed.Ledger().LifecycleEvents() {
		if e.Seller == "corfu" {
			kinds = append(kinds, e.Kind)
		}
	}
	want := []string{"join", "drain", "undrain", "drain", "leave"}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Fatalf("corfu membership history %v, want %v", kinds, want)
	}

	var buf strings.Builder
	if err := fed.WriteLedgerJSONL(&buf, 0); err != nil {
		t.Fatal(err)
	}
	for _, wantStr := range []string{`"id":"lifecycle"`, `"kind":"join"`,
		`"kind":"drain"`, `"kind":"undrain"`, `"kind":"leave"`} {
		if !strings.Contains(buf.String(), wantStr) {
			t.Fatalf("ledger export missing %s:\n%s", wantStr, buf.String())
		}
	}
}

// TestConcurrentQueriesUnderChurn is the churn hammer: clients keep buying
// answers whose data is replicated outside the churn victim while another
// goroutine first joins a new seller holding a replica of everything the
// queries read, then drains, undrains, crashes and restarts that victim.
// Every query must return the chaos-free ground truth — churn may change who
// sells, never what is answered. Each client runs half its queries before the
// join and half after it, so the join lands under load.
func TestConcurrentQueriesUnderChurn(t *testing.T) {
	fed, _ := buildConcurrentFed()

	// Both queries avoid corfu's unreplicated customer partition; the
	// invoiceline replica lives on every office node.
	queries := []string{
		`SELECT c.custname FROM customer c WHERE c.office IN ('Myconos', 'Athens')`,
		`SELECT c.office, SUM(i.charge) AS total
		 FROM customer c, invoiceline i
		 WHERE c.custid = i.custid AND c.office IN ('Myconos', 'Athens')
		 GROUP BY c.office ORDER BY c.office`,
	}
	want := make(map[string]string, len(queries))
	for _, q := range queries {
		res, err := fed.Query("hq", q)
		if err != nil {
			t.Fatalf("ground truth for %q: %v", q, err)
		}
		want[q] = canonResult(res)
	}

	// The joiner's replicas: the customer partitions the queries read and
	// invoiceline, copied out of the federation before the run.
	replicas := map[[2]string]string{
		{"customer", "myconos"}: `SELECT custid, custname, office FROM customer WHERE office = 'Myconos'`,
		{"customer", "athens"}:  `SELECT custid, custname, office FROM customer WHERE office = 'Athens'`,
		{"invoiceline", "p0"}:   `SELECT invid, linenum, custid, charge FROM invoiceline`,
	}
	rows := make(map[[2]string][][]value.Value, len(replicas))
	for frag, q := range replicas {
		res, err := fed.Query("hq", q)
		if err != nil || len(res.Rows) == 0 {
			t.Fatalf("copying %v: %d rows, %v", frag, len(res.Rows), err)
		}
		for _, r := range res.Rows {
			rows[frag] = append(rows[frag], Row(r...))
		}
	}
	// join adds the seller through the public API. It stays crashed until its
	// replicas hold every row: a buyer that reached it earlier would be sold
	// the empty fragment's answer.
	join := func(id string) error {
		fed.CrashNode(id)
		defer fed.RestartNode(id)
		n, err := fed.AddNode(id)
		if err != nil {
			return err
		}
		for frag, rs := range rows {
			if err := n.CreateFragment(frag[0], frag[1]); err != nil {
				return err
			}
			if err := n.Insert(frag[0], frag[1], rs...); err != nil {
				return err
			}
		}
		return nil
	}

	fed.EnableFaultTolerance(FaultTolerance{
		CallTimeout:      2 * time.Second,
		MaxRetries:       6,
		BreakerThreshold: 1_000_000,
	})

	stop := make(chan struct{})
	answered := make(chan struct{}) // closed at the first right answer
	var firstAnswer sync.Once
	joined := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		select {
		case <-answered:
		case <-stop:
			return
		}
		if err := join("paros"); err != nil {
			t.Errorf("seller join mid-run: %v", err)
		}
		close(joined)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := fed.DrainNode("corfu"); err != nil {
				return
			}
			time.Sleep(2 * time.Millisecond)
			if err := fed.UndrainNode("corfu"); err != nil {
				return
			}
			fed.CrashNode("corfu")
			time.Sleep(2 * time.Millisecond)
			fed.RestartNode("corfu")
		}
	}()

	const clients, iterations = 3, 6
	var wg sync.WaitGroup
	errCh := make(chan error, clients*iterations)
	for ci, buyer := range []string{"hq", "myconos", "athens"} {
		wg.Add(1)
		go func(ci int, buyer string) {
			defer wg.Done()
			for it := 0; it < iterations; it++ {
				if it == iterations/2 {
					<-joined
				}
				q := queries[(ci+it)%len(queries)]
				res, err := fed.QueryWithRecovery(buyer, q, 4)
				if err != nil {
					errCh <- err
					return
				}
				if got := canonResult(res); got != want[q] {
					errCh <- fmt.Errorf("buyer %s answer differs for %q:\ngot  %s\nwant %s",
						buyer, q, got, want[q])
					return
				}
				firstAnswer.Do(func() { close(answered) })
			}
		}(ci, buyer)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("query failed under churn: %v", err)
	}

	// The churn loop must actually have churned, and the federation must end
	// in a legal, queryable state with the joiner an active member.
	if st := fed.NodeStates()["paros"]; st != "active" {
		t.Fatalf("joined seller paros is %q, want active", st)
	}
	fed.RestartNode("corfu")
	if st := fed.NodeStates()["corfu"]; st == "draining" {
		_ = fed.UndrainNode("corfu")
	}
	res, err := fed.Query("hq", queries[0])
	if err != nil || canonResult(res) != want[queries[0]] {
		t.Fatalf("federation unhealthy after churn: %v", err)
	}
}

// A plan may outlive its buyer: once the buyer is removed, running or
// analysing the plan is an error naming the buyer, not a nil dereference.
func TestPlanRunAfterBuyerRemoved(t *testing.T) {
	fed, _ := buildConcurrentFed()
	p, err := fed.Optimize("hq", concurrentQueries[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := fed.RemoveNode("hq"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); err == nil || !strings.Contains(err.Error(), `unknown buyer node "hq"`) {
		t.Fatalf("Run after the buyer was removed: %v", err)
	}
	if _, err := p.ExplainAnalyze(); err == nil || !strings.Contains(err.Error(), `unknown buyer node "hq"`) {
		t.Fatalf("ExplainAnalyze after the buyer was removed: %v", err)
	}
}

// ExplainAnalyze finds its buyer under the federation's lock: nodes may join
// while it runs (a data race on the node map under -race otherwise).
func TestExplainAnalyzeBesideAddNode(t *testing.T) {
	fed, _ := buildConcurrentFed()
	p, err := fed.Optimize("hq", concurrentQueries[1])
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			fed.MustAddNode("joiner" + strconv.Itoa(i))
		}
	}()
	for i := 0; i < 20; i++ {
		if _, err := p.ExplainAnalyze(); err != nil {
			t.Errorf("ExplainAnalyze beside AddNode: %v", err)
			break
		}
	}
	wg.Wait()
}
