package qtrade

import (
	"strings"
	"testing"
	"time"
)

// TestPublicAPIFaultTolerance drives the chaos + fault-tolerance surface end
// to end: a federation with a seeded drop plan and a shared fault policy
// keeps answering correctly, and the snapshot exposes both the policy
// counters and the injected-fault tallies. A permanently slow seller is cut
// off by call timeouts and then its breaker.
func TestPublicAPIFaultTolerance(t *testing.T) {
	fed := buildFed(t)
	fed.EnableFaultTolerance(FaultTolerance{
		CallTimeout:  500 * time.Millisecond,
		RoundTimeout: time.Second,
		MaxRetries:   3,
		Backoff:      time.Millisecond,
	})
	fed.SetFaultPlan(&FaultPlan{Seed: 3, DropProb: 0.2})

	// Under 20% drops a query can still die (every retry of a critical call
	// lost); reissue like a client would and require the answers that do
	// come back to be right.
	ok := 0
	for i := 0; i < 5 && ok < 3; i++ {
		res, err := fed.QueryWithRecovery("hq", totalsQuery, 2)
		if err != nil {
			continue
		}
		if len(res.Rows) != 2 || res.Rows[0][1].(float64) != 22 || res.Rows[1][1].(float64) != 22 {
			t.Fatalf("wrong answer under chaos: %v", res.Rows)
		}
		ok++
	}
	if ok == 0 {
		t.Fatal("no query survived a 20% drop rate with retries enabled")
	}
	if s := fed.ChaosStats(); s.Drops == 0 {
		t.Fatalf("chaos stats show no drops: %+v", s)
	}
	snap := fed.MetricsSnapshot()
	for _, line := range []string{"net.chaos.drops", "fault.retries"} {
		if !strings.Contains(snap, line) {
			t.Fatalf("snapshot missing %q:\n%s", line, snap)
		}
	}

	fed.SetFaultPlan(nil)
	if s := fed.ChaosStats(); s != (ChaosStats{}) {
		t.Fatalf("chaos stats survive plan removal: %+v", s)
	}
	if strings.Contains(fed.MetricsSnapshot(), "net.chaos.") {
		t.Fatal("snapshot keeps chaos lines after plan removal")
	}

	// A seller slower than the call timeout, holding nothing the query
	// needs, costs timed-out and retried calls until its breaker opens, and
	// no query fails or changes its answer.
	fed = buildFed(t)
	fed.EnableFaultTolerance(FaultTolerance{
		CallTimeout:      50 * time.Millisecond,
		MaxRetries:       1,
		Backoff:          time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
	})
	fed.SetFaultPlan(&FaultPlan{SlowNodeMS: map[string]float64{"athens": 300}})
	for i := 0; i < 3; i++ {
		res, err := fed.QueryWithRecovery("hq", totalsQuery, 2)
		if err != nil {
			t.Fatalf("query %d beside a slow seller: %v", i, err)
		}
		if len(res.Rows) != 2 || res.Rows[0][1].(float64) != 22 || res.Rows[1][1].(float64) != 22 {
			t.Fatalf("wrong answer beside a slow seller: %v", res.Rows)
		}
	}
	for _, c := range []string{"fault.call_timeouts", "fault.retries", "fault.breaker_opens"} {
		if n := fed.metrics.Counter(c).Value(); n == 0 {
			t.Fatalf("%s = 0 with athens slower than the call timeout:\n%s", c, fed.MetricsSnapshot())
		}
	}
}

// TestPublicAPIEmptyFaultPlanByteIdentical pins the tentpole's safety
// guarantee at the public surface: installing an all-zero FaultPlan changes
// nothing — same plan, same purchases and prices, same message and byte
// counts as a federation with no plan at all.
func TestPublicAPIEmptyFaultPlanByteIdentical(t *testing.T) {
	run := func(install bool) (string, []Purchase, int64) {
		fed := buildFed(t)
		if install {
			fed.SetFaultPlan(&FaultPlan{Seed: 99})
		}
		p, err := fed.Optimize("hq", totalsQuery)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(); err != nil {
			t.Fatal(err)
		}
		// Message counts are deterministic; byte totals vary run to run even
		// without chaos (offer-id digit widths depend on the concurrent
		// sequence-number assignment order), so they are not compared.
		msgs, _ := fed.NetworkStats()
		return p.Explain(), p.Purchases(), msgs
	}
	plainExplain, plainBuys, plainMsgs := run(false)
	chaosExplain, chaosBuys, chaosMsgs := run(true)
	if plainExplain != chaosExplain {
		t.Fatalf("plan differs under empty plan:\n%s\nvs\n%s", plainExplain, chaosExplain)
	}
	if len(plainBuys) != len(chaosBuys) {
		t.Fatalf("purchases differ: %v vs %v", plainBuys, chaosBuys)
	}
	for i := range plainBuys {
		if plainBuys[i] != chaosBuys[i] {
			t.Fatalf("purchase %d differs: %+v vs %+v", i, plainBuys[i], chaosBuys[i])
		}
	}
	if plainMsgs != chaosMsgs {
		t.Fatalf("message counts differ: %d vs %d", plainMsgs, chaosMsgs)
	}
}

// TestPublicAPIFaultPolicyGuardsRun: the fault policy is how a seller is
// reached, not a property of QueryWithRecovery — a plan optimized on a healthy
// federation and then run while every purchased seller is slower than the call
// timeout must fail with that timeout, long before the seller would answer.
func TestPublicAPIFaultPolicyGuardsRun(t *testing.T) {
	fed := buildFed(t)
	fed.EnableFaultTolerance(FaultTolerance{CallTimeout: 40 * time.Millisecond})
	p, err := fed.Optimize("hq", totalsQuery)
	if err != nil {
		t.Fatal(err)
	}
	slow := map[string]float64{}
	for _, b := range p.Purchases() {
		slow[b.Seller] = 300
	}
	if len(slow) == 0 {
		t.Fatal("plan purchases nothing remote")
	}
	fed.SetFaultPlan(&FaultPlan{SlowNodeMS: slow})

	start := time.Now()
	_, err = p.Run()
	took := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "call timed out") {
		t.Fatalf("Run over sellers slower than the call timeout: err = %v after %v, want a call timeout", err, took)
	}
	if took > 150*time.Millisecond {
		t.Fatalf("Run took %v: the fetch waited for the slow seller instead of the 40ms call timeout", took)
	}
	if n := fed.metrics.Counter("fault.call_timeouts").Value(); n < 1 {
		t.Fatalf("fault.call_timeouts = %d, want >= 1", n)
	}
}

const corfuQuery = `SELECT c.custname FROM customer c WHERE c.office = 'Corfu'`

// TestPublicAPIFaultCrashedNodeRejoinsReachable: a crash mark belongs to the
// member, so a crashed node that leaves and joins again under the same id
// serves without a RestartNode.
func TestPublicAPIFaultCrashedNodeRejoinsReachable(t *testing.T) {
	fed := buildFed(t)
	fed.CrashNode("corfu")
	if _, err := fed.Query("hq", corfuQuery); err == nil {
		t.Fatal("a crashed node's partition must be unreachable")
	}
	if err := fed.RemoveNode("corfu"); err != nil {
		t.Fatal(err)
	}
	n := fed.MustAddNode("corfu")
	n.MustCreateFragment("customer", "corfu")
	n.MustInsert("customer", "corfu", Row(1, "alice", "Corfu"))
	n.MustInsert("customer", "corfu", Row(2, "bob", "Corfu"))
	res, err := fed.Query("hq", corfuQuery)
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("the rejoined node must serve: %v, %+v", err, res)
	}
}

// TestPublicAPIFaultCrashOutlivesFaultPlan: installing or removing a fault
// plan revives no crashed node; only RestartNode does.
func TestPublicAPIFaultCrashOutlivesFaultPlan(t *testing.T) {
	fed := buildFed(t)
	fed.CrashNode("corfu")
	for _, plan := range []*FaultPlan{{Seed: 1}, nil} {
		fed.SetFaultPlan(plan)
		if _, err := fed.Query("hq", corfuQuery); err == nil {
			t.Fatalf("SetFaultPlan(%+v) revived a crashed node", plan)
		}
	}
	if s := fed.ChaosStats(); s.Crashes != 0 {
		t.Fatalf("a CrashNode is not a fault the plan injected: %+v", s)
	}
	fed.RestartNode("corfu")
	if res, err := fed.Query("hq", corfuQuery); err != nil || len(res.Rows) != 2 {
		t.Fatalf("the restarted node must serve: %v, %+v", err, res)
	}
}
