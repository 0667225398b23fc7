package qtrade

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// buildConcurrentFed builds a four-office telco federation where every
// office node can act as buyer: three offices hold their customer partition
// plus an invoiceline replica, hq holds nothing. Data is deterministic, so
// every query has one correct answer whatever the concurrency or chaos.
func buildConcurrentFed() (*Federation, []string) {
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
	id := 0
	for _, office := range []string{"Corfu", "Myconos", "Athens"} {
		part := strings.ToLower(office)
		n := fed.MustAddNode(part)
		n.MustCreateFragment("customer", part)
		n.MustCreateFragment("invoiceline", "p0")
		for k := 0; k < 30; k++ {
			id++
			n.MustInsert("customer", part, Row(id, fmt.Sprintf("c%d", id), office))
			n.MustInsert("invoiceline", "p0", Row(1000+id, 1, id, float64(id%17)))
		}
	}
	fed.MustAddNode("hq")
	return fed, []string{"hq", "corfu", "myconos", "athens"}
}

var concurrentQueries = []string{
	`SELECT c.office, SUM(i.charge) AS total
	 FROM customer c, invoiceline i
	 WHERE c.custid = i.custid AND c.office IN ('Corfu', 'Myconos')
	 GROUP BY c.office ORDER BY c.office`,
	`SELECT c.custname FROM customer c WHERE c.office IN ('Corfu', 'Athens')`,
	`SELECT c.custname, i.charge FROM customer c, invoiceline i
	 WHERE c.custid = i.custid AND i.charge > 12`,
}

// canonResult renders an answer order-independently for equality checks.
func canonResult(r *Result) string {
	lines := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		lines[i] = fmt.Sprintf("%v", row)
	}
	sort.Strings(lines)
	return strings.Join(r.Columns, ",") + "\n" + strings.Join(lines, "\n")
}

var rfbAttr = regexp.MustCompile(`"rfb":"([^"]+)"`)

// TestConcurrentQueries is the federation-safety hammer: four clients, each
// buying from its own node, run traced, chaos-afflicted, recovery-enabled
// queries on one federation at once. It asserts (under -race in CI) that
// every successful answer equals the chaos-free ground truth, that no
// negotiation's offer pool contains another buyer's offers, and that no
// trace records another negotiation's RFBs.
func TestConcurrentQueries(t *testing.T) {
	fed, buyers := buildConcurrentFed()

	// Chaos-free serial ground truth. Answers are buyer-independent, so one
	// buyer's results serve as the expectation for every client.
	want := make(map[string]string, len(concurrentQueries))
	for _, q := range concurrentQueries {
		res, err := fed.Query(buyers[0], q)
		if err != nil {
			t.Fatalf("ground truth for %q: %v", q, err)
		}
		want[q] = canonResult(res)
	}

	fed.EnableFaultTolerance(FaultTolerance{
		MaxRetries: 6,
		// Keep breakers effectively closed: an open breaker would legally
		// drop a seller from a negotiation, which is graceful degradation,
		// not the determinism this test pins.
		BreakerThreshold: 1_000_000,
	})
	fed.SetFaultPlan(&FaultPlan{Seed: 7, DropProb: 0.04, ErrorProb: 0.02, JitterMS: 0.1})

	const iterations = 4
	var wg sync.WaitGroup
	errCh := make(chan error, len(buyers)*iterations)
	for ci, buyer := range buyers {
		wg.Add(1)
		go func(ci int, buyer string) {
			defer wg.Done()
			fail := func(format string, args ...any) {
				errCh <- fmt.Errorf("client %d (buyer %s): %s", ci, buyer, fmt.Sprintf(format, args...))
			}
			// Even clients trace their negotiations, odd ones do not.
			var opts []OptimizeOption
			traced := ci%2 == 0
			if traced {
				opts = append(opts, WithTrace())
			}
			for it := 0; it < iterations; it++ {
				q := concurrentQueries[(ci+it)%len(concurrentQueries)]
				if it%2 == 1 {
					// Recovery path: chaos faults during delivery re-optimize.
					res, err := fed.QueryWithRecovery(buyer, q, 3)
					if err != nil {
						fail("QueryWithRecovery: %v", err)
						return
					}
					if got := canonResult(res); got != want[q] {
						fail("recovered answer differs:\ngot  %s\nwant %s", got, want[q])
					}
					continue
				}
				p, err := fed.Optimize(buyer, q, opts...)
				if err != nil {
					fail("Optimize: %v", err)
					return
				}
				// No offer bleed: every offer this negotiation pooled or
				// purchased answers an RFB this buyer issued.
				for _, o := range p.res.Pool {
					if !strings.HasPrefix(o.RFBID, buyer+"-rfb") {
						fail("pool offer %s answers foreign RFB %s", o.OfferID, o.RFBID)
					}
				}
				for _, o := range p.res.Candidate.Offers {
					if !strings.HasPrefix(o.RFBID, buyer+"-rfb") {
						fail("purchased offer %s answers foreign RFB %s", o.OfferID, o.RFBID)
					}
				}
				// Plain execution is not fault-guarded; chaos can fail a
				// fetch. Fetches are idempotent, so retry the run and pin
				// that every success is the one correct answer.
				var res *Result
				for attempt := 0; attempt < 10; attempt++ {
					if res, err = p.Run(); err == nil {
						break
					}
				}
				if err != nil {
					fail("Run kept failing under chaos: %v", err)
					return
				}
				if got := canonResult(res); got != want[q] {
					fail("answer differs:\ngot  %s\nwant %s", got, want[q])
				}
				// No trace bleed: an untraced client's plan holds no spans,
				// and every RFB recorded in a traced client's trace is one
				// this buyer issued (sub-RFBs keep the prefix).
				var jsonl strings.Builder
				if err := p.Trace().WriteJSONL(&jsonl); err != nil {
					fail("trace export: %v", err)
					return
				}
				if traced == (jsonl.Len() == 0) {
					fail("traced %v, yet the plan holds %d bytes of spans", traced, jsonl.Len())
				}
				for _, m := range rfbAttr.FindAllStringSubmatch(jsonl.String(), -1) {
					if !strings.HasPrefix(m[1], buyer+"-rfb") {
						fail("trace records foreign RFB %s", m[1])
					}
				}
			}
		}(ci, buyer)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if s := fed.ChaosStats(); s.Drops+s.InjectedErrors+s.SlowCalls == 0 {
		t.Error("chaos plan injected nothing; the hammer ran unopposed")
	}
}
