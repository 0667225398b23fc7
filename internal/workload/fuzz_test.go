package workload

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"qtrade/internal/core"
	"qtrade/internal/node"
	"qtrade/internal/trading"
)

// TestFuzzChainFederations cross-checks the full QT pipeline against the
// single-node oracle over randomized federations: random relation counts,
// partitioning, replication, node counts, plan generator modes and filter
// selectivities, under every negotiation protocol (with sellers whose asks
// move between rounds) and with subcontracting on and off. Any divergence
// between the distributed answer and the oracle is a correctness bug
// somewhere in the trading stack.
func TestFuzzChainFederations(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz in short mode")
	}
	rng := rand.New(rand.NewSource(20260705))
	modes := []core.PlanGenMode{core.GenDP, core.GenIDP, core.GenGreedy}
	protocols := []trading.Protocol{trading.SealedBid{}, trading.IterativeBid{MaxRounds: 3}, trading.Bargain{MaxRounds: 3}}
	covered := map[string]bool{}
	pricedKinds := map[string]int{} // offers whose priced plan was checked against their text, see pricedPlans
	trials := 30
	for i := 0; i < trials; i++ {
		opts := ChainOptions{
			Relations:  2 + rng.Intn(3),
			RowsPerRel: 30 + rng.Intn(60),
			Parts:      1 + rng.Intn(4),
			Nodes:      2 + rng.Intn(5),
			Replicas:   1 + rng.Intn(2),
			Seed:       int64(i * 31),
		}
		selFrac := []float64{1, 0.5, 0.25}[rng.Intn(3)]
		mode := modes[rng.Intn(len(modes))]
		// The protocol and subcontracting are drawn by turns, not from rng: the
		// thirty federations stay the ones they were, and every pairing comes up.
		protocol, subcontract := protocols[i%3], i/3%2 == 1
		label := fmt.Sprintf("trial %d: %+v selFrac=%.2f mode=%s protocol=%s subcontract=%v",
			i, opts, selFrac, mode, protocol.Name(), subcontract)

		var f *Federation
		if i%3 != 0 {
			opts.Strategy = func() trading.SellerStrategy { return trading.NewCompetitive() }
		}
		if subcontract {
			opts.Configure = func(c *node.Config) {
				id := c.ID
				c.SubcontractPeers = func() map[string]trading.Peer { return f.Net.Peers(id) }
			}
		}
		f = NewChain(opts)
		q := ChainQuery(opts, selFrac)
		truth, err := f.GroundTruth(q)
		if err != nil {
			t.Fatalf("%s: oracle: %v", label, err)
		}
		cfg := f.BuyerConfig()
		cfg.Mode, cfg.Protocol = mode, protocol
		res, err := f.Optimize(cfg, q)
		if err != nil {
			t.Fatalf("%s: optimize: %v", label, err)
		}
		got, err := f.Execute(res)
		if err != nil {
			t.Fatalf("%s: execute: %v", label, err)
		}
		if rowsKey(got.Rows) != rowsKey(truth.Rows) {
			t.Fatalf("%s: answer differs: %d vs %d rows\nquery: %s",
				label, len(got.Rows), len(truth.Rows), q)
		}

		// The predicate shapes the query graph has to get right, on the same
		// federation, in every generator mode.
		for _, q := range edgePredicateQueries {
			if strings.Contains(q, "r3") && opts.Relations < 3 {
				continue
			}
			truth, err := f.GroundTruth(q)
			if err != nil {
				t.Fatalf("%s: oracle: %s: %v", label, q, err)
			}
			for _, mode := range modes {
				cfg.Mode = mode
				res, err := f.Optimize(cfg, q)
				if err != nil {
					t.Fatalf("%s: %s: optimize %s: %v", label, mode, q, err)
				}
				got, err := f.Execute(res)
				if err != nil {
					t.Fatalf("%s: %s: execute %s: %v", label, mode, q, err)
				}
				if rowsKey(got.Rows) != rowsKey(truth.Rows) {
					t.Fatalf("%s: %s: answer differs: %d vs %d rows\nquery: %s",
						label, mode, len(got.Rows), len(truth.Rows), q)
				}
				covered[fmt.Sprintf("%s %s %v", mode, protocol.Name(), subcontract)] = true
			}
		}

		// What every node of the same federation would sell of the same queries
		// runs as its text does.
		queries := []string{q}
		for _, q := range edgePredicateQueries {
			if !strings.Contains(q, "r3") || opts.Relations >= 3 {
				queries = append(queries, q)
			}
		}
		pricedPlans(t, fmt.Sprintf("trial%d", i), f, queries, pricedKinds)
	}
	if len(covered) != 3*3*2 {
		t.Fatalf("%d of the 18 mode × protocol × subcontracting pairings ran: %v", len(covered), covered)
	}
	for _, kind := range []string{"o1", "o2", "o3", "o4", "s1"} {
		if pricedKinds[kind] == 0 {
			t.Errorf("no %q offer had its priced plan checked against its text: %v", kind, pricedKinds)
		}
	}
}

// edgePredicateQueries are chain-schema queries whose WHERE clauses sit on the
// edges of conjunct classification: relations named twice, by three relations
// or by none, non-equi and disjunctive join predicates, no join predicate at
// all, and clauses no row satisfies.
var edgePredicateQueries = []string{
	"SELECT a.pk, b.v FROM r1 a, r1 b WHERE a.fk = b.pk AND a.pk < 20",
	"SELECT r1.pk, r3.v FROM r1, r2, r3 WHERE r1.fk = r2.pk AND r2.fk = r3.pk AND r1.pk + r2.pk < r3.pk + 40",
	"SELECT r1.pk, r2.v FROM r1, r2 WHERE r1.fk = r2.pk AND (r1.pk < 10 OR r2.pk > 50)",
	"SELECT r1.pk, r2.pk FROM r1, r2 WHERE r1.pk < r2.pk",
	"SELECT r1.pk, r2.pk FROM r1, r2 WHERE r1.pk < 5 AND r2.pk >= 25",
	"SELECT r1.pk, r2.v FROM r1, r2 WHERE r1.fk = r2.pk AND r1.pk < 30 AND r1.pk < 20",
	"SELECT r1.pk, r2.v FROM r1, r2 WHERE r1.fk = r2.pk AND r1.pk < 20 AND 1 = 1",
	"SELECT r1.pk FROM r1 WHERE 1 = 0",
	"SELECT r1.pk FROM r1 WHERE r1.pk < 5 AND 1 = 0",
	"SELECT r1.pk, r2.v FROM r1, r2 WHERE r1.fk = r2.pk AND 1 = 0",
	"SELECT COUNT(*) FROM r1 WHERE 1 = 0",
	"SELECT r1.pk, r2.v FROM r1, r2 WHERE r1.fk = r2.pk AND r1.pk < 10 AND r1.pk > 30",
	"SELECT r1.pk, r2.v FROM r1, r2 WHERE r1.fk = r2.pk AND r1.pk < 10 AND r1.pk > 30 ORDER BY r2.v DESC LIMIT 5",
	"SELECT COUNT(*), SUM(r2.v) FROM r1, r2 WHERE r1.fk = r2.pk AND r1.pk < 10 AND r1.pk > 30",
}

// TestFuzzTelcoQueries randomizes the telco workload and office subsets.
func TestFuzzTelcoQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz in short mode")
	}
	rng := rand.New(rand.NewSource(42))
	allOffices := []string{"Corfu", "Myconos", "Athens", "Rhodes"}
	for i := 0; i < 12; i++ {
		nOffices := 2 + rng.Intn(3)
		offices := append([]string{}, allOffices[:nOffices]...)
		f := NewTelco(TelcoOptions{
			Offices:            offices,
			CustomersPerOffice: 5 + rng.Intn(20),
			LinesPerCustomer:   1 + rng.Intn(3),
			InvoiceReplicas:    1 + rng.Intn(nOffices),
			Seed:               int64(i),
		})
		// Random non-empty office subset for the IN list.
		var subset []string
		for _, o := range offices {
			if rng.Intn(2) == 0 {
				subset = append(subset, o)
			}
		}
		if len(subset) == 0 {
			subset = offices[:1]
		}
		queries := []string{
			TotalsQuery(subset...),
			fmt.Sprintf("SELECT c.custname, i.charge FROM customer c, invoiceline i WHERE c.custid = i.custid AND c.office IN (%s) AND i.charge > 20", quoteList(subset)),
			fmt.Sprintf("SELECT c.custname FROM customer c WHERE c.office IN (%s) ORDER BY c.custname LIMIT 7", quoteList(subset)),
		}
		for _, q := range queries {
			truth, err := f.GroundTruth(q)
			if err != nil {
				t.Fatalf("trial %d oracle (%s): %v", i, q, err)
			}
			res, err := f.Optimize(f.BuyerConfig(), q)
			if err != nil {
				t.Fatalf("trial %d optimize (%s): %v", i, q, err)
			}
			got, err := f.Execute(res)
			if err != nil {
				t.Fatalf("trial %d execute (%s): %v", i, q, err)
			}
			if !sameModuloLimit(q, rowsKey(got.Rows), rowsKey(truth.Rows), len(got.Rows), len(truth.Rows)) {
				t.Fatalf("trial %d answer differs for %s:\ngot  %d rows\nwant %d rows",
					i, q, len(got.Rows), len(truth.Rows))
			}
		}
	}
}

func quoteList(items []string) string {
	quoted := make([]string, len(items))
	for i, s := range items {
		quoted[i] = "'" + s + "'"
	}
	return strings.Join(quoted, ", ")
}

// sameModuloLimit treats LIMIT queries as set-compatible when row counts
// match (different but valid orders may pick different ties).
func sameModuloLimit(q, gotKey, wantKey string, gotN, wantN int) bool {
	if gotKey == wantKey {
		return true
	}
	return strings.Contains(strings.ToUpper(q), "LIMIT") && gotN == wantN
}
