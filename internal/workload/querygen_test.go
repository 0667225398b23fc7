package workload

import (
	"flag"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"qtrade/internal/core"
	"qtrade/internal/node"
	"qtrade/internal/trading"
)

// fullSweep lengthens TestGeneratedQueriesMatchTheOracle from seconds to
// minutes: go test -run TestGeneratedQueries ./internal/workload -full.
var fullSweep = flag.Bool("full", false, "run the generated-query sweep for minutes instead of seconds")

// genTrial is one federation of the generated-query sweep and the setting its
// queries are negotiated under.
type genTrial struct {
	label       string
	f           *Federation
	mode        core.PlanGenMode
	protocol    trading.Protocol
	subcontract bool
}

// newGenTrial builds trial i's federation from its own seed: a chain of 2–5
// relations or a telco of 2–4 offices, with the plan generator, protocol and
// subcontracting taken by turns so that every 18 trials run every pairing.
func newGenTrial(i int) genTrial {
	rng := rand.New(rand.NewSource(int64(i)))
	modes := []core.PlanGenMode{core.GenDP, core.GenIDP, core.GenGreedy}
	protocols := []trading.Protocol{trading.SealedBid{}, trading.IterativeBid{MaxRounds: 3}, trading.Bargain{MaxRounds: 3}}
	tr := genTrial{mode: modes[i%3], protocol: protocols[i/3%3], subcontract: i/9%2 == 1}
	var strategy func() trading.SellerStrategy
	if rng.Intn(2) == 0 {
		strategy = func() trading.SellerStrategy { return trading.NewCompetitive() }
	}
	var configure func(*node.Config)
	if tr.subcontract {
		configure = func(c *node.Config) {
			id := c.ID
			c.SubcontractPeers = func() map[string]trading.Peer { return tr.f.Net.Peers(id) }
		}
	}
	if rng.Intn(3) == 0 {
		offices := []string{"Corfu", "Myconos", "Athens", "Rhodes"}[:2+rng.Intn(3)]
		opts := TelcoOptions{Offices: offices, CustomersPerOffice: 3 + rng.Intn(10), LinesPerCustomer: 1 + rng.Intn(3),
			InvoiceReplicas: 1 + rng.Intn(len(offices)), Seed: int64(i), Strategy: strategy, Configure: configure}
		tr.f = NewTelco(opts)
		tr.label = fmt.Sprintf("NewTelco(%+v)", opts)
	} else {
		opts := ChainOptions{Relations: 2 + rng.Intn(4), RowsPerRel: 20 + rng.Intn(60), Parts: 1 + rng.Intn(4),
			Nodes: 2 + rng.Intn(5), Replicas: 1 + rng.Intn(2), Seed: int64(i), Strategy: strategy, Configure: configure}
		tr.f = NewChain(opts)
		tr.label = fmt.Sprintf("NewChain(%+v)", opts)
	}
	tr.label += fmt.Sprintf(" competitive=%v mode=%s protocol=%s subcontract=%v",
		strategy != nil, tr.mode, tr.protocol.Name(), tr.subcontract)
	return tr
}

// mismatch trades sql and compares the answer with the oracle's as a
// multiset; nil when they agree. A query the buyer refuses ("no distributed
// plan possible") is a mismatch too: every generated query can be answered.
func (tr genTrial) mismatch(sql string) error {
	truth, err := tr.f.GroundTruth(sql)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	cfg := tr.f.BuyerConfig()
	cfg.Mode, cfg.Protocol = tr.mode, tr.protocol
	res, err := tr.f.Optimize(cfg, sql)
	if err != nil {
		return fmt.Errorf("optimize: %w", err)
	}
	got, err := tr.f.Execute(res)
	if err != nil {
		return fmt.Errorf("execute: %w", err)
	}
	if rowsKey(got.Rows) != rowsKey(truth.Rows) {
		return fmt.Errorf("answer differs: %d rows, the oracle has %d", len(got.Rows), len(truth.Rows))
	}
	return nil
}

// TestGeneratedQueriesMatchTheOracle is the paper's claim as a property:
// trading changes where a query runs, never what it returns. Generated
// select-project-join queries over chain and telco federations are traded and
// compared with the single-node oracle as multisets, under every plan
// generator × protocol × subcontracting pairing. Trials are seeded by their
// number; the run stops after about ten seconds (five minutes with -full) and
// never before every pairing ran. A mismatch — a refused query included — is
// shrunk to a minimal query before it is reported.
func TestGeneratedQueriesMatchTheOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("generated queries in short mode")
	}
	budget := 10 * time.Second
	if *fullSweep {
		budget = 5 * time.Minute
	}
	start, queries := time.Now(), 0
	trial := 0
	for ; trial < 18 || time.Since(start) < budget; trial++ {
		tr := newGenTrial(trial)
		gen := NewQueryGen(tr.f.Schema, int64(trial))
		for k := 0; k < 4; k++ {
			q := gen.Next()
			queries++
			err := tr.mismatch(q.SQL())
			if err == nil {
				continue
			}
			shrunk := Shrink(q, func(s GenQuery) bool { return tr.mismatch(s.SQL()) != nil })
			t.Fatalf("trial %d: %s\nquery:   %s\n%v\nshrunk:  %s\n%v", trial, tr.label, q.SQL(), err, shrunk.SQL(), tr.mismatch(shrunk.SQL()))
		}
	}
	t.Logf("%d trials, %d generated queries in %v", trial, queries, time.Since(start).Round(time.Millisecond))
}

// generatedRegressions are shrunk queries the generator found answered
// wrongly, each with the trial whose federation and setting showed it.
var generatedRegressions = []struct {
	trial int
	sql   string
}{
	// A whole-query composite ships the columns of its WHERE, each once: it
	// was bought as the answer, unprojected.
	{449, `SELECT "x-y".pk, "x-y".v, "x-y".v FROM r1 "x-y"`},
}

func TestGeneratedRegressions(t *testing.T) {
	for _, r := range generatedRegressions {
		if tr := newGenTrial(r.trial); tr.mismatch(r.sql) != nil {
			t.Errorf("trial %d: %s\n%s: %v", r.trial, tr.label, r.sql, tr.mismatch(r.sql))
		}
	}
}

// TestShrinkKeepsTheFailure: the shrinker drops every relation, conjunct and
// column the failure does not need, and keeps what is left joined.
func TestShrinkKeepsTheFailure(t *testing.T) {
	q := GenQuery{
		Rels:  []GenRel{{Table: "r1"}, {Table: "r2", Alias: "my rel"}, {Table: "r3"}},
		Joins: []GenJoin{{0, 1, "fk", "pk"}, {1, 2, "fk", "pk"}},
		Where: []GenConj{{Rel: 0, Col: "pk", Pred: "< 5"}, {Rel: 2, Col: "v", Pred: "IN (NULL, NULL)"}, {Rel: -1, Pred: "1 = 1"}},
		Cols:  []GenCol{{Rel: 0, Col: "pk"}, {Rel: 2, Col: "v"}},
	}
	fails := func(s GenQuery) bool { return strings.Contains(s.SQL(), "IN (NULL, NULL)") }
	got := Shrink(q, fails).SQL()
	if want := "SELECT r3.v FROM r3 WHERE r3.v IN (NULL, NULL)"; got != want {
		t.Fatalf("shrunk to %q, want %q", got, want)
	}
	// The middle relation cannot go alone: r1 and r3 would not be joined.
	keepEnds := func(s GenQuery) bool { return strings.Contains(s.SQL(), "r1.pk") && strings.Contains(s.SQL(), "r3.v") }
	if got, want := Shrink(q, keepEnds).SQL(), `SELECT r1.pk, r3.v FROM r1, r2 "my rel", r3 WHERE r1.fk = "my rel".pk AND "my rel".fk = r3.pk`; got != want {
		t.Fatalf("shrunk to %q, want %q", got, want)
	}
}
