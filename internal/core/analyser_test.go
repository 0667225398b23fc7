package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"qtrade/internal/catalog"
	"qtrade/internal/cost"
	"qtrade/internal/ledger"
	"qtrade/internal/localopt"
	"qtrade/internal/plan"
	"qtrade/internal/qgraph"
	"qtrade/internal/sqlparse"
	"qtrade/internal/trading"
	"qtrade/internal/value"
)

// analyseReference is the analyser's proposals over sel, qualified, as they
// were before it kept anything: every call rebuilds the graph, every subquery
// and every restricted clone, and walks all candidates whether or not maxNew
// texts are out (maxNew <= 0: no bound); a candidate's unioned relations are taken by
// binding name, in name order, as candidates once named them. The kept
// analyser must propose the same texts in the same order and, marking them,
// leave asked the same.
func analyseReference(sel *sqlparse.Select, sch *catalog.Schema, cands []Candidate, asked map[string]bool, maxNew int) []string {
	var out []string
	add := func(sub *sqlparse.Select) {
		if maxNew > 0 && len(out) >= maxNew {
			return
		}
		sql := sub.SQL()
		if asked[sql] {
			return
		}
		asked[sql] = true
		out = append(out, sql)
	}
	g := qgraph.New(sel)
	subquery := localopt.Subqueries(sel, g, sch)
	known := uint(1)<<len(sel.From) - 1
	for _, c := range cands {
		for _, subset := range c.Joins {
			if k := bits.OnesCount(subset & known); k < 2 || k >= len(sel.From) {
				continue
			}
			add(subquery(subset & known))
		}
	}
	for _, c := range cands {
		var names []string
		for i, tr := range sel.From {
			if c.Unions&(1<<i) != 0 {
				names = append(names, strings.ToLower(tr.Binding()))
			}
		}
		sort.Strings(names)
		for _, b := range names {
			i, _ := g.Index(b)
			tr := sel.From[i]
			base := subquery(1 << i)
			for _, pid := range g.Relevant(sch, i) {
				p, ok := sch.Partition(tr.Name, pid)
				if !ok || p.Predicate == nil {
					continue
				}
				add(localopt.RestrictTo(base, tr.Binding(), p))
			}
		}
	}
	return out
}

// chainSchema is rels relations r1…, each range-partitioned on pk into parts
// partitions of width rows.
func chainSchema(rels, parts, width int) *catalog.Schema {
	sch := catalog.NewSchema()
	for r := 1; r <= rels; r++ {
		name := fmt.Sprintf("r%d", r)
		sch.MustAddTable(&catalog.TableDef{Name: name, Columns: []catalog.ColumnDef{
			{Name: "pk", Kind: value.Int}, {Name: "fk", Kind: value.Int}, {Name: "v", Kind: value.Float}}})
		var ps []*catalog.Partition
		for p := 0; p < parts; p++ {
			ps = append(ps, &catalog.Partition{Table: name, ID: fmt.Sprintf("p%d", p),
				Predicate: sqlparse.MustParseExpr(fmt.Sprintf("pk >= %d AND pk < %d", p*width, (p+1)*width))})
		}
		if err := sch.SetPartitions(name, ps); err != nil {
			panic(err)
		}
	}
	return sch
}

const chain3 = "SELECT r1.pk, r3.v FROM r1, r2, r3 WHERE r1.fk = r2.pk AND r2.fk = r3.pk AND r1.pk < 1100 AND r3.pk >= 160"

// TestAnalyserMatchesReference: over the iterations of a negotiation — random
// candidates naming join subsets and unioned relations (some bits repeated,
// some beyond the FROM list), changing maxNew, one growing asked map — the
// analyser that keeps its texts returns what rebuilding everything returns,
// text for text, and marks the same queries asked.
func TestAnalyserMatchesReference(t *testing.T) {
	sch := chainSchema(3, 14, 80)
	// r1, r2, r3, r2 again, and a relation the query does not have.
	bindings := []uint{1, 2, 4, 2, 8}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sel := sqlparse.MustParseSelect(chain3)
		if err := plan.Qualify(sel, sch); err != nil {
			t.Fatal(err)
		}
		an := newAnalyser(sel, sch)
		askedGot, askedWant := map[string]bool{sel.SQL(): true}, map[string]bool{sel.SQL(): true}
		for iter := 0; iter < 6; iter++ {
			cands := make([]Candidate, rng.Intn(4))
			for i := range cands {
				for k := rng.Intn(3); k > 0; k-- {
					subset := bindings[rng.Intn(3)] | bindings[rng.Intn(len(bindings))]
					if rng.Intn(4) == 0 {
						subset |= bindings[rng.Intn(3)]
					}
					cands[i].Joins = append(cands[i].Joins, subset)
				}
				for k := rng.Intn(3); k > 0; k-- {
					cands[i].Unions |= bindings[rng.Intn(len(bindings))]
				}
			}
			maxNew := []int{0, 1, 3, 12, 40}[rng.Intn(5)]
			var got []string
			for _, p := range an.propose(cands) {
				if maxNew > 0 && len(got) == maxNew {
					break
				}
				if sql, isNew := an.ask(p, askedGot); isNew {
					got = append(got, sql)
				}
			}
			want := analyseReference(sel, sch, cands, askedWant, maxNew)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(askedGot, askedWant) {
				t.Fatalf("seed %d iteration %d (maxNew %d, candidates %+v):\n got %q\nwant %q", seed, iter, maxNew, cands, got, want)
			}
			if fresh := Analyse(sel, sch, cands, map[string]bool{}, maxNew); !reflect.DeepEqual(fresh, analyseReference(sel, sch, cands, map[string]bool{}, maxNew)) {
				t.Fatalf("seed %d iteration %d: a fresh Analyse differs from the reference", seed, iter)
			}
		}
	}
}

var benchQueries []string

// BenchmarkAnalyse is the predicates analyser's proposals over one
// negotiation of the chain_parts shape: 3 relations × 14 partitions, 5
// iterations whose top three candidates union every relation and join two
// pairs, 12 of the proposals asked per iteration.
func BenchmarkAnalyse(b *testing.B) {
	sch := chainSchema(3, 14, 80)
	sel := sqlparse.MustParseSelect(chain3)
	cand := Candidate{Joins: []uint{0b011, 0b110}, Unions: 0b111}
	cands := []Candidate{cand, cand, cand}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		an := newAnalyser(sel, sch)
		asked := map[string]bool{sel.SQL(): true}
		for iter := 0; iter < 5; iter++ {
			benchQueries = benchQueries[:0]
			for _, p := range an.propose(cands) {
				if len(benchQueries) == 12 {
					break
				}
				if sql, isNew := an.ask(p, asked); isNew {
					benchQueries = append(benchQueries, sql)
				}
			}
		}
	}
}

// TestPredictedOffersAreNeverBought: the offers the analyser predicts live
// only inside its pricing run. Over a negotiation in which they decide what
// is asked, every offer the Result keeps standing, every award and every
// fetch names an offer a seller made: one the ledger recorded as a bid.
func TestPredictedOffersAreNeverBought(t *testing.T) {
	f := splitFederation(t)
	cfg, _ := flightCfg(f)
	res := optimizeAndRunTraced(t, f, cfg, splitQuery)
	if res.Stats.Iterations < 2 || res.Stats.QueriesAsked < 2 {
		t.Fatalf("the analyser asked nothing: %+v", res.Stats)
	}
	bids := map[string]bool{}
	var named []string
	for _, e := range res.LedgerRec.Snapshot().Events {
		switch e.Kind {
		case ledger.KindBid:
			bids[e.OfferID] = true
		case ledger.KindAward, ledger.KindFetch:
			named = append(named, e.Kind+" "+e.OfferID)
		}
	}
	for _, o := range res.Pool {
		named = append(named, "standing "+o.OfferID)
	}
	for _, o := range res.Candidate.Offers {
		named = append(named, "bought "+o.OfferID)
	}
	for _, n := range named {
		id := n[strings.IndexByte(n, ' ')+1:]
		if !bids[id] || strings.HasPrefix(id, predictedID) {
			t.Errorf("%s: no seller made this offer", n)
		}
	}
}

// TestRestrictionIsPricedByShare: a partition restriction is predicted as
// the offer it narrows, its time beyond the first row and its rows and bytes
// scaled by the share of the offer's partitions it keeps; the time to the
// first row and the buyer's latency correction are not scaled.
func TestRestrictionIsPricedByShare(t *testing.T) {
	sch := chainSchema(1, 4, 100)
	sel := sqlparse.MustParseSelect("SELECT r1.pk FROM r1")
	gen, err := newPlanGen(sel, sch, cost.Default(), GenDP, 0, func(string) float64 { return 0.25 })
	if err != nil {
		t.Fatal(err)
	}
	gen.take(trading.Offer{OfferID: "o1", SellerID: "s", SQL: "SELECT r1.pk FROM r1 WHERE r1.pk < 200",
		Bindings: []string{"r1"}, Parts: map[string][]string{"r1": {"p0", "p1"}},
		Cols: []trading.ColSpec{{Table: "r1", Name: "pk"}}, Price: 11.5,
		Props: cost.Valuation{TotalTime: 11.5, FirstRow: 1.5, Rows: 200, Bytes: 1600}})
	an := newAnalyser(sel, sch)
	props := an.propose([]Candidate{{Unions: 1}})
	if len(props) != 4 {
		t.Fatalf("%d restrictions proposed, want one per partition", len(props))
	}
	held := holdings(gen)
	for k, p := range props {
		preds := an.predict(gen, held, p)
		if k >= 2 { // p2 and p3: the offer does not cover them
			if len(preds) != 0 {
				t.Fatalf("p%d: predicted from an offer that does not hold it: %+v", k, preds)
			}
			continue
		}
		if len(preds) != 1 {
			t.Fatalf("p%d: %d predictions, want 1", k, len(preds))
		}
		o := preds[0].o
		// 1.5 to the first row, half of the other 10, and 0.5 of round trip.
		if o.Props.TotalTime != 7 || o.Props.Rows != 100 || o.Props.Bytes != 800 || math.Abs(o.Price-6.5) > 1e-9 || o.SellerID != "s" {
			t.Errorf("p%d: predicted %+v", k, o)
		}
	}
	// Where the pool holds offers of one partition of the relation, their
	// rows are what a partition carries: the most of them, bytes in step.
	for id, rows := range map[string]int64{"p2": 60, "p3": 40} {
		gen.take(trading.Offer{OfferID: "o-" + id, SellerID: "t", SQL: "SELECT r1.pk FROM r1 WHERE " + id,
			Bindings: []string{"r1"}, Parts: map[string][]string{"r1": {id}},
			Cols: []trading.ColSpec{{Table: "r1", Name: "pk"}}, Props: cost.Valuation{TotalTime: 2, FirstRow: 1.5, Rows: rows}})
	}
	if o := an.predict(gen, holdings(gen), props[0]); len(o) != 1 || o[0].o.Props.TotalTime != 7 || o[0].o.Props.Rows != 60 || o[0].o.Props.Bytes != 480 {
		t.Errorf("p0 beside offers of one partition: predicted %+v", o)
	}
}
