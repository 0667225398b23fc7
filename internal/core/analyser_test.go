package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"qtrade/internal/catalog"
	"qtrade/internal/localopt"
	"qtrade/internal/qgraph"
	"qtrade/internal/sqlparse"
	"qtrade/internal/value"
)

// analyseReference is the analyser as it was before it kept anything: every
// call rebuilds the graph, every subquery and every restricted clone, and
// walks all candidates whether or not maxNew texts are out. The kept analyser
// must return the same texts in the same order and leave asked the same.
func analyseReference(sel *sqlparse.Select, sch *catalog.Schema, cands []Candidate, asked map[string]bool, maxNew int) []string {
	if maxNew <= 0 {
		maxNew = maxNewQueries
	}
	var out []string
	add := func(sub *sqlparse.Select) {
		if len(out) >= maxNew {
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
	subquery := localopt.SubqueriesOf(sel, g)
	for _, c := range cands {
		for _, subset := range c.JoinSubsets {
			if len(subset) < 2 || len(subset) >= len(sel.From) {
				continue
			}
			add(subquery(subset))
		}
	}
	for _, c := range cands {
		for _, b := range c.UnionBindings {
			i, ok := g.Index(b)
			if !ok {
				continue
			}
			tr := sel.From[i]
			base := subquery([]string{tr.Binding()})
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
// candidates naming join subsets and unioned bindings (some unknown, some
// repeated), changing maxNew, one growing asked map — the analyser that keeps
// its texts returns what rebuilding everything returns, text for text, and
// marks the same queries asked.
func TestAnalyserMatchesReference(t *testing.T) {
	sch := chainSchema(3, 14, 80)
	bindings := []string{"r1", "r2", "r3", "R2", "ghost"}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sel := sqlparse.MustParseSelect(chain3)
		an := newAnalyser(sel, sch)
		askedGot, askedWant := map[string]bool{sel.SQL(): true}, map[string]bool{sel.SQL(): true}
		for iter := 0; iter < 6; iter++ {
			cands := make([]Candidate, rng.Intn(4))
			for i := range cands {
				for k := rng.Intn(3); k > 0; k-- {
					subset := []string{bindings[rng.Intn(3)], bindings[rng.Intn(len(bindings))]}
					if rng.Intn(4) == 0 {
						subset = append(subset, bindings[rng.Intn(3)])
					}
					cands[i].JoinSubsets = append(cands[i].JoinSubsets, subset)
				}
				for k := rng.Intn(3); k > 0; k-- {
					cands[i].UnionBindings = append(cands[i].UnionBindings, bindings[rng.Intn(len(bindings))])
				}
			}
			maxNew := []int{0, 1, 3, 12, 40}[rng.Intn(5)]
			got := an.next(cands, askedGot, maxNew)
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

// BenchmarkAnalyse is the predicates analyser over one negotiation of the
// chain_parts shape: 3 relations × 14 partitions, 5 iterations whose top three
// candidates union every relation and join two pairs, 12 new queries at most
// per iteration.
func BenchmarkAnalyse(b *testing.B) {
	sch := chainSchema(3, 14, 80)
	sel := sqlparse.MustParseSelect(chain3)
	cand := Candidate{JoinSubsets: [][]string{{"r1", "r2"}, {"r2", "r3"}}, UnionBindings: []string{"r1", "r2", "r3"}}
	cands := []Candidate{cand, cand, cand}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		an := newAnalyser(sel, sch)
		asked := map[string]bool{sel.SQL(): true}
		for iter := 0; iter < 5; iter++ {
			benchQueries = an.next(cands, asked, maxNewQueries)
		}
	}
}
