package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"qtrade/internal/catalog"
	"qtrade/internal/cost"
	"qtrade/internal/expr"
	"qtrade/internal/plan"
	"qtrade/internal/sqlparse"
	"qtrade/internal/trading"
	"qtrade/internal/value"
)

// exactCoverReference is the map-of-pointers subset DP that exactCover
// replaced, kept verbatim as the differential oracle.
func exactCoverReference(g *planGen, b int, group []*offerInfo) *assembly {
	target := g.fullMask[b]
	type entry struct {
		max, sum float64
		rows     int64
		bytes    float64
		used     []*offerInfo
	}
	dp := map[uint]*entry{0: {}}
	// Deterministic iteration.
	sort.Slice(group, func(i, j int) bool { return group[i].o.OfferID < group[j].o.OfferID })
	for _, info := range group {
		pm := info.partMask[b]
		if pm == 0 || pm&^target != 0 {
			continue
		}
		updates := map[uint]*entry{}
		for covered, e := range dp {
			if covered&pm != 0 {
				continue // overlap would duplicate rows
			}
			nc := covered | pm
			cand := &entry{
				max:   math.Max(e.max, info.o.Props.TotalTime),
				sum:   e.sum + info.o.Props.TotalTime,
				rows:  e.rows + info.o.Props.Rows,
				bytes: e.bytes + info.o.Props.Bytes,
				used:  append(append([]*offerInfo{}, e.used...), info),
			}
			prev, ok := dp[nc]
			prevU, okU := updates[nc]
			better := func(old *entry) bool {
				if old == nil {
					return true
				}
				if cand.max != old.max {
					return cand.max < old.max
				}
				return cand.sum < old.sum
			}
			if (!ok || better(prev)) && (!okU || better(prevU)) {
				updates[nc] = cand
			}
		}
		for k, v := range updates {
			dp[k] = v
		}
	}
	win, ok := dp[target]
	if !ok || len(win.used) < 2 {
		return nil // single-offer covers are handled by directAssemblies
	}
	inputs := make([]plan.Node, len(win.used))
	var offers []trading.Offer
	for i, info := range win.used {
		inputs[i] = info.remote()
		offers = append(offers, info.o)
	}
	return &assembly{
		node:      &plan.Union{Card: plan.Card{Est: win.rows}, Inputs: inputs},
		schema:    win.used[0].schema,
		remoteMax: win.max,
		remoteSum: win.sum,
		rows:      win.rows,
		bytes:     win.bytes,
		offers:    offers,
		unions:    []string{g.bindings[b]},
	}
}

// randomCoverGroup draws one exact-cover problem over nParts partitions:
// singleton and coarse offers in shuffled OfferID order, overlapping at will,
// with times from a small set so equal-cost ties are common. Some offers
// carry partitions outside the target, and some targets have a partition no
// offer holds.
func randomCoverGroup(rng *rand.Rand, nParts int, target uint) []*offerInfo {
	var group []*offerInfo
	add := func(pm uint) {
		id := len(group)
		group = append(group, &offerInfo{
			o: trading.Offer{OfferID: fmt.Sprintf("o%03d", id), SellerID: fmt.Sprintf("n%d", id%5),
				SQL: fmt.Sprintf("q%d", id), Props: cost.Valuation{TotalTime: float64(1 + rng.Intn(4)),
					Rows: int64(rng.Intn(50)), Bytes: float64(rng.Intn(900))}},
			partMask: []uint{pm},
			schema:   []expr.ColumnID{{Table: "r", Name: "pk"}},
		})
	}
	if nParts > 20 {
		// Many partitions, few coarse offers: a split into runs, a second split
		// at other cut points, and the odd whole-extent offer.
		for split := 0; split < 2; split++ {
			for lo := 0; lo < nParts; {
				hi := min(lo+1+rng.Intn(nParts/2), nParts)
				add((uint(1)<<hi - 1) &^ (uint(1)<<lo - 1))
				lo = hi
			}
		}
		if rng.Intn(3) == 0 {
			add(target)
		}
	} else {
		skip := -1
		if rng.Intn(5) == 0 {
			skip = rng.Intn(nParts) // uncoverable target
		}
		for i := 0; i < nParts; i++ {
			for r := rng.Intn(3); r > 0 && i != skip; r-- {
				add(1 << i)
			}
		}
		for k := rng.Intn(6); k > 0; k-- {
			pm := uint(rng.Int63()) & target
			if skip >= 0 {
				pm &^= 1 << skip
			}
			if rng.Intn(6) == 0 {
				pm |= 1 << (nParts + rng.Intn(3)) // an irrelevant partition
			}
			add(pm)
		}
	}
	rng.Shuffle(len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })
	return group
}

func TestExactCoverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20240928))
	g := &planGen{bindings: []string{"r"}}
	solved := 0
	for trial := 0; trial < 1000; trial++ {
		nParts := 1 + rng.Intn(14)
		if trial%10 == 0 {
			nParts = 21 + rng.Intn(20)
		}
		target := uint(1)<<nParts - 1
		g.fullMask = []uint{target}
		group := randomCoverGroup(rng, nParts, target)
		want := exactCoverReference(g, 0, group) // sorts group by OfferID
		got := g.exactCover(0, group)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d partitions, %d offers):\n got %+v\nwant %+v", trial, nParts, len(group), got, want)
		}
		if want != nil {
			solved++
		}
	}
	if solved < 300 {
		t.Fatalf("only %d of 1000 groups had a union cover; the generator is too sparse", solved)
	}
}

// TestExactCoverAtomCap pins the one stated limit: a group that splits the
// binding into more than maxCoverAtoms atoms gets no union assembly and no
// table, while the same shape at the cap is solved.
func TestExactCoverAtomCap(t *testing.T) {
	singletons := func(n int) (*planGen, []*offerInfo) {
		g := &planGen{bindings: []string{"r"}, fullMask: []uint{uint(1)<<n - 1}}
		var group []*offerInfo
		for i := 0; i < n; i++ {
			group = append(group, &offerInfo{
				o:        trading.Offer{OfferID: fmt.Sprintf("o%03d", i), Props: cost.Valuation{TotalTime: 1, Rows: 1}},
				partMask: []uint{1 << i},
			})
		}
		return g, group
	}
	g, group := singletons(maxCoverAtoms + 1)
	if a := g.exactCover(0, group); a != nil {
		t.Fatalf("above the cap: got a union of %d offers, want none", len(a.offers))
	}
	if g.cover.table != nil {
		t.Fatalf("above the cap: allocated a table of %d states", len(g.cover.table))
	}
	// Coarse offers over the same partitions stay under the cap.
	group = append(group[:0],
		&offerInfo{o: trading.Offer{OfferID: "a"}, partMask: []uint{0x3ff}},
		&offerInfo{o: trading.Offer{OfferID: "b"}, partMask: []uint{g.fullMask[0] &^ 0x3ff}})
	if a := g.exactCover(0, group); a == nil || len(a.offers) != 2 {
		t.Fatalf("two coarse offers over %d partitions: got %+v, want a union of 2", maxCoverAtoms+1, a)
	}
	if len(g.cover.table) != 4 {
		t.Fatalf("two atoms: table of %d states, want 4", len(g.cover.table))
	}
	if testing.Short() {
		return
	}
	g, group = singletons(maxCoverAtoms)
	if a := g.exactCover(0, group); a == nil || len(a.offers) != maxCoverAtoms {
		t.Fatalf("at the cap: got %+v, want a union of %d offers", a, maxCoverAtoms)
	}
}

// poolPut is one entry put into a negotiation's pool, naming the OfferID it
// replaces ("" for a new entry).
type poolPut struct {
	prev string
	o    trading.Offer
}

// randomPoolScript draws a 3-relation chain pool over three iterations:
// per-partition and coarse offers for single relations, offers for 2-way
// subqueries (as the predicates analyser would request), overlapping
// replicas, and later entries that replace earlier ones at a lower price.
func randomPoolScript(rng *rand.Rand, parts int) [][]poolPut {
	cols := func(bs ...string) []trading.ColSpec {
		var out []trading.ColSpec
		for _, b := range bs {
			out = append(out, trading.ColSpec{Table: b, Name: "pk"}, trading.ColSpec{Table: b, Name: "fk"}, trading.ColSpec{Table: b, Name: "v"})
		}
		return out
	}
	seq := 0
	var live []trading.Offer
	newOffer := func(iter int, bs []string, along string, pids []string) trading.Offer {
		seq++
		partsOf := map[string][]string{}
		for _, b := range bs {
			if b == along {
				partsOf[b] = pids
				continue
			}
			for p := 0; p < parts; p++ {
				partsOf[b] = append(partsOf[b], fmt.Sprintf("p%d", p))
			}
		}
		return trading.Offer{
			// Ids are not monotone in arrival order, as with several sellers.
			OfferID:  fmt.Sprintf("n%d-rfb%d/o%d", rng.Intn(6), iter, seq),
			SellerID: fmt.Sprintf("n%d", rng.Intn(6)),
			SQL:      fmt.Sprintf("SELECT %d", seq),
			Bindings: bs, Parts: partsOf, Cols: cols(bs...),
			Price: float64(10 + rng.Intn(20)),
			Props: cost.Valuation{TotalTime: float64(2 + rng.Intn(5)), Rows: int64(5 + rng.Intn(40)), Bytes: float64(100 + rng.Intn(400))},
		}
	}
	script := make([][]poolPut, 3)
	for iter := range script {
		subsets := [][]string{{"r1"}, {"r2"}, {"r3"}}
		if iter > 0 {
			subsets = append(subsets, []string{"r1", "r2"}, []string{"r2", "r3"})
		}
		for _, bs := range subsets {
			along := bs[rng.Intn(len(bs))]
			for p := 0; p < parts; {
				width := 1
				if rng.Intn(3) == 0 {
					width = 1 + rng.Intn(parts-p)
				}
				var pids []string
				for q := p; q < p+width; q++ {
					pids = append(pids, fmt.Sprintf("p%d", q))
				}
				for r := 1 + rng.Intn(2); r > 0; r-- {
					o := newOffer(iter+1, bs, along, pids)
					script[iter] = append(script[iter], poolPut{o: o})
					live = append(live, o)
				}
				p += width
			}
		}
		if iter == 0 {
			continue
		}
		// Re-priced entries: a cheaper (and differently timed) offer replaces
		// a standing one under the same pool key.
		for k := 1 + rng.Intn(3); k > 0; k-- {
			i := rng.Intn(len(live))
			old := live[i]
			seq++
			repl := old
			repl.OfferID = fmt.Sprintf("n%d-rfb%d/o%d", rng.Intn(6), iter+1, seq)
			repl.Price = old.Price - 1
			repl.Props.TotalTime = float64(1 + rng.Intn(6))
			script[iter] = append(script[iter], poolPut{prev: old.OfferID, o: repl})
			live[i] = repl
		}
	}
	return script
}

// chainGen analyses the 3-relation chain query over relations r1..r3
// (pk, fk, v), each range-partitioned on pk into parts partitions p0, p1, ….
func chainGen(t *testing.T, parts int, mode PlanGenMode) *planGen {
	t.Helper()
	sch := catalog.NewSchema()
	for _, name := range []string{"r1", "r2", "r3"} {
		sch.MustAddTable(&catalog.TableDef{Name: name, Columns: []catalog.ColumnDef{
			{Name: "pk", Kind: value.Int}, {Name: "fk", Kind: value.Int}, {Name: "v", Kind: value.Float}}})
		var ps []*catalog.Partition
		for p := 0; p < parts; p++ {
			ps = append(ps, &catalog.Partition{Table: name, ID: fmt.Sprintf("p%d", p),
				Predicate: sqlparse.MustParseExpr(fmt.Sprintf("pk >= %d AND pk < %d", 10*p, 10*p+10))})
		}
		if err := sch.SetPartitions(name, ps); err != nil {
			t.Fatal(err)
		}
	}
	sel, err := sqlparse.ParseSelect("SELECT r1.pk, r3.v FROM r1, r2, r3 WHERE r1.fk = r2.pk AND r2.fk = r3.pk")
	if err != nil {
		t.Fatal(err)
	}
	plan.Qualify(sel, sch)
	g, err := newPlanGen(sel, sch, cost.Default(), mode, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGenerateIncrementalMatchesFresh feeds a generator pool entries
// iteration by iteration, generating after each, and checks that every
// generation equals a fresh Generate over that iteration's pool.
func TestGenerateIncrementalMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pools := 1000
	if testing.Short() {
		pools = 100
	}
	modes := []PlanGenMode{GenDP, GenIDP, GenGreedy}
	for trial := 0; trial < pools; trial++ {
		parts := 2 + rng.Intn(5)
		mode := modes[trial%len(modes)]
		inc := chainGen(t, parts, mode)
		pool := map[string]trading.Offer{} // by OfferID
		for iter, puts := range randomPoolScript(rng, parts) {
			for _, p := range puts {
				delete(pool, p.prev)
				pool[p.o.OfferID] = p.o
				inc.take(p.o) // a re-priced entry shares its predecessor's pool key
			}
			list := make([]trading.Offer, 0, len(pool))
			for _, o := range pool {
				list = append(list, o)
			}
			sort.Slice(list, func(i, j int) bool { return list[i].OfferID < list[j].OfferID })
			want, wantErr := Generate(inc.sel, inc.sch, inc.model, mode, 0, list)
			got, gotErr := inc.run()
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("trial %d iter %d (%s): incremental err %v, fresh err %v", trial, iter, mode, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d iter %d (%s, %d parts, %d offers): incremental candidates differ from fresh:\n got %s\nwant %s",
					trial, iter, mode, parts, len(list), describe(got), describe(want))
			}
		}
	}
}

func describe(cands []Candidate) string {
	s := ""
	for _, c := range cands {
		s += fmt.Sprintf("\n  rt=%.2f work=%.2f rows=%d offers=", c.ResponseTime, c.TotalWork, c.Rows)
		for _, o := range c.Offers {
			s += o.OfferID + " "
		}
	}
	return s
}

// TestGenerateEmptyAnswer: the generator knows a query has no rows without an
// offer — a constant-false conjunct, selections that prune every partition,
// selections that contradict on an unpartitioned relation — and answers with
// the query's own tail over an Empty leaf; otherwise an empty pool is an error.
func TestGenerateEmptyAnswer(t *testing.T) {
	g := chainGen(t, 3, GenDP)
	sch := g.sch.Clone()
	sch.MustAddTable(&catalog.TableDef{Name: "whole", Columns: []catalog.ColumnDef{{Name: "pk", Kind: value.Int}}})
	cases := []struct {
		sql   string
		empty bool
	}{
		{"SELECT r1.pk FROM r1, r2 WHERE r1.fk = r2.pk AND 1 = 0", true},
		{"SELECT r1.pk FROM r1, r2 WHERE r1.fk = r2.pk AND r2.pk < 5 AND r2.pk > 25", true},
		{"SELECT r1.pk FROM r1 WHERE r1.pk >= 30", true}, // beyond the last partition
		{"SELECT COUNT(*) FROM r1, whole WHERE r1.fk = whole.pk AND whole.pk < 5 AND whole.pk > 25", true},
		{"SELECT r1.pk FROM r1, whole WHERE r1.fk = whole.pk AND whole.pk < 5 AND 1 = 1", false},
		{"SELECT r1.pk FROM r1, r2 WHERE r1.fk = r2.pk AND r1.pk < r2.pk", false},
	}
	for _, tc := range cases {
		sel := sqlparse.MustParseSelect(tc.sql)
		plan.Qualify(sel, sch)
		cands, err := Generate(sel, sch, cost.Default(), GenDP, 0, nil)
		if !tc.empty {
			if err == nil {
				t.Errorf("%s: a plan from no offers: %s", tc.sql, describe(cands))
			}
			continue
		}
		if err != nil || len(cands) != 1 || len(cands[0].Offers) != 0 {
			t.Fatalf("%s: %v, %d candidates", tc.sql, err, len(cands))
		}
		leaf := cands[0].Root
		for len(leaf.Children()) == 1 {
			leaf = leaf.Children()[0]
		}
		if _, ok := leaf.(*plan.Empty); !ok {
			t.Errorf("%s: leaf %T, want *plan.Empty:\n%s", tc.sql, leaf, plan.Explain(cands[0].Root))
		}
	}
}
