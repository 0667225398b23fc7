package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
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
	var offers []*offerInfo
	for i, info := range win.used {
		inputs[i] = info.remote()
		offers = append(offers, info)
	}
	return &assembly{
		node:      &plan.Union{Card: plan.Card{Est: win.rows}, Inputs: inputs},
		schema:    win.used[0].schema,
		remoteMax: win.max,
		remoteSum: win.sum,
		rows:      win.rows,
		bytes:     win.bytes,
		offers:    offers,
		unions:    1 << b,
	}
}

// randomCoverGroup draws one exact-cover problem over nParts partitions:
// singleton and coarse offers in shuffled OfferID order, overlapping at will,
// with times from a small set so equal-cost ties are common. Some offers
// carry partitions outside the target, and some targets have a partition no
// offer holds. Up to 16 partitions, a third of the groups are shaped like
// chain_parts' instead.
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
	if nParts <= 16 && rng.Intn(3) == 0 {
		// chain_parts: partitions placed round-robin on 8 sellers with 1 or
		// 2 replicas, each seller offering all it holds, and per-partition
		// restrictions (the analyser's) from some of each partition's holders.
		replicas, first := 1+rng.Intn(2), rng.Intn(8)
		held := make([]uint, 8)
		for p := 0; p < nParts; p++ {
			for r := 0; r < replicas; r++ {
				held[(first+p+r)%8] |= 1 << p
			}
		}
		for _, pm := range held {
			if pm != 0 {
				add(pm)
			}
		}
		for p := 0; p < nParts; p++ {
			for r := rng.Intn(replicas + 1); r > 0; r-- {
				add(1 << p)
			}
		}
	} else if nParts > 20 {
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
// binding into more than maxCoverAtoms atoms gets no union assembly and,
// once a pooled scratch is warm, allocates nothing, while the same shape at
// the cap is solved.
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
	if !raceEnabled { // the race detector drops pooled scratches at random
		if n := testing.AllocsPerRun(100, func() { g.exactCover(0, group) }); n != 0 {
			t.Fatalf("above the cap: %v allocations per call, want 0", n)
		}
	}
	// Coarse offers over the same partitions stay under the cap.
	group = append(group[:0],
		&offerInfo{o: trading.Offer{OfferID: "a"}, partMask: []uint{0x3ff}},
		&offerInfo{o: trading.Offer{OfferID: "b"}, partMask: []uint{g.fullMask[0] &^ 0x3ff}})
	if a := g.exactCover(0, group); a == nil || len(a.offers) != 2 {
		t.Fatalf("two coarse offers over %d partitions: got %+v, want a union of 2", maxCoverAtoms+1, a)
	}
	if testing.Short() {
		return
	}
	g, group = singletons(maxCoverAtoms)
	if a := g.exactCover(0, group); a == nil || len(a.offers) != maxCoverAtoms {
		t.Fatalf("at the cap: got %+v, want a union of %d offers", a, maxCoverAtoms)
	}
}

// FuzzExactCover decodes bytes into a cover problem and holds exactCover to
// the reference. The first byte picks 1 to 16 partitions; every 4 bytes after
// it are one offer: a 16-bit partition mask (bits past the target are
// partitions the query does not need), a time from {1..4} sharing its byte
// with a fractional byte count, so the sums of a chain differ by order, and
// a row count.
func FuzzExactCover(f *testing.F) {
	f.Add([]byte{3, 0x03, 0, 0, 1, 0x0c, 0, 1, 2, 0x0f, 0, 2, 3})
	f.Add([]byte{13, 0x03, 0x01, 0x05, 7, 0x0c, 0x02, 0x12, 9, 0xf0, 0x00, 0x23, 1,
		0x00, 0x3c, 0x31, 4, 0x01, 0x00, 0x40, 2, 0x02, 0x00, 0x51, 3, 0xff, 0x3f, 0x62, 5})
	f.Add([]byte{15, 0xff, 0x00, 0x11, 1, 0x00, 0xff, 0x22, 2, 0x0f, 0x0f, 0x33, 3, 0xf0, 0xf0, 0x44, 4,
		0x01, 0x01, 0x55, 5, 0xfe, 0xfe, 0x66, 6})
	// chain_parts' predicted cover (see chainPartsPredicted): 8 sellers'
	// offers over 14 partitions, then a one-partition prediction of each of
	// the 12 partitions a seller holds among others.
	predicted := []byte{13}
	for s := 0; s < 8; s++ {
		pm := uint16(1)<<s | uint16(1)<<(s+8)&0x3fff
		predicted = append(predicted, byte(pm), byte(pm>>8), byte(s*7%4+4*s), byte(80+s))
	}
	for p := 0; p < 14; p++ {
		if p%8 < 6 {
			pm := uint16(1) << p
			predicted = append(predicted, byte(pm), byte(pm>>8), byte(p%3+4*p), byte(40+p))
		}
	}
	f.Add(predicted)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		nParts := 1 + int(data[0]%16)
		target := uint(1)<<nParts - 1
		g := &planGen{bindings: []string{"r"}, fullMask: []uint{target}}
		var group []*offerInfo
		for rest := data[1:]; len(rest) >= 4 && len(group) < 24; rest = rest[4:] {
			group = append(group, &offerInfo{
				o: trading.Offer{OfferID: fmt.Sprintf("o%03d", len(group)), Props: cost.Valuation{
					TotalTime: float64(1 + rest[2]%4), Bytes: float64(rest[2]>>2) * 0.1, Rows: int64(rest[3])}},
				partMask: []uint{uint(rest[0]) | uint(rest[1])<<8},
				schema:   []expr.ColumnID{{Table: "r", Name: "pk"}},
			})
		}
		want := exactCoverReference(g, 0, group)
		if got := g.exactCover(0, group); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d partitions, %d offers:\n got %+v\nwant %+v", nParts, len(group), got, want)
		}
	})
}

// TestExactCoverConcurrent: calls running at once each take their own
// pooled scratch, so every one of them still matches the reference.
func TestExactCoverConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			g := &planGen{bindings: []string{"r"}}
			for trial := 0; trial < 200; trial++ {
				nParts := 1 + rng.Intn(16)
				target := uint(1)<<nParts - 1
				g.fullMask = []uint{target}
				group := randomCoverGroup(rng, nParts, target)
				want := exactCoverReference(g, 0, group) // sorts group by OfferID
				if got := g.exactCover(0, group); !reflect.DeepEqual(got, want) {
					t.Errorf("worker %d trial %d (%d partitions, %d offers):\n got %+v\nwant %+v",
						seed, trial, nParts, len(group), got, want)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// chainPartsGroup is the cover problem chain_parts poses along one relation:
// 14 partitions placed round-robin on 8 sellers, each seller offering all it
// holds, and a single-partition offer from each of the first atoms-8
// sellers, which splits its {p, p+8} in two: 8 to 14 atoms.
func chainPartsGroup(atoms int) (*planGen, []*offerInfo) {
	const parts, sellers = 14, 8
	g := &planGen{bindings: []string{"r"}, fullMask: []uint{uint(1)<<parts - 1}}
	var group []*offerInfo
	add := func(seller int, pm uint) {
		id := len(group)
		group = append(group, &offerInfo{
			o: trading.Offer{OfferID: fmt.Sprintf("o%03d", id), SellerID: fmt.Sprintf("n%d", seller),
				Props: cost.Valuation{TotalTime: float64(1 + id*7%4), Rows: int64(80 + id), Bytes: float64(2400+37*id) / 3}},
			partMask: []uint{pm},
			schema:   []expr.ColumnID{{Table: "r", Name: "pk"}},
		})
	}
	for s := 0; s < sellers; s++ {
		var pm uint
		for p := s; p < parts; p += sellers {
			pm |= 1 << p
		}
		add(s, pm)
	}
	for p := 0; p < atoms-sellers; p++ {
		add(p, 1<<p) // splits seller p's {p, p+8}
	}
	return g, group
}

// predictedLayout draws a group laid out as planGen.try lays out the covers
// the analyser prices: nParts partitions placed round-robin on 3 to 8
// sellers with the given replicas, each seller offering all it holds, then a
// one-partition prediction of a partition from each holder that holds it
// among others, with ids that sort after every seller's. Times come from a
// small set, so equal-cost ties are common. The group is in OfferID order.
func predictedLayout(rng *rand.Rand, nParts, replicas int) []*offerInfo {
	sellers := max(3+rng.Intn(6), replicas)
	var group []*offerInfo
	add := func(id, seller string, pm uint, t float64) {
		group = append(group, &offerInfo{
			o: trading.Offer{OfferID: id, SellerID: seller, Props: cost.Valuation{TotalTime: t,
				Rows: int64(rng.Intn(50)), Bytes: float64(rng.Intn(900))}},
			partMask: []uint{pm},
			schema:   []expr.ColumnID{{Table: "r", Name: "pk"}},
		})
	}
	held, first := make([]uint, sellers), rng.Intn(sellers)
	for p := 0; p < nParts; p++ {
		for r := 0; r < replicas; r++ {
			held[(first+p+r)%sellers] |= 1 << p
		}
	}
	for s, pm := range held {
		if pm != 0 {
			add(fmt.Sprintf("r%d-o%d", rng.Intn(3), s), fmt.Sprintf("n%d", s), pm, float64(2+rng.Intn(4)))
		}
	}
	sellerOffers := len(group)
	for p := 0; p < nParts; p++ {
		for _, info := range group[:sellerOffers] {
			if pm := info.partMask[0]; pm&(1<<p) != 0 && pm != 1<<p {
				add(predictedID+strconv.Itoa(len(group)-sellerOffers), info.o.SellerID, 1<<p, float64(1+rng.Intn(3)))
			}
		}
	}
	slices.SortStableFunc(group, func(a, b *offerInfo) int { return strings.Compare(a.o.OfferID, b.o.OfferID) })
	return group
}

// TestExactCoverPredictedLayoutMatchesReference: the analyser's covers put
// the sellers' offers first and the predictions last, where the walk drops
// the most states; every such cover still matches the reference.
func TestExactCoverPredictedLayoutMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	g := &planGen{bindings: []string{"r"}}
	solved := 0
	for trial := 0; trial < 40; trial++ {
		nParts, replicas := 4+rng.Intn(13), 1+rng.Intn(3)
		g.fullMask = []uint{uint(1)<<nParts - 1}
		group := predictedLayout(rng, nParts, replicas)
		want := exactCoverReference(g, 0, group)
		if got := g.exactCover(0, group); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d partitions, %d replicas, %d offers):\n got %+v\nwant %+v",
				trial, nParts, replicas, len(group), got, want)
		}
		if want != nil && slices.ContainsFunc(want.offers, func(info *offerInfo) bool {
			return strings.HasPrefix(info.o.OfferID, predictedID)
		}) {
			solved++
		}
	}
	if solved < 20 {
		t.Fatalf("only %d of 40 covers bought a prediction; the layout is too sparse", solved)
	}
}

// chainPartsPredicted is the cover the analyser prices on chain_parts along
// one relation: chainPartsGroup(8)'s sellers' offers, then a one-partition
// prediction of each partition a seller holds among others (12), sorting
// after them: 20 offers over 14 atoms.
func chainPartsPredicted() (*planGen, []*offerInfo) {
	g, group := chainPartsGroup(8)
	for p := 0; p < 14; p++ {
		if p%8 >= 6 {
			continue // sellers 6 and 7 hold one partition each
		}
		seller := group[p%8]
		group = append(group, &offerInfo{
			o: trading.Offer{OfferID: predictedID + strconv.Itoa(len(group)-8), SellerID: seller.o.SellerID,
				Props: cost.Valuation{TotalTime: seller.o.Props.TotalTime / 2, Rows: seller.o.Props.Rows / 2,
					Bytes: seller.o.Props.Bytes / 2}},
			partMask: []uint{1 << p},
			schema:   seller.schema,
		})
	}
	slices.SortStableFunc(group, func(a, b *offerInfo) int { return strings.Compare(a.o.OfferID, b.o.OfferID) })
	return g, group
}

// TestExactCoverAllocatesOnlyItsResult: once its scratch is pooled, a call
// allocates the assembly it returns and nothing else: the assembly, its
// Union, the Union's inputs and their Remote nodes, and its offers.
func TestExactCoverAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratches at random")
	}
	g, group := chainPartsGroup(14)
	a := g.exactCover(0, group)
	if a == nil {
		t.Fatal("no cover")
	}
	want := float64(4 + len(a.offers))
	if n := testing.AllocsPerRun(100, func() { g.exactCover(0, group) }); n != want {
		t.Fatalf("%v allocations per call, want %v for a union of %d offers", n, want, len(a.offers))
	}
}

var benchAssembly *assembly

// BenchmarkExactCover times one warm exact cover of chain_parts' shape (12
// to 14 atoms over 12 to 14 offers), and the one the analyser prices there
// (predicted: 14 atoms over 20 offers, the last 12 predictions).
func BenchmarkExactCover(b *testing.B) {
	run := func(name string, g *planGen, group []*offerInfo) {
		b.Run(name, func(b *testing.B) {
			benchAssembly = g.exactCover(0, group)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchAssembly = g.exactCover(0, group)
			}
		})
	}
	for _, atoms := range []int{12, 13, 14} {
		g, group := chainPartsGroup(atoms)
		run(fmt.Sprintf("atoms=%d", atoms), g, group)
	}
	g, group := chainPartsPredicted()
	run("predicted", g, group)
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
			want, wantErr := GenerateWithLatency(inc.sel, inc.sch, inc.model, mode, 0, list, nil)
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

// TestTryLeavesThePoolAsItWas: predictions that join standing groups or found
// new ones are planned with and taken out again. The pool, its groups and each
// group's offers are then the same entries in the same order — a received id
// that sorts after the predicted ones included — and the next run plans as
// the run before them did.
func TestTryLeavesThePoolAsItWas(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		parts := 2 + rng.Intn(4)
		g := chainGen(t, parts, GenDP)
		script := randomPoolScript(rng, parts)
		for _, p := range script[0] {
			g.take(p.o)
		}
		late := script[0][rng.Intn(len(script[0]))].o
		late.OfferID, late.SQL = "~zz", "SELECT late"
		g.take(late)
		want, wantErr := g.run()
		offers, groups := slices.Clone(g.offers), slices.Clone(g.groups)
		members := map[*offerGroup][]*offerInfo{}
		for _, grp := range g.groups {
			members[grp] = slices.Clone(grp.offers)
		}
		var preds []*offerInfo
		for _, p := range script[1] { // r1, r2, r3 and the pairs no group holds yet
			if rng.Intn(2) == 0 {
				o := p.o
				o.OfferID = predictedID + strconv.Itoa(len(preds))
				preds = append(preds, g.decode(&o))
			}
		}
		g.try(preds)
		if !slices.Equal(g.offers, offers) || !slices.Equal(g.groups, groups) {
			t.Fatalf("trial %d: try left %d offers in %d groups, want %d in %d", trial, len(g.offers), len(g.groups), len(offers), len(groups))
		}
		for _, grp := range g.groups {
			if !slices.Equal(grp.offers, members[grp]) {
				t.Fatalf("trial %d: try left a group of %d offers, want %d", trial, len(grp.offers), len(members[grp]))
			}
		}
		got, gotErr := g.run()
		if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: after try run gives %s (%v), want %s (%v)", trial, describe(got), gotErr, describe(want), wantErr)
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
		cands, err := GenerateWithLatency(sel, sch, cost.Default(), GenDP, 0, nil, nil)
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

// An unknown plan generator is an error naming it, from Optimize and from
// GenerateWithLatency alike, never a run of full DP; an empty mode is GenDP.
func TestUnknownPlanGenerator(t *testing.T) {
	f := buildFederation(t, nil)
	comm := &NetComm{Net: f.net, SelfID: "athens"}
	cfg := athensCfg(f)
	cfg.Mode = "gredy"
	if _, err := Optimize(cfg, comm, paperQuery); err == nil || !strings.Contains(err.Error(), `"gredy"`) {
		t.Errorf("Optimize: %v, want an error naming the mode", err)
	}
	sel := sqlparse.MustParseSelect(paperQuery)
	plan.Qualify(sel, f.sch)
	if _, err := GenerateWithLatency(sel, f.sch, cost.Default(), "gredy", 0, nil, nil); err == nil || !strings.Contains(err.Error(), `"gredy"`) {
		t.Errorf("GenerateWithLatency: %v, want an error naming the mode", err)
	}
	cfg.Mode = ""
	if _, err := Optimize(cfg, comm, paperQuery); err != nil {
		t.Errorf("empty mode: %v", err)
	}
}
