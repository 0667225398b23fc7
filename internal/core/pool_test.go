package core

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"qtrade/internal/cost"
	"qtrade/internal/trading"
)

// TestOptimizeKeepsNoPool holds the buyer's pool seam by construction: the
// plan generator owns the offer pool, so Optimize declares no offer map of
// its own and hands the generator every received offer at one call site, and
// no file prints an offer's coverage as a key (partsKey is the tests'
// reference): the pool and recovery compare coverage as sets.
func TestOptimizeKeepsNoPool(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	intake := map[string]int{} // planGen.take call sites, by file
	keyed := map[string]int{}  // partsKey call sites outside the tests, by file
	for path, file := range pkgs["core"].Files {
		ast.Inspect(file, func(x ast.Node) bool {
			switch v := x.(type) {
			case *ast.FuncDecl:
				if v.Recv == nil && v.Name.Name == "Optimize" {
					ast.Inspect(v.Body, func(y ast.Node) bool {
						if m, ok := y.(*ast.MapType); ok {
							if val, ok := m.Value.(*ast.SelectorExpr); ok && val.Sel.Name == "Offer" {
								t.Errorf("%s: Optimize declares an offer map; the pool is the generator's", fset.Position(m.Pos()))
							}
						}
						return true
					})
				}
			case *ast.CallExpr:
				switch fn := v.Fun.(type) {
				case *ast.SelectorExpr:
					if fn.Sel.Name == "take" {
						intake[path]++
					}
				case *ast.Ident:
					if fn.Name == "partsKey" {
						keyed[path]++
					}
				}
			}
			return true
		})
	}
	if len(intake) != 1 || intake["buyer.go"] != 1 {
		t.Errorf("the generator takes offers at %v, want one call site, in buyer.go", intake)
	}
	for path := range keyed {
		t.Errorf("%s computes a pool key; the pool and recovery compare coverage as sets", path)
	}
}

// TestSubsetsAreMasks holds the buyer's relation sets to one form: once an
// offer is decoded, relation subsets and partition coverage are bitmasks by
// FROM position. It fails on a []string or [][]string field of Candidate or
// assembly, on a call of a Mask method (turning binding names back into a
// relation set), and on a function that reads an offer's Parts and sorts or
// joins strings (printing coverage as a key).
func TestSubsetsAreMasks(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	isStrings := func(e ast.Expr) bool {
		for {
			arr, ok := e.(*ast.ArrayType)
			if !ok {
				id, ok := e.(*ast.Ident)
				return ok && id.Name == "string"
			}
			e = arr.Elt
		}
	}
	isCall := func(fun ast.Expr, pkg, name string) bool {
		sel, ok := fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != name {
			return false
		}
		id, ok := sel.X.(*ast.Ident)
		return ok && id.Name == pkg
	}
	for _, file := range pkgs["core"].Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || ts.Name.Name != "Candidate" && ts.Name.Name != "assembly" {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, f := range st.Fields.List {
						if _, isArr := f.Type.(*ast.ArrayType); isArr && isStrings(f.Type) {
							t.Errorf("%s: %s keeps a relation set as strings", fset.Position(f.Pos()), ts.Name.Name)
						}
					}
				}
			case *ast.FuncDecl:
				if d.Body == nil {
					continue
				}
				readsParts, printed := false, token.NoPos
				ast.Inspect(d.Body, func(x ast.Node) bool {
					switch v := x.(type) {
					case *ast.SelectorExpr:
						readsParts = readsParts || v.Sel.Name == "Parts"
					case *ast.CallExpr:
						if sel, ok := v.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Mask" {
							t.Errorf("%s: %s maps binding names to a relation set", fset.Position(v.Pos()), d.Name.Name)
						}
						if isCall(v.Fun, "sort", "Strings") || isCall(v.Fun, "strings", "Join") {
							printed = v.Pos()
						}
					}
					return true
				})
				if readsParts && printed.IsValid() {
					t.Errorf("%s: %s prints an offer's coverage", fset.Position(printed), d.Name.Name)
				}
			}
		}
	}
}

// partsKey canonicalizes an offer's coverage as the pool once keyed it: two
// offers of one seller and one SQL text stand for one another exactly when
// their keys are equal. The tests replay the pool rule with it.
func partsKey(o trading.Offer) string {
	keys := make([]string, 0, len(o.Parts))
	for b, ps := range o.Parts {
		sorted := append([]string(nil), ps...)
		sort.Strings(sorted)
		keys = append(keys, b+"="+strings.Join(sorted, ","))
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// scriptedSeller is a LocalSeller answering the i-th RFB with the i-th batch
// of a script, whatever was asked.
type scriptedSeller struct {
	script [][]trading.Offer
	calls  int
}

func (s *scriptedSeller) RequestBids(trading.RFB) (trading.BidReply, error) {
	s.calls++
	if s.calls > len(s.script) {
		return trading.BidReply{}, nil
	}
	return trading.BidReply{Offers: s.script[s.calls-1]}, nil
}

// poolTrialScript is randomPoolScript's pool with everything the pool rule
// must tell apart mixed in: for some standing entries a second offer under
// the same key at the same price and at a higher one (both ignored), offers
// about a relation the query does not have (kept, never planned from), and
// one of those re-priced down (it displaces the dearer one) — in any arrival
// order, which is the sellers' business.
func poolTrialScript(rng *rand.Rand, parts int) [][]trading.Offer {
	seq := 0
	id := func(iter int) string {
		seq++
		return fmt.Sprintf("n%d-rfb%d/x%d", rng.Intn(6), iter, seq)
	}
	var script [][]trading.Offer
	var foreign []trading.Offer
	for iter, puts := range randomPoolScript(rng, parts) {
		var batch []trading.Offer
		for _, p := range puts {
			batch = append(batch, p.o)
			switch rng.Intn(5) {
			case 0:
				same := p.o
				same.OfferID = id(iter + 1)
				batch = append(batch, same)
			case 1:
				dearer := p.o
				dearer.OfferID, dearer.Price = id(iter+1), p.o.Price+1
				batch = append(batch, dearer)
			case 2:
				f := p.o
				f.OfferID, f.SQL = id(iter+1), "SELECT zz.v FROM zz"
				f.Bindings, f.Parts = []string{"zz"}, map[string][]string{"zz": {fmt.Sprintf("p%d", len(foreign))}}
				batch = append(batch, f)
				foreign = append(foreign, f)
			}
		}
		if iter > 0 && len(foreign) > 0 {
			cheaper := foreign[rng.Intn(len(foreign))]
			cheaper.OfferID, cheaper.Price = id(iter+1), cheaper.Price-2
			batch = append(batch, cheaper)
		}
		rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		script = append(script, batch)
	}
	return script
}

// TestPoolIsTheGenerators drives Optimize over scripted offers and checks the
// pool the generator keeps against the rule as Optimize used to apply it
// itself — a map from seller, SQL and coverage to the cheapest offer, the
// generator told which entry each newcomer displaced, the final pool sorted
// by OfferID — replayed here over a fresh generation per iteration: same pool
// size, same Result.Pool in the same order, same winning candidate.
func TestPoolIsTheGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	trials := 300
	if testing.Short() {
		trials = 60
	}
	modes := []PlanGenMode{GenDP, GenIDP, GenGreedy}
	planned, iterated, displaced, ignored, aside := 0, 0, 0, 0, 0
	for trial := 0; trial < trials; trial++ {
		parts := 2 + rng.Intn(4)
		mode := modes[trial%len(modes)]
		g := chainGen(t, parts, mode)
		script := poolTrialScript(rng, parts)
		var latency func(string) float64
		if trial%4 == 3 {
			latency = func(seller string) float64 { return float64(seller[len(seller)-1]-'0') / 4 }
		}
		cfg := Config{ID: "hq", Schema: g.sch, Mode: mode, MaxIterations: len(script),
			Self: &scriptedSeller{script: script}, PeerLatency: latency}
		sizes := []int{}
		cfg.OnIteration = func(_ int, _ float64, pool int) { sizes = append(sizes, pool) }
		res, err := Optimize(cfg, &PeerComm{}, g.sel.SQL())

		// The old rule, replayed.
		pool := map[string]trading.Offer{}
		var want *Candidate
		var wantSizes []int
		var wantPool []trading.Offer
		iters := len(script)
		if err == nil {
			iters = res.Stats.Iterations
		}
		for _, batch := range script[:iters] {
			for _, o := range batch {
				key := o.SellerID + "\x00" + o.SQL + "\x00" + partsKey(o)
				prev, ok := pool[key]
				switch {
				case !ok:
					if o.Bindings[0] == "zz" {
						aside++
					}
				case o.Price < prev.Price:
					displaced++
				default:
					ignored++
					continue
				}
				pool[key] = o
			}
			wantPool = wantPool[:0]
			for _, o := range pool {
				wantPool = append(wantPool, o)
			}
			sort.Slice(wantPool, func(i, j int) bool { return wantPool[i].OfferID < wantPool[j].OfferID })
			cands, genErr := GenerateWithLatency(g.sel, g.sch, cost.Default(), mode, idpKeep, wantPool, latency)
			if genErr != nil {
				break
			}
			wantSizes = append(wantSizes, len(wantPool))
			w := cost.DefaultWeights()
			if want == nil || ValueOf(w, &cands[0]) < ValueOf(w, want)*(1-1e-9) {
				want = &cands[0]
			}
		}
		if (err == nil) != (want != nil) {
			t.Fatalf("trial %d (%s): Optimize err %v, the reference plans %v", trial, mode, err, want != nil)
		}
		if err != nil {
			continue
		}
		planned++
		if iters > 1 {
			iterated++
		}
		if res.Stats.PoolSize != len(wantPool) || !reflect.DeepEqual(sizes, wantSizes) {
			t.Fatalf("trial %d (%s): pool sizes %v (final %d), want %v", trial, mode, sizes, res.Stats.PoolSize, wantSizes)
		}
		if !reflect.DeepEqual(res.Pool, wantPool) {
			t.Fatalf("trial %d (%s): Result.Pool differs:\n got %v\nwant %v", trial, mode, offerIDs(res.Pool), offerIDs(wantPool))
		}
		if !reflect.DeepEqual(res.Candidate, *want) {
			t.Fatalf("trial %d (%s): winning candidate differs:\n got %s\nwant %s", trial, mode,
				describe([]Candidate{res.Candidate}), describe([]Candidate{*want}))
		}
	}
	if planned < trials/2 || iterated == 0 || displaced == 0 || ignored == 0 || aside == 0 {
		t.Fatalf("the trials exercised too little: %d planned, %d iterated, %d displacements, %d ignored, %d undecodable",
			planned, iterated, displaced, ignored, aside)
	}
}

func offerIDs(offers []trading.Offer) []string {
	ids := make([]string, len(offers))
	for i, o := range offers {
		ids[i] = o.OfferID
	}
	return ids
}
