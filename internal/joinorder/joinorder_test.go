package joinorder

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math/bits"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// toy is a join graph with an additive integer cost: a subset's cardinality
// depends on the subset alone (the product of its relations' sizes, halved
// per edge inside it), and a join costs its inputs plus its output.
type toy struct {
	n     int
	size  []int64
	edges []uint // two-relation masks
	joins [][2]uint
}

type entry struct{ cost, rows int64 }

func entryCost(e entry) float64 { return float64(e.cost) }

func (g *toy) rows(mask uint) int64 {
	r := int64(1)
	for i := 0; i < g.n; i++ {
		if mask&(1<<i) != 0 {
			r *= g.size[i]
		}
	}
	for _, e := range g.edges {
		if e&^mask == 0 {
			r = (r + 1) / 2
		}
	}
	return r
}

func (g *toy) connected(a, b uint) bool {
	for _, e := range g.edges {
		if e&a != 0 && e&b != 0 {
			return true
		}
	}
	return false
}

// plan is the toy's dynamic program; every Join call is logged in g.joins.
func (g *toy) plan() *Plan[entry] {
	g.joins = nil
	return &Plan[entry]{
		N: g.n,
		Seeds: func(mask uint, out []entry) []entry {
			if bits.OnesCount(mask) == 1 {
				out = append(out, entry{cost: g.rows(mask), rows: g.rows(mask)})
			}
			return out
		},
		Connected: g.connected,
		Join: func(a, b uint, l, r entry) entry {
			g.joins = append(g.joins, [2]uint{a, b})
			rows := g.rows(a | b)
			return entry{cost: l.cost + r.cost + rows, rows: rows}
		},
		Keep: func(_ uint, cands []entry) []entry { return Cheapest(cands, entryCost) },
	}
}

func chain(n int) []uint {
	var e []uint
	for i := 0; i+1 < n; i++ {
		e = append(e, 1<<i|1<<(i+1))
	}
	return e
}

func clique(n int) []uint { return Subsets(n, 2, 2) }

func ones(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

func TestSubsetOrder(t *testing.T) {
	want := []uint{1, 2, 4, 8, 3, 5, 6, 9, 10, 12, 7, 11, 13, 14, 15}
	if got := Subsets(4, 1, 4); !reflect.DeepEqual(got, want) {
		t.Fatalf("Subsets(4, 1, 4) = %v, want %v", got, want)
	}
	if got := Subsets(4, 2, 3); !reflect.DeepEqual(got, want[4:14]) {
		t.Fatalf("Subsets(4, 2, 3) = %v, want %v", got, want[4:14])
	}
	if got := Subsets(2, 3, 5); got != nil {
		t.Fatalf("Subsets(2, 3, 5) = %v, want none", got)
	}
}

func TestSplitOrder(t *testing.T) {
	g := &toy{n: 4, size: ones(4), edges: clique(4)}
	p := g.plan()
	p.Solve(1, 3)
	g.joins = nil
	p.Solve(4, 4)
	want := [][2]uint{{7, 8}, {6, 9}, {5, 10}, {4, 11}, {3, 12}, {2, 13}, {1, 14}}
	if !reflect.DeepEqual(g.joins, want) {
		t.Fatalf("splits of 1111 = %v, want %v", g.joins, want)
	}
}

func TestLeftDeep(t *testing.T) {
	g := &toy{n: 4, size: ones(4), edges: clique(4)}
	p := g.plan()
	p.LeftDeep = true
	p.Solve(1, 3)
	g.joins = nil
	p.Solve(4, 4)
	want := [][2]uint{{7, 8}, {4, 11}, {2, 13}, {1, 14}}
	if !reflect.DeepEqual(g.joins, want) {
		t.Fatalf("left-deep splits of 1111 = %v, want %v", g.joins, want)
	}
}

// Relations 0 and 1 are joined by a predicate, relation 2 by none: a split is
// taken when a predicate connects it, and the cross product {0}×{2} is made
// only because {0,2} has no other way.
func TestConnectedFirstThenCrossProduct(t *testing.T) {
	g := &toy{n: 3, size: ones(3), edges: []uint{0b011}}
	p := g.plan()
	p.Solve(1, 3)
	want := [][2]uint{
		{0b001, 0b010},                 // 011: connected
		{0b001, 0b100},                 // 101: forced
		{0b010, 0b100},                 // 110: forced
		{0b010, 0b101}, {0b001, 0b110}, // 111: the two connected splits, not 011 × 100
	}
	if !reflect.DeepEqual(g.joins, want) {
		t.Fatalf("joins = %v, want %v", g.joins, want)
	}
	for _, m := range Subsets(3, 1, 3) {
		if len(p.At(m)) != 1 {
			t.Fatalf("subset %03b has %d entries, want 1", m, len(p.At(m)))
		}
	}
}

func TestCheapestIsTheFirstMinimum(t *testing.T) {
	cands := []entry{{cost: 3, rows: 0}, {cost: 2, rows: 1}, {cost: 2, rows: 2}}
	if got := Cheapest(cands, entryCost); len(got) != 1 || got[0].rows != 1 {
		t.Fatalf("Cheapest = %v, want the first entry of cost 2", got)
	}
	if got := Cheapest(nil, entryCost); got != nil {
		t.Fatalf("Cheapest of nothing = %v", got)
	}
}

func TestCutPairsKeepsTheCheapestTiesInSubsetOrder(t *testing.T) {
	// Pair rows: 0011→4, 0101→2, 0110→2, 1001→2, 1010→2, 1100→1, and a
	// pair's cost is its rows plus its two relations' sizes.
	g := &toy{n: 4, size: []int64{2, 2, 1, 1}}
	p := g.plan()
	p.Solve(1, 2)
	p.CutPairs(3, entryCost)
	var kept []uint
	for _, m := range Subsets(4, 2, 2) {
		if len(p.At(m)) > 0 {
			kept = append(kept, m)
		}
	}
	// 1100 costs 3; 0101, 0110, 1001, 1010 all cost 5: the first two stay.
	if want := []uint{0b0101, 0b0110, 0b1100}; !reflect.DeepEqual(kept, want) {
		t.Fatalf("kept pairs %04b, want %04b", kept, want)
	}
	p.CutPairs(5, entryCost)
	if len(p.At(0b0101)) == 0 {
		t.Fatal("a cut wider than the pairs left must drop nothing")
	}
}

// reference is the optimum by plain recursion over every ordered split, with
// the same rule for cross products.
func (g *toy) reference(mask uint, memo map[uint]int64) int64 {
	if c, ok := memo[mask]; ok {
		return c
	}
	if bits.OnesCount(mask) == 1 {
		return g.rows(mask)
	}
	best := func(connected bool) int64 {
		b := int64(-1)
		for a := uint(1); a < mask; a++ {
			if a&^mask != 0 || connected && !g.connected(a, mask&^a) {
				continue
			}
			if c := g.reference(a, memo) + g.reference(mask&^a, memo); b < 0 || c < b {
				b = c
			}
		}
		return b
	}
	c := best(true)
	if c < 0 {
		c = best(false)
	}
	c += g.rows(mask)
	memo[mask] = c
	return c
}

func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	shapes := map[string]func(n int) []uint{
		"chain": chain,
		"star": func(n int) []uint {
			var e []uint
			for i := 1; i < n; i++ {
				e = append(e, 1|1<<i)
			}
			return e
		},
		"clique": clique,
	}
	for name, shape := range shapes {
		for n := 3; n <= 8; n++ {
			for trial := 0; trial < 20; trial++ {
				g := &toy{n: n, edges: shape(n)}
				for i := 0; i < n; i++ {
					g.size = append(g.size, 1+rng.Int63n(9))
				}
				p := g.plan()
				p.Solve(1, n)
				full := uint(1)<<n - 1
				got, want := p.At(full)[0].cost, g.reference(full, map[uint]int64{})
				if got != want {
					t.Fatalf("%s of %d, sizes %v: Solve found cost %d, brute force %d", name, n, g.size, got, want)
				}
			}
		}
	}
}

func TestIDPEnumeratesLess(t *testing.T) {
	g := &toy{n: 8, size: []int64{3, 5, 2, 7, 4, 6, 2, 9}, edges: chain(8)}
	p := g.plan()
	p.Solve(1, 8)
	full := len(g.joins)

	p = g.plan()
	p.Solve(1, 2)
	p.CutPairs(5, entryCost)
	p.Solve(3, 8)
	if len(p.At(1<<8-1)) != 1 {
		t.Fatal("IDP found no plan for the full set")
	}
	if idp := len(g.joins); idp >= full {
		t.Fatalf("IDP(2,5) made %d joins, full DP %d: the cut must come before the larger subsets are built", idp, full)
	}
}

// TestSubsetWalkLivesHere holds the seam: outside this package nothing in
// internal/ walks the sub-masks of a mask — the loop whose post statement is
// x = (x - 1) & y — except planGen.exactCover, whose walk over atom masks is
// an exact-cover search, not a join order.
func TestSubsetWalkLivesHere(t *testing.T) {
	fset := token.NewFileSet()
	sites := map[string]int{}
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(x ast.Node) bool {
				if loop, ok := x.(*ast.ForStmt); ok && isSubsetStep(loop.Post) {
					sites[fmt.Sprintf("%s.%s", filepath.Base(filepath.Dir(path)), fn.Name.Name)]++
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"joinorder.joins": 1, "core.exactCover": 1}
	if !reflect.DeepEqual(sites, want) {
		t.Fatalf("sub-mask walks at %v, want %v: enumerate join orders through joinorder.Plan", sites, want)
	}
}

// isSubsetStep reports whether s is x = (x - 1) & y.
func isSubsetStep(s ast.Stmt) bool {
	as, ok := s.(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	x, ok := as.Lhs[0].(*ast.Ident)
	and, ok2 := as.Rhs[0].(*ast.BinaryExpr)
	if !ok || !ok2 || and.Op != token.AND {
		return false
	}
	paren, ok := and.X.(*ast.ParenExpr)
	if !ok {
		return false
	}
	dec, ok := paren.X.(*ast.BinaryExpr)
	if !ok || dec.Op != token.SUB {
		return false
	}
	id, ok := dec.X.(*ast.Ident)
	one, ok2 := dec.Y.(*ast.BasicLit)
	return ok && ok2 && id.Name == x.Name && one.Value == "1"
}
