package trading

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The directory is an exclusion list: a peer nobody has complained about is
// Active and worth an RFB; marked states gate it; a successful contact
// un-drains it.
func TestDirectoryStateMachine(t *testing.T) {
	d := NewDirectory()
	if d.State("n1") != StateActive || !d.Eligible("n1") {
		t.Fatal("unknown peers must default to Active and eligible")
	}

	d.MarkState("n1", StateDraining)
	if d.State("n1") != StateDraining || d.Eligible("n1") {
		t.Fatal("a draining peer must be excluded from fan-out")
	}

	// Answering a new call proves the drain was cancelled.
	d.Seen("n1")
	if d.State("n1") != StateActive || !d.Eligible("n1") {
		t.Fatal("Seen must un-drain a draining peer")
	}

	// Left is not undone by Seen: departure is announced, not inferred.
	d.MarkState("n2", StateLeft)
	d.Seen("n2")
	if d.State("n2") != StateLeft || d.Eligible("n2") {
		t.Fatal("Seen must not resurrect a left peer")
	}

	d.Forget("n2")
	if d.State("n2") != StateActive || !d.Eligible("n2") {
		t.Fatal("a forgotten peer is a stranger again: Active by default")
	}
}

// An open breaker makes a peer as ineligible as a drain mark: the breaker is
// a field of the peer's one record, beside its lifecycle mark and last
// contact, and Forget drops all three.
func TestDirectoryFoldsBreakerState(t *testing.T) {
	d := NewDirectory()
	pol := &FaultPolicy{Directory: d, Breaker: BreakerConfig{Threshold: 2, Cooldown: time.Hour}}

	if !d.Eligible("n1") {
		t.Fatal("closed breaker, active peer: eligible")
	}
	if snap := d.Snapshot(); len(snap) != 0 {
		t.Fatalf("snapshot before any contact: %+v", snap)
	}
	b := d.breaker("n1", pol)
	b.OnFailure()
	if !d.Eligible("n1") {
		t.Fatal("one failure must not gate the peer yet")
	}
	b.OnFailure()
	if d.Eligible("n1") {
		t.Fatal("an open breaker must gate the peer")
	}
	if d.State("n1") != StateActive {
		t.Fatal("breaker state must not leak into lifecycle state")
	}

	// The breaker made n1's record; no contact has been seen yet.
	snap := d.Snapshot()
	if len(snap) != 1 || snap[0].ID != "n1" || snap[0].Breaker != "open" ||
		snap[0].State != "active" || !snap[0].LastSeen.IsZero() {
		t.Fatalf("snapshot of a breaker-only record: %+v", snap)
	}
	d.Seen("n1")
	snap = d.Snapshot()
	if len(snap) != 1 || snap[0].ID != "n1" || snap[0].Breaker != "open" ||
		snap[0].State != "active" || snap[0].LastSeen.IsZero() {
		t.Fatalf("one record: %+v", snap)
	}

	d.Forget("n1")
	if !d.Eligible("n1") || d.breaker("n1", pol) == b || d.breaker("n1", pol).State() != BreakerClosed {
		t.Fatal("a forgotten peer is a stranger again: a fresh, closed breaker")
	}
}

// Snapshot is sorted by peer id and carries each entry's lifecycle state.
func TestDirectorySnapshotSorted(t *testing.T) {
	d := NewDirectory()
	d.MarkState("zeta", StateDraining)
	d.MarkState("alpha", StateActive)
	d.MarkState("mid", StateLeft)
	snap := d.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot size: %+v", snap)
	}
	wantIDs := []string{"alpha", "mid", "zeta"}
	wantStates := []string{"active", "left", "draining"}
	for i := range snap {
		if snap[i].ID != wantIDs[i] || snap[i].State != wantStates[i] {
			t.Fatalf("snapshot[%d] = %+v, want %s/%s", i, snap[i], wantIDs[i], wantStates[i])
		}
	}
}

// A nil directory gates nothing — the ungated federation keeps its exact
// pre-directory behaviour.
func TestDirectoryNilSafety(t *testing.T) {
	var d *Directory
	d.MarkState("n1", StateDraining)
	d.Seen("n1")
	d.Forget("n1")
	if d.State("n1") != StateActive {
		t.Fatal("nil directory must report Active")
	}
	if !d.Eligible("n1") {
		t.Fatal("nil directory must gate nothing")
	}
	if d.Snapshot() != nil {
		t.Fatal("nil directory snapshot must be nil")
	}
	if b := d.breaker("n1", &FaultPolicy{}); b != nil || !b.Allow() {
		t.Fatal("nil directory must hand out nil breakers, which allow every call")
	}
}

// TestSellerHealthIsOneRecord holds the seam over the Go code of internal/,
// cmd/, examples/ and the root package: no breaker registry of its own
// exists; a breaker is made only in directory.go, as a field of its peer's
// one record; only callWithTimeout turns a slow call into ErrCallTimeout
// (FailureReason reads it); and internal/netsim times no call of its own.
func TestSellerHealthIsOneRecord(t *testing.T) {
	home := filepath.Join("..", "trading", "directory.go")
	netsim := filepath.Join("..", "netsim") + string(filepath.Separator)
	timers := map[string]bool{"time.NewTimer": true, "time.After": true, "time.AfterFunc": true,
		"context.WithTimeout": true, "context.WithDeadline": true}
	timeoutUses := map[string]int{} // ErrCallTimeout references, by package.function
	name := func(x ast.Expr) string {
		switch x := x.(type) {
		case *ast.Ident:
			return x.Name
		case *ast.SelectorExpr:
			if pkg, ok := x.X.(*ast.Ident); ok {
				return pkg.Name + "." + x.Sel.Name
			}
			return "." + x.Sel.Name
		}
		return ""
	}
	fset := token.NewFileSet()
	scan := func(path string) error {
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok && (id.Name == "BreakerSet" || id.Name == "NewBreakerSet") {
				t.Errorf("%s: %s: a peer's breaker lives in its directory record", fset.Position(id.Pos()), id.Name)
			}
			return true
		})
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.Ident:
					if x.Name == "ErrCallTimeout" {
						timeoutUses[file.Name.Name+"."+fn.Name.Name]++
					}
				case *ast.CompositeLit:
					if n := name(x.Type); (n == "Breaker" || n == "trading.Breaker") && path != home {
						t.Errorf("%s: a Breaker literal: breakers are made in directory.go only", fset.Position(x.Pos()))
					}
				case *ast.CallExpr:
					n := name(x.Fun)
					if (n == "NewBreaker" || n == "trading.NewBreaker") && path != home {
						t.Errorf("%s: %s called: breakers are made in directory.go only", fset.Position(x.Pos()), n)
					}
					if strings.HasPrefix(path, netsim) && (timers[n] || strings.HasSuffix(n, ".Go")) {
						t.Errorf("%s: %s in netsim: a seller call is timed by its fault policy only", fset.Position(x.Pos()), n)
					}
				}
				return true
			})
		}
		return nil
	}
	walk := func(dir string) {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			return scan(path)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	walk("..")
	walk(filepath.Join("..", "..", "cmd"))
	walk(filepath.Join("..", "..", "examples"))
	root, err := filepath.Glob(filepath.Join("..", "..", "*.go"))
	if err != nil || len(root) == 0 {
		t.Fatalf("root package not found: %v", err)
	}
	for _, path := range root {
		if err := scan(path); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]int{"trading.callWithTimeout": 1, "trading.FailureReason": 1}
	if !reflect.DeepEqual(timeoutUses, want) {
		t.Errorf("ErrCallTimeout referenced from %v, want %v: only callWithTimeout times a seller call", timeoutUses, want)
	}
}
