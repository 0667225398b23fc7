package flight

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestWatchdogOwnsTheWindows reads the non-test source of internal/, cmd/,
// examples/ and the root package: the watchdog is the one owner of a metrics
// history, so obs.NewHistory is called in internal/flight only, and the
// settings that had one value in use — the trace sampling policy, the
// watchdog's thresholds, its calibration hook and the history's window hook —
// stay constants instead of coming back as declarations.
func TestWatchdogOwnsTheWindows(t *testing.T) {
	root := filepath.Join("..", "..")
	var paths []string
	for _, dir := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			paths = append(paths, path)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	top, err := filepath.Glob(filepath.Join(root, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	paths = append(paths, top...)

	gone := map[string]bool{"WatchdogConfig": true, "OnWindow": true, "SetCalibrationSource": true, "DropRoot": true}
	obsDir, flightDir := filepath.Join(root, "internal", "obs"), filepath.Join(root, "internal", "flight")
	fset := token.NewFileSet()
	files := 0
	for _, path := range paths {
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files++
		dir := filepath.Dir(path)
		declared := func(name *ast.Ident) {
			if gone[name.Name] || (name.Name == "Sampling" && dir == obsDir) {
				t.Errorf("%s: %s is declared again", fset.Position(name.Pos()), name.Name)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declared(n.Name)
			case *ast.TypeSpec:
				declared(n.Name)
			case *ast.ValueSpec:
				for _, name := range n.Names {
					declared(name)
				}
			case *ast.CallExpr:
				if dir != flightDir && callsNewHistory(n.Fun, dir == obsDir) {
					t.Errorf("%s: obs.NewHistory called outside internal/flight", fset.Position(n.Pos()))
				}
			}
			return true
		})
	}
	if files < 50 {
		t.Fatalf("read only %d source files; is the walk rooted at the module?", files)
	}
}

// callsNewHistory reports whether fun names obs.NewHistory: qualified from
// another package, bare from inside obs.
func callsNewHistory(fun ast.Expr, inObs bool) bool {
	switch f := fun.(type) {
	case *ast.SelectorExpr:
		x, ok := f.X.(*ast.Ident)
		return ok && x.Name == "obs" && f.Sel.Name == "NewHistory"
	case *ast.Ident:
		return inObs && f.Name == "NewHistory"
	}
	return false
}
