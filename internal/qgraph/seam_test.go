package qgraph

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestQueryIsTakenApartHere holds the seam over the non-test code of
// internal/ and the root package: outside this package nothing classifies a
// WHERE clause's conjuncts by relation, keeps a join graph of its own, or
// tests a predicate against a partition. The callers of expr.Conjuncts that
// remain split something else, and are spelled out.
func TestQueryIsTakenApartHere(t *testing.T) {
	banned := map[string]bool{"connected": true, "classifyPredicates": true, "classifyJoinPreds": true, "referencedBindings": true}
	conjuncts := map[string]int{}     // expr.Conjuncts call sites, by package.function
	unsatisfiable := map[string]int{} // expr.Unsatisfiable call sites outside expr
	fset := token.NewFileSet()
	scan := func(path string) error {
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		pkg := file.Name.Name
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if banned[fn.Name.Name] && pkg != "qgraph" {
				t.Errorf("%s: %s.%s: ask the query graph instead", path, pkg, fn.Name.Name)
			}
			ast.Inspect(fn, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if recv, ok := sel.X.(*ast.Ident); !ok || recv.Name != "expr" {
					return true
				}
				switch sel.Sel.Name {
				case "Conjuncts":
					conjuncts[pkg+"."+fn.Name.Name]++
				case "Unsatisfiable":
					unsatisfiable[pkg+"."+fn.Name.Name]++
				}
				return true
			})
		}
		return nil
	}
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		return scan(path)
	})
	if err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Glob("../../*.go")
	if err != nil || len(root) == 0 {
		t.Fatalf("root package not found: %v", err)
	}
	for _, path := range root {
		if err := scan(path); err != nil {
			t.Fatal(err)
		}
	}
	// The partition test compares ranges analysed once (expr.AnalyzeSelection);
	// simplifying a conjunction to find a contradiction is its reference only.
	if len(unsatisfiable) != 0 {
		t.Errorf("expr.Unsatisfiable called from %v: test a partition with (*qgraph.Graph).Prunes", unsatisfiable)
	}
	want := map[string]int{
		"qgraph.New":            1,
		"catalog.Selection":     1, // a partition's defining predicate, analysed once
		"exec.classifyJoinPred": 1, // an ON clause into hash keys and the rest
		"stats.Selectivity":     1, // per-column ranges of any predicate
		"views.MatchView":       2, // containment: view conjuncts against query conjuncts
		"core.finishAssembly":   1, // the safety filter: what the shipped columns can evaluate
		"baseline.finish":       1, // the same filter over the centralized plan
		"rewrite.localItems":    1, // select-list derivation: columns of the conjuncts left behind
	}
	if !reflect.DeepEqual(conjuncts, want) {
		t.Errorf("expr.Conjuncts called from %v, want %v: read the query through qgraph.New", conjuncts, want)
	}
}
