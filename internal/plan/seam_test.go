package plan

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

// TestTailIsLoweredHere holds the seam over the module's non-test code: a
// SELECT's tail is lowered by lowerTail alone — under FinalizeSelect, the
// pushdown merge and every view compensation — over one aggregation stage,
// whose calls are gathered by one collector; and outside the expression
// package and the parser no expression node is built by hand, the AVG merge
// expression and the rewriter's locality probe apart.
func TestTailIsLoweredHere(t *testing.T) {
	literals := map[string]map[string]int{} // literal type -> "pkg.function" -> count
	collectors := map[string]int{}          // functions gathering *expr.Agg under expr.Walk
	fset := token.NewFileSet()
	scan := func(path string) error {
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		pkg := file.Name.Name
		for _, decl := range file.Decls {
			site := pkg + "."
			if fn, ok := decl.(*ast.FuncDecl); ok {
				site += fn.Name.Name
			}
			ast.Inspect(decl, func(x ast.Node) bool {
				switch n := x.(type) {
				case *ast.CompositeLit:
					if typ := qualified(pkg, n.Type); typ != "" {
						if literals[typ] == nil {
							literals[typ] = map[string]int{}
						}
						literals[typ][site]++
					}
				case *ast.CallExpr:
					if qualified("", n.Fun) == "expr.Walk" && pkg != "expr" && assertsAgg(n) {
						collectors[site]++
					}
				}
				return true
			})
		}
		return nil
	}
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".claude", "bench": // bench/ is a module of its own
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		return scan(path)
	})
	if err != nil {
		t.Fatal(err)
	}
	// The expression package and the parser build expression nodes; no one
	// else does, but for the AVG merge's (SUM * 1.0) / COUNT and the
	// rewriter's locality probe.
	for typ, sites := range literals {
		if strings.HasPrefix(typ, "expr.") {
			for site := range sites {
				if strings.HasPrefix(site, "expr.") || strings.HasPrefix(site, "sqlparse.") {
					delete(sites, site)
				}
			}
		}
	}
	want := map[string]map[string]int{
		"plan.Aggregate": {"plan.aggregateStage": 1},
		"plan.Distinct":  {"plan.lowerTail": 1, "node.textPlan": 1},            // UNION's duplicate elimination
		"plan.Sort":      {"plan.lowerTail": 1, "core.wholePlanCandidates": 1}, // the buyer's re-sort of a whole offer
		"plan.Limit":     {"plan.lowerTail": 1, "core.wholePlanCandidates": 1},
		"expr.Binary":    {"plan.finalExpr": 2, "rewrite.localItems": 1},
		"expr.Unary":     {},
		"expr.In":        {},
		"expr.Between":   {},
		"expr.IsNull":    {},
	}
	for typ, sites := range want {
		if got := literals[typ]; len(got)+len(sites) > 0 && !reflect.DeepEqual(got, sites) {
			t.Errorf("%s literals in %v, want %v: lower a tail with plan.FinalizeSelect, map an expression with expr.Substitute", typ, got, sites)
		}
	}
	if want := map[string]int{"plan.aggCalls": 1}; !reflect.DeepEqual(collectors, want) {
		t.Errorf("aggregate calls collected in %v, want %v", collectors, want)
	}
}

// qualified names the type of a literal or a called function as
// "package.Name", reading a bare name as one of pkg's own.
func qualified(pkg string, e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		if pkg != "" {
			return pkg + "." + t.Name
		}
	case *ast.SelectorExpr:
		if x, ok := t.X.(*ast.Ident); ok {
			return x.Name + "." + t.Sel.Name
		}
	}
	return ""
}

// assertsAgg reports whether a call's arguments assert an expression to be an
// aggregate call.
func assertsAgg(call *ast.CallExpr) bool {
	found := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(x ast.Node) bool {
			if ta, ok := x.(*ast.TypeAssertExpr); ok {
				if star, ok := ta.Type.(*ast.StarExpr); ok && qualified("", star.X) == "expr.Agg" {
					found = true
				}
			}
			return !found
		})
	}
	return found
}
