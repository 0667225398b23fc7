package plan

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"qtrade/internal/modsrc"
)

// TestTailIsLoweredHere holds the seam over the module's non-test code: a
// SELECT's tail is lowered by lowerTail alone — under FinalizeSelect, the
// pushdown merge and every view compensation — over one aggregation stage,
// whose calls are gathered by one collector; and outside the expression
// package and the parser no expression node is built by hand, the AVG merge
// expression apart.
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
	// else does, but for the AVG merge's (SUM * 1.0) / COUNT.
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
		"plan.Distinct":  {"plan.lowerTail": 1},
		"plan.Sort":      {"plan.lowerTail": 1, "core.wholePlanCandidates": 1}, // the buyer's re-sort of a whole offer
		"plan.Limit":     {"plan.lowerTail": 1, "core.wholePlanCandidates": 1},
		"expr.Binary":    {"plan.finalExpr": 2},
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

// TestColumnsAreResolvedHere holds the seam over the module's non-test code,
// bench/ included: a column is resolved to its relation by plan.Qualify alone,
// so outside the catalog nothing else asks a table definition for a column by
// name, and everything downstream reads a column by its qualifier. A subquery
// over a relation subset is built with the catalog, by localopt.Subqueries:
// the catalog-less builders and their placeholder column "_" are gone.
func TestColumnsAreResolvedHere(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := modsrc.Load(root)
	if err != nil {
		t.Fatal(err)
	}
	scope := func(path string) *types.Scope { return mod.Pkgs[path].Scope() }
	def := scope("qtrade/internal/catalog").Lookup("TableDef").Type()
	columnIndex, _, _ := types.LookupFieldOrMethod(def, true, nil, "ColumnIndex")
	newColumn := scope("qtrade/internal/expr").Lookup("NewColumn")
	column := scope("qtrade/internal/expr").Lookup("Column").Type()
	resolvers := map[string]bool{} // "pkg.function"s calling ColumnIndex
	for _, p := range mod.Paths {
		info := mod.Info[p]
		for _, file := range mod.Files[p] {
			for _, decl := range file.Decls {
				site := mod.Pkgs[p].Name() + "."
				if fn, ok := decl.(*ast.FuncDecl); ok {
					site += fn.Name.Name
					if fn.Recv == nil && (fn.Name.Name == "SubqueryFor" || fn.Name.Name == "SubqueriesOf") {
						t.Errorf("%s is back: build subqueries with localopt.Subqueries, which has the catalog", site)
					}
				}
				buildsColumn, placeholder := false, false
				ast.Inspect(decl, func(x ast.Node) bool {
					switch n := x.(type) {
					case *ast.SelectorExpr:
						if s := info.Selections[n]; s != nil && s.Obj() == columnIndex && p != "qtrade/internal/catalog" {
							resolvers[site] = true
						}
						buildsColumn = buildsColumn || info.Uses[n.Sel] == newColumn
					case *ast.CompositeLit:
						buildsColumn = buildsColumn || types.Identical(info.TypeOf(n), column)
					case *ast.BasicLit:
						placeholder = placeholder || n.Kind == token.STRING && n.Value == `"_"`
					}
					return true
				})
				if buildsColumn && placeholder {
					t.Errorf("%s builds a column and holds the placeholder name \"_\": a subquery ships a column its catalog defines", site)
				}
			}
		}
	}
	if want := map[string]bool{"plan.Qualify": true}; !reflect.DeepEqual(resolvers, want) {
		t.Errorf("columns resolved by name in %v, want %v: qualify the query with plan.Qualify and read the qualifier", resolvers, want)
	}
}
