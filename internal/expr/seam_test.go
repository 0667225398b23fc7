package expr

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// An expression is an immutable value: no node is written after it is built,
// which is what lets queries, rewrites, plans, offers, price-cache entries and
// pricing goroutines share one tree without copying it. In every non-test
// file of the module, bench/ included, nothing outside a composite literal
// assigns to, increments or takes the address of a field of a node, writes an
// element of an In's list, or overwrites a whole node through a pointer. A
// rewrite builds new nodes instead (Transform, Substitute, QualifyBy, Bind).
func TestNodesAreNeverWritten(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	mod := &moduleChecker{fset: fset, root: root, std: importer.Default(),
		files: map[string][]*ast.File{}, checked: map[string]*types.Package{}, info: map[string]*types.Info{}}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(path)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := mod.importPath(filepath.Dir(path))
		mod.files[pkg] = append(mod.files[pkg], file)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	self, err := mod.Import("qtrade/internal/expr")
	if err != nil {
		t.Fatal(err)
	}
	nodes, fields := map[types.Object]bool{}, map[*types.Var]string{}
	for _, name := range []string{"Column", "Lit", "Binary", "Unary", "In", "Between", "IsNull", "Agg"} {
		node := self.Scope().Lookup(name)
		nodes[node] = true
		st := node.Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			fields[st.Field(i)] = name + "." + st.Field(i).Name()
		}
	}
	paths := make([]string, 0, len(mod.files))
	for p := range mod.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := mod.Import(p); err != nil {
			t.Fatal(err)
		}
		info := mod.info[p]
		// field names the node field x selects, "" when it selects none.
		field := func(x ast.Expr) string {
			if sel, ok := ast.Unparen(x).(*ast.SelectorExpr); ok {
				if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					return fields[s.Obj().(*types.Var)]
				}
			}
			return ""
		}
		// written reports how writing to x would write a node, "" if it would not.
		written := func(x ast.Expr) string {
			x = ast.Unparen(x)
			if f := field(x); f != "" {
				return f
			}
			if ix, ok := x.(*ast.IndexExpr); ok && field(ix.X) == "In.List" {
				return "an element of In.List"
			}
			if star, ok := x.(*ast.StarExpr); ok {
				if n, ok := info.TypeOf(star).(*types.Named); ok && nodes[n.Obj()] {
					return "a whole " + n.Obj().Name()
				}
			}
			return ""
		}
		for _, file := range mod.files[p] {
			ast.Inspect(file, func(x ast.Node) bool {
				var targets []ast.Expr
				verb := "writes"
				switch x := x.(type) {
				case *ast.AssignStmt:
					if x.Tok != token.DEFINE {
						targets = x.Lhs
					}
				case *ast.IncDecStmt:
					targets = []ast.Expr{x.X}
				case *ast.RangeStmt:
					if x.Tok == token.ASSIGN {
						targets = []ast.Expr{x.Key, x.Value}
					}
				case *ast.UnaryExpr:
					if x.Op == token.AND {
						targets, verb = []ast.Expr{x.X}, "takes the address of"
					}
				}
				for _, target := range targets {
					if target == nil {
						continue
					}
					if what := written(target); what != "" {
						t.Errorf("%s: %s %s: an expression is never written after it is built; build a new node",
							fset.Position(target.Pos()), verb, what)
					}
				}
				return true
			})
		}
	}
}

// moduleChecker type-checks the module's packages from their parsed non-test
// files, importing the standard library from its export data.
type moduleChecker struct {
	fset    *token.FileSet
	root    string
	std     types.Importer
	files   map[string][]*ast.File // import path -> non-test files
	checked map[string]*types.Package
	info    map[string]*types.Info
}

// importPath is the import path of the package in dir: bench/ is its own
// module, qtrade/bench, which imports the root module as qtrade.
func (m *moduleChecker) importPath(dir string) string {
	rel, _ := filepath.Rel(m.root, dir)
	if rel == "." {
		return "qtrade"
	}
	return "qtrade/" + filepath.ToSlash(rel)
}

func (m *moduleChecker) Import(path string) (*types.Package, error) {
	if pkg := m.checked[path]; pkg != nil {
		return pkg, nil
	}
	files, ok := m.files[path]
	if !ok {
		return m.std.Import(path)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	m.checked[path], m.info[path] = pkg, info
	return pkg, nil
}
