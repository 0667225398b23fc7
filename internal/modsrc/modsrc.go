// Package modsrc type-checks the module's own source for the tests that hold
// a design rule across all of it: every non-test file, bench/ included, is
// parsed and its package checked, so a rule can ask what an identifier, a
// selector or a literal denotes rather than how it is spelled.
package modsrc

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
)

// Module is the module's non-test source, package by package.
type Module struct {
	Fset  *token.FileSet
	Paths []string                  // import paths, sorted
	Files map[string][]*ast.File    // by import path
	Pkgs  map[string]*types.Package // by import path
	Info  map[string]*types.Info    // by import path: Types, Defs, Uses and Selections
	std   types.Importer            // the standard library, from its export data
	root  string                    // the module's directory
}

// Load parses every non-test Go file under root, the module's directory,
// that the build constraints select (testdata and dot directories skipped),
// and type-checks every package.
func Load(root string) (*Module, error) {
	m := &Module{Fset: token.NewFileSet(), Files: map[string][]*ast.File{}, Pkgs: map[string]*types.Package{},
		Info: map[string]*types.Info{}, std: importer.Default(), root: root}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
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
		file, err := parser.ParseFile(m.Fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := m.importPath(filepath.Dir(path))
		m.Files[pkg] = append(m.Files[pkg], file)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for p := range m.Files {
		m.Paths = append(m.Paths, p)
	}
	sort.Strings(m.Paths)
	for _, p := range m.Paths {
		if _, err := m.Import(p); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// importPath is the import path of the package in dir: bench/ is its own
// module, qtrade/bench, which imports the root module as qtrade.
func (m *Module) importPath(dir string) string {
	rel, _ := filepath.Rel(m.root, dir)
	if rel == "." {
		return "qtrade"
	}
	return "qtrade/" + filepath.ToSlash(rel)
}

// Import implements types.Importer: a package of the module is checked from
// its parsed files, once; any other comes from the standard library.
func (m *Module) Import(path string) (*types.Package, error) {
	if pkg := m.Pkgs[path]; pkg != nil {
		return pkg, nil
	}
	files, ok := m.Files[path]
	if !ok {
		return m.std.Import(path)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.Fset, files, info)
	if err != nil {
		return nil, err
	}
	m.Pkgs[path], m.Info[path] = pkg, info
	return pkg, nil
}
