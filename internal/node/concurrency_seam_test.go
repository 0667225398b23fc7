package node

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strconv"
	"strings"
	"testing"
)

// TestConcurrencyIsSizedInNew holds where the federation's concurrency comes
// from. The buyer asks every seller of a round at once and opens every
// purchased leaf at once, so neither core nor trading carries a fan-out bound;
// a seller sizes its pricing pool and admission gate from the machine, in
// New, so no config carries those either. Across the non-test files of node,
// core and trading: none of the configs below has a concurrency field, and
// runtime.GOMAXPROCS is called only inside node.New.
func TestConcurrencyIsSizedInNew(t *testing.T) {
	banned := map[string]bool{"Workers": true, "MaxInflightRFBs": true}
	structs := map[string]bool{ // package.Type -> seen
		"node.Config": false, "core.Config": false, "core.Result": false, "trading.Sellers": false,
	}
	procs := 0
	for _, dir := range []string{".", "../core", "../trading"} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for pkgName, pkg := range pkgs {
			for _, file := range pkg.Files {
				runtimeName := ""
				for _, imp := range file.Imports {
					if p, _ := strconv.Unquote(imp.Path.Value); p == "runtime" {
						runtimeName = "runtime"
						if imp.Name != nil {
							runtimeName = imp.Name.Name
						}
					}
				}
				in := ""
				ast.Inspect(file, func(x ast.Node) bool {
					switch v := x.(type) {
					case *ast.FuncDecl:
						in = pkgName + "." + v.Name.Name
						if v.Recv != nil {
							in = pkgName + ".(method)." + v.Name.Name
						}
					case *ast.TypeSpec:
						key := pkgName + "." + v.Name.Name
						st, ok := v.Type.(*ast.StructType)
						if _, want := structs[key]; !want || !ok {
							return true
						}
						structs[key] = true
						for _, f := range st.Fields.List {
							for _, name := range f.Names {
								if banned[name.Name] {
									t.Errorf("%s: %s.%s: concurrency is not configured; the buyer fans out fully and a node sizes itself in New",
										fset.Position(name.Pos()), key, name.Name)
								}
							}
						}
					case *ast.SelectorExpr:
						if id, ok := v.X.(*ast.Ident); ok && runtimeName != "" && id.Name == runtimeName && v.Sel.Name == "GOMAXPROCS" {
							procs++
							if in != "node.New" {
								t.Errorf("%s: runtime.GOMAXPROCS read in %s; only node.New sizes concurrency",
									fset.Position(v.Pos()), in)
							}
						}
					}
					return true
				})
			}
		}
	}
	for key, seen := range structs {
		if !seen {
			t.Errorf("struct %s not found: the seam no longer looks where the settings would live", key)
		}
	}
	if procs != 1 {
		t.Errorf("runtime.GOMAXPROCS read %d times, want once (in node.New)", procs)
	}
}
