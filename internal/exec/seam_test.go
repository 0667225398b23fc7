package exec

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// One executor: (*Executor).build, which turns a plan into its cursor tree,
// is the only function in the package that switches on plan node types, and
// the recursive materializing evaluator the cursors replaced is gone from the
// whole module, tests included.
func TestOneExecutor(t *testing.T) {
	fset := token.NewFileSet()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var switching []string
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil && switchesOnPlan(fn.Body) {
				switching = append(switching, funcName(fn))
			}
		}
	}
	if len(switching) != 1 || switching[0] != "(*Executor).build" {
		t.Errorf("functions switching on plan node types: %v, want only (*Executor).build", switching)
	}

	gone := map[string]bool{"RunMaterialized": true, "runNode": true}
	root := filepath.Join("..", "..")
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // another module, fixtures, or tooling
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok && gone[id.Name] {
				t.Errorf("%s: %s is back: the cursors are the one executor", fset.Position(id.Pos()), id.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// One evaluator: every expression the cursors evaluate row by row runs a
// program expr.Compile built when the cursor opened. No non-test file of the
// package walks an expression tree (expr.Eval, expr.EvalBool) or binds one
// (expr.Bind), so a plan — a seller's priced plan among them — is only ever
// read, and bindClone is gone.
func TestOneEvaluator(t *testing.T) {
	fset := token.NewFileSet()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	banned := map[string]bool{"Eval": true, "EvalBool": true, "Bind": true}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.SelectorExpr:
				if pkg, ok := x.X.(*ast.Ident); ok && pkg.Name == "expr" && banned[x.Sel.Name] {
					t.Errorf("%s: expr.%s: evaluate a compiled program (expr.Compile) instead", fset.Position(x.Pos()), x.Sel.Name)
				}
			case *ast.FuncDecl:
				if x.Name.Name == "bindClone" {
					t.Errorf("%s: bindClone is back: compile the plan's expression, do not copy it", fset.Position(x.Pos()))
				}
			}
			return true
		})
	}
}

// The aggregate folds as it pulls: in the package's non-test files Drain is
// called only where every input row is kept — the join's build side, the
// sort — and by Run, which hands a caller the whole answer.
func TestAggregateFoldsAsItPulls(t *testing.T) {
	fset := token.NewFileSet()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"(*joinCursor).Open": true, "(*sortCursor).Next": true, "(*Executor).Run": true}
	got := map[string]bool{}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(x ast.Node) bool {
				if call, ok := x.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "Drain" {
						got[funcName(fn)] = true
						if !want[funcName(fn)] {
							t.Errorf("%s: %s drains its input: only the join's build side, the sort and Run keep every row", fset.Position(call.Pos()), funcName(fn))
						}
					}
				}
				return true
			})
		}
	}
	for name := range want {
		if !got[name] {
			t.Errorf("%s no longer calls Drain: the seam names a caller that is gone", name)
		}
	}
}

// switchesOnPlan reports whether body holds a type switch with a plan.* case.
func switchesOnPlan(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(x ast.Node) bool {
		ts, ok := x.(*ast.TypeSwitchStmt)
		if !ok {
			return !found
		}
		for _, stmt := range ts.Body.List {
			for _, e := range stmt.(*ast.CaseClause).List {
				if star, ok := e.(*ast.StarExpr); ok {
					e = star.X
				}
				if sel, ok := e.(*ast.SelectorExpr); ok {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "plan" {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// funcName prints a declaration as "name" or "(*Recv).name".
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	prefix := ""
	if star, ok := recv.(*ast.StarExpr); ok {
		prefix, recv = "*", star.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return "(" + prefix + id.Name + ")." + fn.Name.Name
	}
	return fn.Name.Name
}
