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
// package walks an expression tree (expr.Eval, expr.EvalBool), binds one in
// place (expr.Bind) or copies one (expr.Clone), so a plan — a seller's priced
// plan among them — is only ever read, and bindClone is gone.
func TestOneEvaluator(t *testing.T) {
	fset := token.NewFileSet()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	banned := map[string]bool{"Eval": true, "EvalBool": true, "Bind": true, "Clone": true}
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
