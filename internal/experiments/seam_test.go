package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestExperimentsKeepNoState holds qtbench to a table printer: the package
// keeps no package-level variable a caller could set between runs, the
// command reaches the system only through this package, and both scales
// run the same experiments in the same order.
func TestExperimentsKeepNoState(t *testing.T) {
	fset := token.NewFileSet()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				t.Errorf("%s: package-level var: an experiment takes everything it reads as arguments", fset.Position(gd.Pos()))
			}
		}
	}

	cmd, err := filepath.Glob(filepath.Join("..", "..", "cmd", "qtbench", "*.go"))
	if err != nil || len(cmd) == 0 {
		t.Fatalf("cmd/qtbench sources: %v %v", cmd, err)
	}
	for _, path := range cmd {
		file, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range file.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(p, "qtrade/") && p != "qtrade/internal/experiments" {
				t.Errorf("%s imports %s: qtbench reaches the system through internal/experiments only", fset.Position(imp.Pos()), p)
			}
		}
	}

	ids := func(specs []Spec) string {
		out := make([]string, len(specs))
		for i, s := range specs {
			out[i] = s.ID
		}
		return strings.Join(out, ",")
	}
	if quick, full := ids(QuickSpecs(1)), ids(FullSpecs(1)); quick != full {
		t.Errorf("QuickSpecs runs %s, FullSpecs %s: both scales list the same tables", quick, full)
	}
}
