package ledger

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestQueryEvidenceLivesHere holds the seam over the non-test code of
// internal/, cmd/, examples/ and the root package: a query's evidence — its
// negotiation's events, its record, its dossier, the watchdog's anomalies,
// its span trees — is kept by the ledger, so outside this package no struct
// field is a slice, array or map of them. A span's Children are the tree
// itself, not a store, so SpanPayload may hold its own.
func TestQueryEvidenceLivesHere(t *testing.T) {
	banned := map[string]bool{ // element types, package-qualified
		"ledger.Dossier": true, "*ledger.Dossier": true, "ledger.Negotiation": true,
		"ledger.Event": true, "*ledger.Rec": true, "flight.Anomaly": true, "*obs.SpanPayload": true,
	}
	exempt := map[string]bool{
		// The recorder's worst-K set: records kept past the ledger ring's
		// eviction because a trigger flagged them.
		"flight.Recorder.outliers": true,
		// The trace ring behind /trace/last. It joins the ledger once an
		// issue may edit bench/, which constructs it (obs.NewTraceLogN) and
		// attaches it to sellers (SetTraceLog).
		"obs.TraceLog.recent": true,
	}
	seen := map[string]bool{}
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
		if pkg == "ledger" {
			return nil
		}
		owners := map[*ast.StructType]string{}
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.TypeSpec:
				if st, ok := x.Type.(*ast.StructType); ok {
					owners[st] = pkg + "." + x.Name.Name
				}
			case *ast.StructType:
				owner, ok := owners[x]
				if !ok {
					owner = pkg + ".<anonymous>"
				}
				for _, f := range x.Fields.List {
					elem := element(f.Type, pkg)
					if !banned[elem] || (elem == "*obs.SpanPayload" && owner == "obs.SpanPayload") {
						continue
					}
					names := []string{"<embedded>"}
					if len(f.Names) > 0 {
						names = names[:0]
						for _, id := range f.Names {
							names = append(names, id.Name)
						}
					}
					for _, name := range names {
						field := owner + "." + name
						seen[field] = true
						if !exempt[field] {
							t.Errorf("%s: %s holds %s: keep a query's evidence on its ledger record", fset.Position(f.Pos()), field, elem)
						}
					}
				}
			}
			return true
		})
		return nil
	}
	walk := func(dir string) {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			return scan(path)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	walk("..")
	walk("../../cmd")
	walk("../../examples")
	root, err := filepath.Glob("../../*.go")
	if err != nil || len(root) == 0 {
		t.Fatalf("root package not found: %v", err)
	}
	for _, path := range root {
		if err := scan(path); err != nil {
			t.Fatal(err)
		}
	}
	for field := range exempt {
		if !seen[field] {
			t.Errorf("exemption %s matches no field any more: drop it", field)
		}
	}
}

// element names the type a slice, array or map field ultimately holds,
// qualified by its package ("*ledger.Rec"), or "" for any other field.
func element(typ ast.Expr, pkg string) string {
	container := false
	for {
		switch x := typ.(type) {
		case *ast.ArrayType:
			typ, container = x.Elt, true
			continue
		case *ast.MapType:
			typ, container = x.Value, true
			continue
		}
		break
	}
	if !container {
		return ""
	}
	star := ""
	if p, ok := typ.(*ast.StarExpr); ok {
		star, typ = "*", p.X
	}
	switch x := typ.(type) {
	case *ast.Ident:
		return star + pkg + "." + x.Name
	case *ast.SelectorExpr:
		if q, ok := x.X.(*ast.Ident); ok {
			return star + q.Name + "." + x.Sel.Name
		}
	}
	return ""
}
