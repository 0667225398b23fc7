package obs

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"testing"

	"qtrade/internal/modsrc"
)

// TestEveryDistributionIsAnInstrument holds the seam over every non-test file
// of the module, bench/ included: a duration is kept by the metrics registry
// only. Outside this package no field, variable or array or slice element is
// a Histogram by value, so every distribution is an instrument some registry
// hands out, and /metrics shows it; a package that keeps its own copy of a
// phase's latencies is a second store of the same durations.
func TestEveryDistributionIsAnInstrument(t *testing.T) {
	mod, err := modsrc.Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	byValue := func(typ types.Type) bool {
		for {
			switch x := typ.(type) {
			case *types.Array:
				typ = x.Elem()
				continue
			case *types.Slice:
				typ = x.Elem()
				continue
			}
			break
		}
		named, ok := typ.(*types.Named)
		return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "qtrade/internal/obs" && named.Obj().Name() == "Histogram"
	}
	checked := 0
	for _, path := range mod.Paths {
		if path == "qtrade/internal/obs" {
			continue
		}
		pkg := mod.Pkgs[path].Name()
		owners := map[*ast.Ident]string{} // a field of a named struct → Type.field
		for _, file := range mod.Files[path] {
			ast.Inspect(file, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok {
					if st, ok := ts.Type.(*ast.StructType); ok {
						for _, f := range st.Fields.List {
							for _, id := range f.Names {
								owners[id] = ts.Name.Name + "." + id.Name
							}
						}
					}
				}
				return true
			})
		}
		for id, obj := range mod.Info[path].Defs {
			v, ok := obj.(*types.Var)
			if !ok {
				continue
			}
			checked++
			if !byValue(v.Type()) {
				continue
			}
			name := owners[id]
			if name == "" {
				name = id.Name
			}
			t.Errorf("%s: %s.%s holds an obs.Histogram by value: observe a registry's instrument (Metrics.Histogram) instead",
				mod.Fset.Position(id.Pos()), pkg, name)
		}
	}
	if checked == 0 {
		t.Fatal("no variable found: the module was not loaded")
	}
}
