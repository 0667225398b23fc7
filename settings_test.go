package qtrade

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"qtrade/internal/modsrc"
)

// A setting exists only where a caller sets it. Every exported field of the
// internal config types below is written by some non-test file of the module,
// bench/ included, outside the package that declares it — by an assignment, a
// composite literal or a taken address. A value nobody outside the package
// sets runs at one value and is a constant there, not a field; the fields
// that stay settable with no such writer are listed here with the reason.
func TestEverySettingHasACaller(t *testing.T) {
	scope := map[string][]string{
		"qtrade/internal/core":    {"Config"},
		"qtrade/internal/node":    {"Config"},
		"qtrade/internal/trading": {"FaultPolicy", "BreakerConfig", "Competitive", "AnchoredBuyer", "IterativeBid", "Bargain"},
		"qtrade/internal/flight":  {"Triggers"},
	}
	kept := map[string]string{
		"core.Config.PeerLatency":       "the buyer's private WAN latency correction, which only a federation with measured paths has",
		"core.Config.FetchBatchRows":    "the stream tests' multi-batch answers",
		"node.Config.PriceCacheSize":    "the cache-off reference of the parallel-versus-serial tests",
		"node.Config.MaxOffersPerQuery": "the only way the cap tests reach the cap",
		"core.Config.Weight":            "the paper's administrator-defined weighting function",
		"node.Config.Weights":           "the paper's administrator-defined weighting function",
		"flight.Triggers.SlowMS":        "the operator's latency SLO, set through FlightRecorder().SetTriggers",
	}
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := modsrc.Load(root)
	if err != nil {
		t.Fatal(err)
	}
	fields := map[*types.Var]string{} // in-scope exported field -> pkg.Type.Field
	for path, names := range scope {
		for _, name := range names {
			// A type deleted since the list was written holds no setting.
			obj := mod.Pkgs[path].Scope().Lookup(name)
			if obj == nil {
				continue
			}
			st := obj.Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[f] = obj.Pkg().Name() + "." + name + "." + f.Name()
				}
			}
		}
	}
	written := map[string]bool{}
	for _, p := range mod.Paths {
		info := mod.Info[p]
		write := func(f types.Object) {
			if v, ok := f.(*types.Var); ok && fields[v] != "" && v.Pkg().Path() != p {
				written[fields[v]] = true
			}
		}
		writeSel := func(x ast.Expr) {
			if sel, ok := ast.Unparen(x).(*ast.SelectorExpr); ok {
				if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					write(s.Obj())
				}
			}
		}
		for _, file := range mod.Files[p] {
			ast.Inspect(file, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						writeSel(lhs)
					}
				case *ast.IncDecStmt:
					writeSel(x.X)
				case *ast.UnaryExpr:
					if x.Op == token.AND {
						writeSel(x.X)
					}
				case *ast.CompositeLit:
					st, ok := info.TypeOf(x).Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, elt := range x.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								write(info.Uses[key])
							}
						} else {
							write(st.Field(i))
						}
					}
				}
				return true
			})
		}
	}
	var unset []string
	for _, name := range fields {
		_, ok := kept[name]
		switch {
		case !written[name] && !ok:
			unset = append(unset, name)
		case written[name] && ok:
			t.Errorf("%s is kept as a setting with no caller (%s), but a caller sets it: drop it from the list", name, kept[name])
		}
		delete(kept, name)
	}
	sort.Strings(unset)
	for _, name := range unset {
		t.Errorf("%s: no non-test code outside its package sets it, so it runs at one value: make it a constant", name)
	}
	for name := range kept {
		t.Errorf("%s is kept as a setting, but no such field is in scope", name)
	}
	if t.Failed() {
		t.Logf("%d settings without a caller: %s", len(unset), strings.Join(unset, ", "))
	}
}
