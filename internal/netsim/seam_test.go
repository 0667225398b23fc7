package netsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"sort"
	"strings"
	"testing"
)

// TestNodeFailsOneWay holds "is node X reachable" to one decision. The
// network's crashed set, beside the node registry, is the only record of an
// unreachable node: dispatch alone reads it to decide reachability, and
// only CrashNode (which the crash-after-award hook calls), RestartNode and
// Unregister write it (New creates it empty). CrashNode's one read is its
// own check-and-set, so the hook tallies a crash once per transition. No other field of Network or of the chaos injector's
// state keeps a set of nodes or is named for a node being down, dead or
// crashed, so a fault plan cannot hold a second verdict that installing or
// removing it would change.
func TestNodeFailsOneWay(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	isMark := func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "crashed"
	}
	hasMark := false
	reads, writes := map[string]int{}, map[string]int{}
	for _, file := range pkgs["netsim"].Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || (ts.Name.Name != "Network" && ts.Name.Name != "chaosState") {
						continue
					}
					for _, f := range ts.Type.(*ast.StructType).Fields.List {
						for _, name := range f.Names {
							if ts.Name.Name == "Network" && name.Name == "crashed" {
								hasMark = true
								continue
							}
							if recordsNodes(f.Type, name.Name) {
								t.Errorf("%s: %s.%s records unreachable nodes beside Network.crashed",
									fset.Position(name.Pos()), ts.Name.Name, name.Name)
							}
						}
					}
				}
			case *ast.FuncDecl:
				if d.Body == nil {
					continue
				}
				written := map[ast.Expr]bool{} // crash-mark selectors a statement writes through
				ast.Inspect(d.Body, func(x ast.Node) bool {
					switch v := x.(type) {
					case *ast.AssignStmt:
						for _, lhs := range v.Lhs {
							if ix, ok := lhs.(*ast.IndexExpr); ok && isMark(ix.X) {
								written[ix.X] = true
							} else if isMark(lhs) {
								written[lhs] = true
							}
						}
					case *ast.CallExpr:
						if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "delete" && isMark(v.Args[0]) {
							written[v.Args[0]] = true
						}
					case *ast.KeyValueExpr:
						if id, ok := v.Key.(*ast.Ident); ok && id.Name == "crashed" {
							writes[d.Name.Name]++
						}
					case *ast.SelectorExpr:
						if !isMark(v) {
							break
						}
						if written[v] {
							writes[d.Name.Name]++
						} else {
							reads[d.Name.Name]++
						}
					}
					return true
				})
			}
		}
	}
	if !hasMark {
		t.Fatal("Network has no crashed field: where does the bus record a crashed node?")
	}
	if reads["CrashNode"] > 1 {
		t.Errorf("CrashNode reads the crash mark %d times; once, to check-and-set it", reads["CrashNode"])
	}
	delete(reads, "CrashNode")
	if got := keys(reads); strings.Join(got, ",") != "dispatch" {
		t.Errorf("the crash mark is read by %v; only dispatch may decide reachability", got)
	}
	if got := keys(writes); strings.Join(got, ",") != "CrashNode,New,RestartNode,Unregister" {
		t.Errorf("the crash mark is written by %v; want CrashNode, RestartNode, Unregister and New", got)
	}
}

// recordsNodes reports whether a struct field looks like a record of node
// reachability: a set keyed by node id, or a non-counter named for a node
// being down, dead or crashed.
func recordsNodes(typ ast.Expr, name string) bool {
	if m, ok := typ.(*ast.MapType); ok {
		key, _ := m.Key.(*ast.Ident)
		val, isIdent := m.Value.(*ast.Ident)
		_, isStruct := m.Value.(*ast.StructType)
		if key != nil && key.Name == "string" && (isStruct || isIdent && val.Name == "bool") {
			return true
		}
	}
	if sel, ok := typ.(*ast.SelectorExpr); ok && sel.Sel.Name == "Int64" {
		return false // a tally, not a record of which node
	}
	lower := strings.ToLower(name)
	for _, word := range []string{"down", "dead", "crash", "alive", "reach"} {
		if strings.Contains(lower, word) {
			return true
		}
	}
	return false
}

func keys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
