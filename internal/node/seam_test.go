package node

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"strings"
	"testing"
)

// TestSellerIsS1toS3 holds the seller's seams by construction. S3 has one
// home: the non-test files call Strategy.Price exactly once (in mint), so no
// offer source prices on its own. Delivery has one path: nothing re-enters
// (*Node).Execute to run part of an answer — a purchased answer is one plan
// tree on one cursor. A requested query is read in one place: only
// rewriteAndPlan, behind its price-cache lookup, calls sqlparse.ParseSelect,
// so nothing on the pricing path parses before the cache was asked — and S2's
// deterministic sources draft there too, past the lookup, so a hit drafts
// nothing and mint derives nothing. An offer is one book entry: mint alone
// writes a standingOffer (and alone asks for a truthful score, so price and
// floor cannot differ), one function files entries in an RFB's record, and no
// side map of assemblies travels beside them. A purchase has two ways to a
// plan and the priced one is a field read: the local optimizer runs for
// pricing and in the text path only, a request's text is parsed in the text
// path only, and the branch of purchasedPlan that serves the priced plan calls
// nothing but the generation check that guards it. And priceQuery stays short
// enough to read as S1 → S2 → S3 on one screen.
func TestSellerIsS1toS3(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	prices, priceQueryLines := 0, 0
	calls := map[string]map[string]int{} // callee name -> calling function -> call sites
	at := map[string]token.Pos{}         // callee name -> its last call site
	minters := map[string]int{}          // standingOffer literals, by function
	filers := map[string]int{}           // assignments into a record's offers, by function
	for _, file := range pkgs["node"].Files {
		in := ""
		ast.Inspect(file, func(x ast.Node) bool {
			switch v := x.(type) {
			case *ast.FuncDecl:
				in = v.Name.Name
				if v.Recv != nil && v.Name.Name == "priceQuery" {
					priceQueryLines = fset.Position(v.End()).Line - fset.Position(v.Pos()).Line + 1
				}
				if v.Name.Name == "purchasedPlan" {
					checkPricedBranch(t, fset, v)
				}
			case *ast.Ident:
				if v.Name == "assemblies" || v.Name == "keepAssemblies" {
					t.Errorf("%s: %s: a composite's assembly lives in its book entry (standingOffer.sub)",
						fset.Position(v.Pos()), v.Name)
				}
			case *ast.CompositeLit:
				if id, ok := v.Type.(*ast.Ident); ok && id.Name == "standingOffer" {
					minters[in]++
				}
			case *ast.AssignStmt:
				for _, lhs := range v.Lhs {
					if ix, ok := lhs.(*ast.IndexExpr); ok && lastIdent(ix.X) == "offers" {
						filers[in]++
					}
				}
			case *ast.CallExpr:
				callee := lastIdent(v.Fun)
				if calls[callee] == nil {
					calls[callee] = map[string]int{}
				}
				calls[callee][in]++
				at[callee] = v.Pos()
				fn, ok := v.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch fn.Sel.Name {
				case "Price":
					if on, ok := fn.X.(*ast.SelectorExpr); ok && on.Sel.Name == "Strategy" {
						prices++
					}
				case "Execute":
					// The node is always called n, as a receiver or as a field.
					if recv := lastIdent(fn.X); recv == "n" {
						t.Errorf("%s: a seller path re-enters (*Node).Execute; build a plan tree for openPurchased instead",
							fset.Position(v.Pos()))
					}
				}
			}
			return true
		})
	}
	if prices != 1 {
		t.Errorf("%d Strategy.Price call sites, want exactly 1: offers are priced in mint", prices)
	}
	// calledOnlyFrom holds a callee to one call site in each listed function.
	calledOnlyFrom := func(callee, why string, funcs ...string) {
		t.Helper()
		want := map[string]int{}
		for _, f := range funcs {
			want[f] = 1
		}
		if !reflect.DeepEqual(calls[callee], want) {
			t.Errorf("%s called from %v, want once in each of %v: %s", callee, calls[callee], funcs, why)
		}
	}
	calledOnlyFrom("ParseSelect", "ask the price cache first", "rewriteAndPlan")
	calledOnlyFrom("TruthScore", "the floor is the score the price was named for", "mint")
	calledOnlyFrom("Optimize", "a purchase of a priced offer opens the plan it was priced with", "rewriteAndPlan", "selectPlan")
	calledOnlyFrom("Parse", "only the text path reads a request's text", "textPlan")
	calledOnlyFrom("textPlan", "there is one text path, and one way into it", "purchasedPlan")
	for _, source := range []string{"partialDraft", "viewDraft", "partialAggDraft"} {
		calledOnlyFrom(source, "S2's deterministic sources draft once per price-cache entry", "draftOffers")
	}
	calledOnlyFrom("draftOffers", "drafts are built where the entry is, on a miss", "rewriteAndPlan")
	if at["draftOffers"] < at["ParseSelect"] {
		t.Errorf("%s: drafting precedes the parse, so it is not confined to the miss branch", fset.Position(at["draftOffers"]))
	}
	for _, f := range []string{"mint", "purchasedPlan", "priceQuery"} {
		if calls["OutputSpecs"][f] != 0 {
			t.Errorf("OutputSpecs called from %s: an offer's columns are its draft's", f)
		}
	}
	if len(minters) != 1 || minters["mint"] != 1 {
		t.Errorf("standingOffer literals in %v, want one, in mint: a book entry is written once", minters)
	}
	if len(filers) != 1 || filers["offersForShared"] != 1 {
		t.Errorf("a record's offers are assigned in %v, want once, in offersForShared: an offer is filed by the call that priced it", filers)
	}
	if priceQueryLines == 0 || priceQueryLines > 70 {
		t.Errorf("priceQuery is %d lines, want 1..70", priceQueryLines)
	}
}

// checkPricedBranch holds the priced way through purchasedPlan to a field
// read: the switch case guarded by the generation check calls nothing, and
// outside its cases the function calls nothing that parses, qualifies, plans
// or derives columns — what does, it reaches through textPlan.
func checkPricedBranch(t *testing.T, fset *token.FileSet, fd *ast.FuncDecl) {
	t.Helper()
	found := false
	ast.Inspect(fd, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.CaseClause:
			guarded := false
			for _, cond := range v.List {
				ast.Inspect(cond, func(y ast.Node) bool {
					if c, ok := y.(*ast.CallExpr); ok && lastIdent(c.Fun) == "generation" {
						guarded = true
					}
					return true
				})
			}
			if !guarded {
				return true
			}
			found = true
			for _, st := range v.Body {
				ast.Inspect(st, func(y ast.Node) bool {
					if c, ok := y.(*ast.CallExpr); ok {
						t.Errorf("%s: the priced branch of purchasedPlan calls %s; it hands out what the book entry holds",
							fset.Position(c.Pos()), lastIdent(c.Fun))
					}
					return true
				})
			}
		case *ast.CallExpr:
			switch name := lastIdent(v.Fun); name {
			case "Parse", "ParseSelect", "Qualify", "Optimize", "OutputSpecs", "selectPlan":
				t.Errorf("%s: purchasedPlan calls %s itself; planning from text is textPlan's", fset.Position(v.Pos()), name)
			}
		}
		return true
	})
	if !found {
		t.Errorf("%s: purchasedPlan has no case guarded by the generation check", fset.Position(fd.Pos()))
	}
}

// TestDeliverIsTheOnlyExchange holds the delivery seam by construction: the
// non-test files pull a purchased answer's cursor (serverCursor.advance) at
// one call site, in deliver — so the opening batch, every continuation and a
// plain request's whole answer are the same exchange, and More, Cursor and
// the cumulative ExecMS are set in one place — and report a delivery to the
// ledger at one call site, in finishCursor, where every delivery ends.
func TestDeliverIsTheOnlyExchange(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	home := map[string]string{"advance": "deliver", "Served": "finishCursor"}
	calls := map[string]int{}
	for _, file := range pkgs["node"].Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fd, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || home[fn.Sel.Name] == "" {
					return true
				}
				calls[fn.Sel.Name]++
				if fd.Name.Name != home[fn.Sel.Name] {
					t.Errorf("%s: %s called in %s; only %s may", fset.Position(call.Pos()),
						fn.Sel.Name, fd.Name.Name, home[fn.Sel.Name])
				}
				return true
			})
		}
	}
	if calls["advance"] != 1 || calls["Served"] != 1 {
		t.Errorf("%d advance and %d ledger.Served call sites, want exactly one of each", calls["advance"], calls["Served"])
	}
}

// lastIdent names the rightmost identifier of a receiver expression
// ("n" for both n and f.n).
func lastIdent(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return v.Sel.Name
	}
	return ""
}

// rfbOf must find the RFB an offer id was minted under whatever the RFB id
// looks like — a composite whose record cannot be found would be answered
// from local data alone — and must refuse ids of any other shape or node.
func TestRFBOfOfferID(t *testing.T) {
	n := New(Config{ID: "oracle", Schema: telcoSchema()})
	for id, want := range map[string]string{
		"oracle/r1/q0/o1":          "r1",
		"oracle/eu/hq-rfb1/q0/s4":  "eu/hq-rfb1",
		"oracle/r1/sub/corfu/q0/a": "r1/sub/corfu",
		"other/r1/q0/o1":           "",
		"oracle/r1":                "",
		"oracle":                   "",
		"rfb7.oracle.1":            "",
		"":                         "",
	} {
		if got := n.rfbOf(id); got != want {
			t.Errorf("rfbOf(%q) = %q, want %q", id, got, want)
		}
	}
}
