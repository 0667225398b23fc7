package node

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestSellerIsS1toS3 holds the seller's seams by construction. S3 has one
// home: the non-test files call Strategy.Price exactly once (in mint), so no
// offer source prices on its own. Delivery has one path: nothing re-enters
// (*Node).Execute to run part of an answer — a purchased answer is one plan
// tree on one cursor. A requested query is read in one place: only
// rewriteAndPlan, behind its price-cache lookup, calls sqlparse.ParseSelect,
// so nothing on the pricing path parses before the cache was asked. An offer
// is one book entry: mint alone writes a standingOffer (and alone asks for a
// truthful score, so price and floor cannot differ), one function files
// entries in an RFB's record, and no side map of assemblies travels beside
// them. And priceQuery stays short enough to read as S1 → S2 → S3 on one
// screen.
func TestSellerIsS1toS3(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	prices, priceQueryLines := 0, 0
	parsers := map[string]int{} // sqlparse.ParseSelect call sites, by function
	minters := map[string]int{} // standingOffer literals, by function
	filers := map[string]int{}  // assignments into a record's offers, by function
	truths := map[string]int{}  // trading.TruthScore call sites, by function
	for _, file := range pkgs["node"].Files {
		in := ""
		ast.Inspect(file, func(x ast.Node) bool {
			switch v := x.(type) {
			case *ast.FuncDecl:
				in = v.Name.Name
				if v.Recv != nil && v.Name.Name == "priceQuery" {
					priceQueryLines = fset.Position(v.End()).Line - fset.Position(v.Pos()).Line + 1
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
				fn, ok := v.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch fn.Sel.Name {
				case "TruthScore":
					truths[in]++
				case "ParseSelect":
					parsers[in]++
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
	if len(parsers) != 1 || parsers["rewriteAndPlan"] != 1 {
		t.Errorf("sqlparse.ParseSelect called from %v, want once, in rewriteAndPlan: ask the price cache first", parsers)
	}
	if len(minters) != 1 || minters["mint"] != 1 {
		t.Errorf("standingOffer literals in %v, want one, in mint: a book entry is written once", minters)
	}
	if len(truths) != 1 || truths["mint"] != 1 {
		t.Errorf("trading.TruthScore called from %v, want once, in mint: the floor is the score the price was named for", truths)
	}
	if len(filers) != 1 || filers["offersForShared"] != 1 {
		t.Errorf("a record's offers are assigned in %v, want once, in offersForShared: an offer is filed by the call that priced it", filers)
	}
	if priceQueryLines == 0 || priceQueryLines > 70 {
		t.Errorf("priceQuery is %d lines, want 1..70", priceQueryLines)
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
