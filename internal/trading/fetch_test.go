package trading

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"qtrade/internal/value"
)

// TestFetchClientOwnsTheCursorFields holds the client seam by construction.
// Across the non-test files of internal/ and cmd/, only fetch.go writes the
// continuation fields of an ExecReq — in a composite literal, or by assigning
// to a request (always called req) — and only it and the seller
// (internal/node) look at More. So there is one state machine that continues,
// retries and releases a purchased answer, and a wire change to the chunked
// fetch edits one client.
func TestFetchClientOwnsTheCursorFields(t *testing.T) {
	owned := map[string]bool{"Cursor": true, "Seq": true, "CloseCursor": true}
	fset := token.NewFileSet()
	writes := 0
	for _, root := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			slash := filepath.ToSlash(path)
			client := strings.HasSuffix(slash, "internal/trading/fetch.go")
			seller := strings.Contains(slash, "internal/node/")
			wrote := func(at token.Pos, field string) {
				if client {
					writes++
					return
				}
				t.Errorf("%s: ExecReq.%s is written outside trading/fetch.go; fetch through trading.Fetch", fset.Position(at), field)
			}
			ast.Inspect(file, func(x ast.Node) bool {
				switch v := x.(type) {
				case *ast.CompositeLit:
					if typeName(v.Type) != "ExecReq" {
						return true
					}
					for _, el := range v.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if k, ok := kv.Key.(*ast.Ident); ok && owned[k.Name] {
								wrote(kv.Pos(), k.Name)
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range v.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok && owned[sel.Sel.Name] && typeName(sel.X) == "req" {
							wrote(sel.Pos(), sel.Sel.Name)
						}
					}
				case *ast.SelectorExpr:
					if v.Sel.Name == "More" && !client && !seller {
						t.Errorf("%s: ExecResp.More is read outside trading/fetch.go and the seller; fetch through trading.Fetch", fset.Position(v.Pos()))
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if writes == 0 {
		t.Error("fetch.go writes no continuation field: the test no longer sees the client")
	}
}

// typeName is the rightmost identifier of a type or receiver expression
// ("ExecReq" for both ExecReq and trading.ExecReq).
func typeName(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return v.Sel.Name
	}
	return ""
}

// scriptedSeller answers a chunked fetch of n one-column rows in batches of
// at most per rows, recording every request it saw. It fails the call numbered
// failAt (1-based; 0 = never) after serving it, like a reply lost on the wire.
type scriptedSeller struct {
	n, per int
	failAt int
	reqs   []ExecReq
	pos    int // rows delivered by the batches before the current one
	seq    int64
	last   ExecResp
}

func (s *scriptedSeller) call(req ExecReq) (ExecResp, error) {
	s.reqs = append(s.reqs, req)
	var resp ExecResp
	switch {
	case req.CloseCursor:
		return ExecResp{}, nil
	case req.Cursor != "" && req.Seq == s.seq:
		resp = s.last // a retried seq is re-delivered
	default:
		if req.Cursor != "" && req.Seq != s.seq+1 {
			return ExecResp{}, errors.New("out of sync")
		}
		end := s.n
		if (req.Stream || req.Cursor != "") && s.pos+s.per < s.n {
			end = s.pos + s.per
		}
		for i := s.pos; i < end; i++ {
			resp.Rows = append(resp.Rows, value.Row{value.NewInt(int64(i))})
		}
		s.pos = end
		if resp.More = end < s.n; resp.More {
			resp.Cursor = "c1"
		}
		if req.Cursor == "" {
			resp.Cols = []ColSpec{{Table: "t", Name: "a", Kind: value.Int}}
		}
		resp.ExecMS = float64(end)
		s.seq, s.last = req.Seq, resp
	}
	if len(s.reqs) == s.failAt {
		return ExecResp{}, errors.New("reply lost")
	}
	return resp, nil
}

// batches pulls the fetch dry, returning the rows and the size of each batch.
func batches(t *testing.T, f *Fetch) (rows []int64, sizes []int) {
	t.Helper()
	for {
		b, err := f.Next()
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 {
			return rows, sizes
		}
		sizes = append(sizes, len(b))
		for _, r := range b {
			rows = append(rows, r[0].I)
		}
	}
}

var tenRows = []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}

// The client continues with Seq+1 until More goes false, hands a plain reply
// out in chunks, and accounts every reply once.
func TestFetchContinuesAndAccounts(t *testing.T) {
	for _, tc := range []struct {
		name      string
		req       ExecReq
		chunk     int
		exchanges int
		sizes     []int
	}{
		{"streamed", ExecReq{SQL: "q", OfferID: "o", Stream: true, BatchRows: 3}, 0, 4, []int{3, 3, 3, 1}},
		{"plain, chunked", ExecReq{SQL: "q"}, 4, 1, []int{4, 4, 2}},
		{"plain, whole", ExecReq{SQL: "q"}, 0, 1, []int{10}},
	} {
		s := &scriptedSeller{n: 10, per: 3}
		var f Fetch
		if err := f.Open(s.call, tc.req, tc.chunk); err != nil {
			t.Fatal(err)
		}
		if len(f.Cols()) != 1 || f.Cols()[0].Name != "a" {
			t.Fatalf("%s: cols %v", tc.name, f.Cols())
		}
		rows, sizes := batches(t, &f)
		if !reflect.DeepEqual(rows, tenRows) || !reflect.DeepEqual(sizes, tc.sizes) {
			t.Fatalf("%s: rows %v in batches of %v, want batches of %v", tc.name, rows, sizes, tc.sizes)
		}
		if len(s.reqs) != tc.exchanges || f.Rows != 10 || f.ExecMS != 10 || f.Bytes == 0 {
			t.Fatalf("%s: %d exchanges, actuals %d rows %d bytes exec %.0f",
				tc.name, len(s.reqs), f.Rows, f.Bytes, f.ExecMS)
		}
		if !reflect.DeepEqual(s.reqs[0], tc.req) {
			t.Fatalf("%s: the opening request went out as %+v", tc.name, s.reqs[0])
		}
		for i, req := range s.reqs[1:] {
			if want := (ExecReq{OfferID: tc.req.OfferID, Cursor: "c1", Seq: int64(i + 1)}); !reflect.DeepEqual(req, want) {
				t.Fatalf("%s: continuation %d is %+v, want %+v", tc.name, i+1, req, want)
			}
		}
		if f.Close(); len(s.reqs) != tc.exchanges {
			t.Fatalf("%s: closing a finished fetch sent a request", tc.name)
		}
	}
}

// The one call may deliver a request twice (a fault policy retrying a lost
// reply): Seq moves only when a reply arrives, so no row is skipped or
// doubled whichever exchange is retried.
func TestFetchRetriedCallSkipsNothing(t *testing.T) {
	for failAt := 2; failAt <= 4; failAt++ {
		s := &scriptedSeller{n: 10, per: 3, failAt: failAt}
		retrying := func(req ExecReq) (ExecResp, error) {
			resp, err := s.call(req)
			if err != nil {
				resp, err = s.call(req)
			}
			return resp, err
		}
		var f Fetch
		if err := f.Open(retrying, ExecReq{SQL: "q", Stream: true, BatchRows: 3}, 0); err != nil {
			t.Fatal(err)
		}
		if rows, _ := batches(t, &f); !reflect.DeepEqual(rows, tenRows) || f.Rows != 10 {
			t.Fatalf("reply %d lost and retried: rows %v, accounted %d", failAt, rows, f.Rows)
		}
	}
}

// Closing early releases the seller's cursor, once; a failed exchange ends
// the fetch and leaves nothing to release.
func TestFetchCloseAndFailure(t *testing.T) {
	s := &scriptedSeller{n: 10, per: 3}
	var f Fetch
	if err := f.Open(s.call, ExecReq{SQL: "q", OfferID: "o", Stream: true, BatchRows: 3}, 0); err != nil {
		t.Fatal(err)
	}
	if b, err := f.Next(); err != nil || len(b) != 3 {
		t.Fatalf("first batch: %v %v", b, err)
	}
	f.Close()
	f.Close()
	want := ExecReq{OfferID: "o", Cursor: "c1", CloseCursor: true}
	if len(s.reqs) != 2 || !reflect.DeepEqual(s.reqs[1], want) {
		t.Fatalf("early close sent %+v, want one %+v", s.reqs[1:], want)
	}
	if b, err := f.Next(); b != nil || err != nil {
		t.Fatalf("a closed fetch hands out nothing: %v %v", b, err)
	}

	s = &scriptedSeller{n: 10, per: 3, failAt: 2}
	if err := f.Open(s.call, ExecReq{SQL: "q", Stream: true, BatchRows: 3}, 0); err != nil {
		t.Fatal(err)
	}
	f.Next()
	if _, err := f.Next(); err == nil {
		t.Fatal("a lost continuation reply must fail the fetch")
	}
	if b, err := f.Next(); b != nil || err != nil {
		t.Fatalf("a failed fetch hands out nothing more: %v %v", b, err)
	}
	if f.Close(); len(s.reqs) != 2 {
		t.Fatalf("a failed fetch has no cursor to release, sent %+v", s.reqs[2:])
	}
	if f.Rows != 3 {
		t.Fatalf("only the delivered batch is accounted, got %d rows", f.Rows)
	}
}
