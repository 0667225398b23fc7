package core

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qtrade/internal/exec"
	"qtrade/internal/obs"
	"qtrade/internal/trading"
)

// TestSellersIsTheOnlyWayOut holds the seam by construction: in the non-test
// files of this package a Comm's Award and Fetch are called once each, from
// sellers.go (comm.go's NetComm/PeerComm adapters are the transport below the
// seam), and nothing else runs a call under the fault policy — so there is no
// second place where a seller could be reached unguarded or unobserved.
func TestSellersIsTheOnlyWayOut(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go") && fi.Name() != "comm.go"
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string]int{}
	for name, file := range pkgs["core"].Files {
		inHandle := filepath.Base(name) == "sellers.go"
		ast.Inspect(file, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			at := fset.Position(call.Pos())
			recv := ""
			switch v := fn.X.(type) {
			case *ast.Ident:
				recv = v.Name
			case *ast.SelectorExpr:
				recv = v.Sel.Name
			}
			switch fn.Sel.Name {
			case "Award", "Fetch":
				// The ledger record has methods of the same names; it is
				// always called rec.
				if recv == "rec" {
					return true
				}
				calls[fn.Sel.Name]++
				if !inHandle {
					t.Errorf("%s: %s.%s called outside sellers.go; go through sellers.award / sellers.fetch", at, recv, fn.Sel.Name)
				}
			case "GuardCall":
				if !inHandle {
					t.Errorf("%s: a call is guarded outside sellers.go; the sellers handle applies the policy", at)
				}
			}
			if recv == "Faults" {
				t.Errorf("%s: cfg.Faults.%s: core selects the policy to make a call; hand it to the sellers handle", at, fn.Sel.Name)
			}
			return true
		})
	}
	if calls["Award"] != 1 || calls["Fetch"] != 1 {
		t.Errorf("core calls Comm.Award %d times and Comm.Fetch %d times, want exactly one of each (sellers.award, sellers.fetch)", calls["Award"], calls["Fetch"])
	}
}

// holdReleases parks every cursor release until hold is closed (or a second
// passes): a seller that stopped answering after the stream was opened.
type holdReleases struct {
	Comm
	hold chan struct{}
}

func (c *holdReleases) Fetch(to string, req trading.ExecReq) (trading.ExecResp, error) {
	if req.CloseCursor {
		select {
		case <-c.hold:
		case <-time.After(time.Second):
		}
	}
	return c.Comm.Fetch(to, req)
}

// TestSellersGuardCursorRelease: abandoning a stream sends the seller a cursor
// release, and that exchange runs under the negotiation's policy like every
// other — through ExecuteResultStream, no OptimizeAndExecute in sight. A
// seller that hangs on the release costs the buyer one call timeout.
func TestSellersGuardCursorRelease(t *testing.T) {
	f := buildFederation(t, nil)
	cfg := athensCfg(f)
	cfg.Metrics = obs.NewMetrics()
	cfg.Faults = &trading.FaultPolicy{CallTimeout: 40 * time.Millisecond, Metrics: cfg.Metrics}
	cfg.FetchBatchRows = 1 // every multi-row leaf parks a seller cursor
	comm := &holdReleases{Comm: &NetComm{Net: f.net, SelfID: "athens"}, hold: make(chan struct{})}
	defer close(comm.hold)
	q := "SELECT c.custname, i.charge FROM customer c, invoiceline i WHERE c.custid = i.custid"
	res, err := Optimize(cfg, comm, q)
	if err != nil {
		t.Fatal(err)
	}
	cur, _, err := ExecuteResultStream(comm, &exec.Executor{Store: f.athens.Store()}, res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	cur.Close()
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Fatalf("Close took %v: the cursor release bypassed the 40ms call timeout", took)
	}
	if n := cfg.Metrics.Counter("fault.call_timeouts").Value(); n < 1 {
		t.Fatalf("fault.call_timeouts = %d, want >= 1 (the release was not guarded)", n)
	}
}

// drainOnDeliver has one seller refuse delivery because it is draining.
type drainOnDeliver struct {
	Comm
	victim string
}

func (c drainOnDeliver) Fetch(to string, req trading.ExecReq) (trading.ExecResp, error) {
	if to == c.victim {
		return trading.ExecResp{}, fmt.Errorf("fetch %s: %w", to, trading.ErrDraining)
	}
	return c.Comm.Fetch(to, req)
}

// TestSellersFetchFeedsDirectory: a drain rejection at delivery is membership
// news whichever entry point ran the plan — plain ExecuteResult marks the
// peer draining, so the next negotiation's health gate skips it.
func TestSellersFetchFeedsDirectory(t *testing.T) {
	f := buildFederation(t, nil)
	cfg := athensCfg(f)
	cfg.Directory = trading.NewDirectory(nil)
	comm := &NetComm{Net: f.net, SelfID: "athens"}
	q := "SELECT i.invid, i.charge FROM invoiceline i WHERE i.charge > 4"
	res, err := Optimize(cfg, comm, q)
	if err != nil {
		t.Fatal(err)
	}
	winner := res.Candidate.Offers[0].SellerID
	if cfg.Directory.State(winner) != trading.StateActive {
		t.Fatalf("%s should be active after answering the RFB", winner)
	}
	_, err = ExecuteResult(drainOnDeliver{Comm: comm, victim: winner}, &exec.Executor{Store: f.athens.Store()}, res)
	if !errors.Is(err, trading.ErrDraining) {
		t.Fatalf("execute: %v, want the drain rejection", err)
	}
	if got := cfg.Directory.State(winner); got != trading.StateDraining {
		t.Fatalf("directory has %s as %v after it refused delivery as draining", winner, got)
	}
	res, err = Optimize(cfg, comm, q)
	if err != nil {
		t.Fatalf("optimize around the draining seller: %v", err)
	}
	for _, o := range res.Pool {
		if o.SellerID == winner {
			t.Fatalf("draining seller %s was sent an RFB: %+v", winner, o)
		}
	}
}
