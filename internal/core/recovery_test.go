package core

import (
	"fmt"
	"strings"
	"testing"

	"qtrade/internal/exec"
	"qtrade/internal/trading"
)

// crashOnDeliver simulates a seller that negotiates fine but crashes the
// moment it must deliver: Fetch to the victim fails (and takes the node
// down for subsequent negotiations).
type crashOnDeliver struct {
	Comm
	victim  string
	crashed bool
	onCrash func()
}

func (c *crashOnDeliver) Fetch(to string, req trading.ExecReq) (trading.ExecResp, error) {
	if to == c.victim {
		if !c.crashed {
			c.crashed = true
			c.onCrash()
		}
		return trading.ExecResp{}, fmt.Errorf("node %s crashed", to)
	}
	return c.Comm.Fetch(to, req)
}

// TestRecoveryAfterSellerCrash: the winning seller dies between negotiation
// and delivery; the buyer must re-optimize around it. Invoiceline is
// replicated on both islands, and myconos customers exist only on myconos,
// so a corfu-only query stays answerable when... corfu fails: use a query
// answerable from either island's invoice replica plus surviving partitions.
func TestRecoveryAfterSellerCrash(t *testing.T) {
	f := buildFederation(t, nil)
	q := "SELECT i.invid, i.charge FROM invoiceline i WHERE i.charge > 4"
	want := oracle(t, f.sch, q)

	comm := &NetComm{Net: f.net, SelfID: "athens"}
	cfg := athensCfg(f)

	// Find who would win, then have exactly that seller crash at delivery
	// time (negotiation succeeded, execution fails — the adaptive case).
	res, err := Optimize(cfg, comm, q)
	if err != nil {
		t.Fatal(err)
	}
	winner := res.Candidate.Offers[0].SellerID
	crash := &crashOnDeliver{Comm: comm, victim: winner,
		onCrash: func() { f.net.CrashNode(winner) }}

	out, finalRes, retries, err := OptimizeAndExecute(cfg, crash, &exec.Executor{Store: f.athens.Store()}, q, 2)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if retries < 1 {
		t.Fatalf("expected at least one recovery round, got %d", retries)
	}
	got := rowsKey(out.Rows)
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("recovered answer differs:\ngot  %v\nwant %v", got, want)
	}
	for _, o := range finalRes.Candidate.Offers {
		if o.SellerID == winner {
			t.Fatalf("failed seller %s still in the recovered plan", winner)
		}
	}
}

func TestRecoveryNoFailureZeroRetries(t *testing.T) {
	f := buildFederation(t, nil)
	want := oracle(t, f.sch, paperQuery)
	comm := &NetComm{Net: f.net, SelfID: "athens"}
	out, _, retries, err := OptimizeAndExecute(athensCfg(f), comm, &exec.Executor{Store: f.athens.Store()}, paperQuery, 3)
	if err != nil || retries != 0 {
		t.Fatalf("healthy run: retries=%d err=%v", retries, err)
	}
	got := rowsKey(out.Rows)
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatal("healthy answer differs")
	}
}

func TestRecoveryExhaustion(t *testing.T) {
	f := buildFederation(t, nil)
	comm := &NetComm{Net: f.net, SelfID: "athens"}
	// Query needs corfu's partition; corfu down and nobody else has it.
	q := "SELECT c.custname FROM customer c WHERE c.office = 'Corfu'"
	// Let the negotiation succeed first, then down corfu before delivery.
	res, err := Optimize(athensCfg(f), comm, q)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	f.net.CrashNode("corfu")
	_, _, _, err = OptimizeAndExecute(athensCfg(f), comm, &exec.Executor{Store: f.athens.Store()}, q, 2)
	if err == nil {
		t.Fatal("unanswerable recovery must fail")
	}
}
