package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"qtrade/internal/exec"
	"qtrade/internal/obs"
	"qtrade/internal/trading"
	"qtrade/internal/value"
)

// Delivery granularity is a transport setting, not a semantics one: at a
// batch of 1, 2, the default, and one larger than any answer (every purchase
// ships whole in its opening exchange), the federation returns what a single
// oracle node holding all the data returns in one plain Execute, and no
// seller is left holding a cursor.
func TestStreamingFederationDifferential(t *testing.T) {
	queries := []string{
		paperQuery,
		"SELECT i.invid, i.charge FROM invoiceline i WHERE i.charge > 4",
		"SELECT c.custname, i.charge FROM customer c, invoiceline i WHERE c.custid = i.custid",
		"SELECT c.custname FROM customer c WHERE c.office = 'Myconos'",
	}
	for _, q := range queries {
		f := buildFederation(t, nil)
		want := oracle(t, f.sch, q)
		for _, batch := range []int{1, 2, 0, 1 << 20} {
			cfg := athensCfg(f)
			cfg.FetchBatchRows = batch
			_, got := optimizeAndRunCfg(t, f, cfg, q)
			if strings.Join(got, "|") != strings.Join(want, "|") {
				t.Fatalf("%s batch %d\n  oracle   %v\n  streamed %v", q, batch, want, got)
			}
			if got := f.corfu.OpenCursors() + f.myc.OpenCursors() + f.athens.OpenCursors(); got != 0 {
				t.Fatalf("%s batch %d: %d seller cursors left parked", q, batch, got)
			}
		}
	}
}

func optimizeAndRunCfg(t *testing.T, f *federation, cfg Config, sql string) (*Result, []string) {
	t.Helper()
	comm := &NetComm{Net: f.net, SelfID: "athens"}
	res, err := Optimize(cfg, comm, sql)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	out, err := ExecuteResult(comm, &exec.Executor{Store: f.athens.Store()}, res)
	if err != nil {
		t.Fatalf("execute: %v\n%s", err, ExplainResult(res))
	}
	return res, rowsKey(out.Rows)
}

// Abandoning a streamed result early (the consumer closes after the first
// batch) must release every seller-side cursor the plan opened.
func TestStreamEarlyCloseReleasesSellers(t *testing.T) {
	f := buildFederation(t, nil)
	cfg := athensCfg(f)
	cfg.FetchBatchRows = 1 // every multi-row leaf parks a seller cursor
	comm := &NetComm{Net: f.net, SelfID: "athens"}
	q := "SELECT c.custname, i.charge FROM customer c, invoiceline i WHERE c.custid = i.custid"
	res, err := Optimize(cfg, comm, q)
	if err != nil {
		t.Fatal(err)
	}
	cur, cols, err := ExecuteResultStream(comm, &exec.Executor{Store: f.athens.Store()}, res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 {
		t.Fatalf("schema: %v", cols)
	}
	b, err := cur.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) == 0 {
		t.Fatal("streamed execution must surface a first batch")
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if got := f.corfu.OpenCursors() + f.myc.OpenCursors() + f.athens.OpenCursors(); got != 0 {
		t.Fatalf("early close left %d seller cursors parked", got)
	}
}

// Pulling a streamed result to completion matches the materialized answer.
func TestStreamedResultMatchesOracle(t *testing.T) {
	f := buildFederation(t, nil)
	want := oracle(t, f.sch, paperQuery)
	cfg := athensCfg(f)
	cfg.FetchBatchRows = 2
	comm := &NetComm{Net: f.net, SelfID: "athens"}
	res, err := Optimize(cfg, comm, paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	cur, _, err := ExecuteResultStream(comm, &exec.Executor{Store: f.athens.Store()}, res, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rows []value.Row
	for {
		b, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 {
			break
		}
		rows = append(rows, b...)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(rowsKey(rows), "|") != strings.Join(want, "|") {
		t.Fatalf("streamed answer differs:\ngot  %v\nwant %v", rowsKey(rows), want)
	}
}

// loseReplyOnce forwards a continuation to the seller but drops the reply
// once: the seller advanced, the buyer retries the same Seq, and the
// idempotent re-delivery keeps the answer exact with zero recovery rounds.
type loseReplyOnce struct {
	Comm
	mu   sync.Mutex
	lost bool
}

func (c *loseReplyOnce) Fetch(to string, req trading.ExecReq) (trading.ExecResp, error) {
	if req.Cursor != "" && !req.CloseCursor {
		c.mu.Lock()
		first := !c.lost
		c.lost = true
		c.mu.Unlock()
		if first {
			if _, err := c.Comm.Fetch(to, req); err != nil {
				return trading.ExecResp{}, err
			}
			return trading.ExecResp{}, trading.MarkTransient(fmt.Errorf("reply to %s lost", to))
		}
	}
	return c.Comm.Fetch(to, req)
}

func TestStreamLostReplyRetriedIdempotently(t *testing.T) {
	f := buildFederation(t, nil)
	q := "SELECT i.invid, i.charge FROM invoiceline i WHERE i.charge > 4"
	want := oracle(t, f.sch, q)
	cfg := athensCfg(f)
	cfg.Metrics = obs.NewMetrics()
	cfg.Faults = testPolicy(cfg.Metrics)
	cfg.FetchBatchRows = 1
	comm := &loseReplyOnce{Comm: &NetComm{Net: f.net, SelfID: "athens"}}
	out, _, retries, err := OptimizeAndExecute(cfg, comm, &exec.Executor{Store: f.athens.Store()}, q, 2)
	if err != nil {
		t.Fatalf("lost reply must be absorbed by the retry: %v", err)
	}
	if retries != 0 {
		t.Fatalf("idempotent re-delivery must not cost a recovery round, got %d", retries)
	}
	if strings.Join(rowsKey(out.Rows), "|") != strings.Join(want, "|") {
		t.Fatalf("answer differs after retried batch:\ngot  %v\nwant %v", rowsKey(out.Rows), want)
	}
}

// failContinuations persistently fails every continuation pull against one
// victim seller (the opening fetch still works), simulating a seller that
// dies mid-stream.
type failContinuations struct {
	Comm
	victim string
}

func (c *failContinuations) Fetch(to string, req trading.ExecReq) (trading.ExecResp, error) {
	if to == c.victim && req.Cursor != "" && !req.CloseCursor {
		return trading.ExecResp{}, fmt.Errorf("node %s crashed", to)
	}
	return c.Comm.Fetch(to, req)
}

// A seller that dies mid-stream is recovered like one that dies before
// delivery: the failure is attributed to that seller and a standing-offer
// substitute (or re-optimization) answers the query.
func TestStreamMidStreamFaultRecovered(t *testing.T) {
	f := buildFederation(t, nil)
	q := "SELECT i.invid, i.charge FROM invoiceline i WHERE i.charge > 4"
	want := oracle(t, f.sch, q)
	cfg := athensCfg(f)
	cfg.Metrics = obs.NewMetrics()
	cfg.Faults = testPolicy(cfg.Metrics)
	cfg.FetchBatchRows = 1
	comm := &NetComm{Net: f.net, SelfID: "athens"}
	res, err := Optimize(cfg, comm, q)
	if err != nil {
		t.Fatal(err)
	}
	victim := ""
	for _, o := range res.Candidate.Offers {
		if o.SellerID != "athens" {
			victim = o.SellerID
			break
		}
	}
	if victim == "" {
		t.Skip("plan bought nothing remote")
	}
	faulty := &failContinuations{Comm: comm, victim: victim}
	out, finalRes, _, err := OptimizeAndExecute(cfg, faulty, &exec.Executor{Store: f.athens.Store()}, q, 2)
	if err != nil {
		t.Fatalf("mid-stream fault not recovered: %v", err)
	}
	if strings.Join(rowsKey(out.Rows), "|") != strings.Join(want, "|") {
		t.Fatalf("recovered answer differs:\ngot  %v\nwant %v", rowsKey(out.Rows), want)
	}
	for _, o := range finalRes.Candidate.Offers {
		if o.SellerID == victim {
			t.Fatalf("mid-stream-failed seller %s still in the recovered plan", victim)
		}
	}
}

// The streamed cursor honors the full cursor contract under tracing: Open
// is a no-op (ExecuteResultStream returns the handle already opened), Next
// after Close reports exhaustion, and Close is idempotent.
func TestStreamTracedHandleLifecycle(t *testing.T) {
	f := buildFederation(t, nil)
	cfg := athensCfg(f)
	cfg.FetchBatchRows = 2
	comm := &NetComm{Net: f.net, SelfID: "athens"}
	res, err := Optimize(cfg, comm, paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	cur, _, err := ExecuteResultStream(comm, &exec.Executor{Store: f.athens.Store()}, res, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := cur.Open(); err != nil {
		t.Fatalf("re-open of a live handle must be a no-op: %v", err)
	}
	var rows int
	for {
		b, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 {
			break
		}
		rows += len(b)
	}
	if rows == 0 {
		t.Fatal("traced stream produced no rows")
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if b, err := cur.Next(); err != nil || b != nil {
		t.Fatalf("closed handle must be exhausted: %v %v", b, err)
	}
	if len(tr.Roots()) == 0 {
		t.Fatal("traced execution must record spans")
	}
}

// failStreamOpens refuses every streamed opening fetch: the pipeline cannot
// open, and ExecuteResultStream must surface the error instead of handing
// back a half-built cursor.
type failStreamOpens struct{ Comm }

func (c *failStreamOpens) Fetch(to string, req trading.ExecReq) (trading.ExecResp, error) {
	if req.Stream {
		return trading.ExecResp{}, fmt.Errorf("node %s unreachable", to)
	}
	return c.Comm.Fetch(to, req)
}

func TestStreamOpenFailureSurfaced(t *testing.T) {
	f := buildFederation(t, nil)
	cfg := athensCfg(f)
	cfg.FetchBatchRows = 1
	comm := &NetComm{Net: f.net, SelfID: "athens"}
	q := "SELECT c.custname, i.charge FROM customer c, invoiceline i WHERE c.custid = i.custid"
	res, err := Optimize(cfg, comm, q)
	if err != nil {
		t.Fatal(err)
	}
	remote := false
	for _, o := range res.Candidate.Offers {
		if o.SellerID != "athens" {
			remote = true
		}
	}
	if !remote {
		t.Skip("plan bought nothing remote")
	}
	faulty := &failStreamOpens{Comm: comm}
	cur, _, err := ExecuteResultStream(faulty, &exec.Executor{Store: f.athens.Store()}, res, obs.NewTracer())
	if err == nil {
		cur.Close()
		t.Fatal("unreachable sellers must fail the streamed open")
	}
	if !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("error must attribute the unreachable seller: %v", err)
	}
}
