package core

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"qtrade/internal/exec"
	"qtrade/internal/ledger"
	"qtrade/internal/obs"
	"qtrade/internal/plan"
	"qtrade/internal/trading"
	"qtrade/internal/value"
)

// joinQuery buys four leaves from the core fixture: corfu's invoice lines
// (six rows) as the probe side, and the three offices' customers as a
// UnionAll build side.
const joinQuery = "SELECT c.custname, i.charge FROM customer c, invoiceline i WHERE c.custid = i.custid"

// settle waits until done holds, failing after five seconds.
func settle(t *testing.T, what string, done func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !done(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("5s and still not %s", what)
		}
	}
}

// fetchEvents counts the ledger's fetch events on rec, and the executions
// that rec records.
func fetchEvents(rec *ledger.Rec) (fetches, execs int) {
	for _, e := range rec.Snapshot().Events {
		switch e.Kind {
		case ledger.KindFetch:
			fetches++
		case ledger.KindExecStart:
			execs++
		}
	}
	return fetches, execs
}

// understate sets every leaf's quoted cardinality to one row, so that each
// reads one batch ahead: a multi-batch leaf still holds a parked seller
// cursor whenever the walk stops early.
func understate(res *Result) {
	for _, r := range plan.Remotes(res.Candidate.Root) {
		r.EstRows = 1
	}
}

// TestStreamReadAheadReleasesEverything: whichever way an execution ends —
// closed after its first batch, a sibling leaf that cannot open, a leaf that
// fails mid-stream, a full drain, or a recovery that re-executes — every
// read-ahead goroutine has ended, no seller holds a cursor, and the ledger
// holds exactly one fetch event per leaf of every run.
func TestStreamReadAheadReleasesEverything(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, f *federation, cfg Config, comm Comm) *Result
	}{
		{"early-close", func(t *testing.T, f *federation, cfg Config, comm Comm) *Result {
			res := optimizeFor(t, cfg, comm, joinQuery)
			understate(res)
			cur, _, err := ExecuteResultStream(comm, &exec.Executor{Store: f.athens.Store()}, res, nil)
			if err != nil {
				t.Fatal(err)
			}
			if b, err := cur.Next(); err != nil || len(b) == 0 {
				t.Fatalf("first batch: %v %v", b, err)
			}
			cur.Close()
			return res
		}},
		{"sibling-open-fails", func(t *testing.T, f *federation, cfg Config, comm Comm) *Result {
			res := optimizeFor(t, cfg, comm, joinQuery)
			understate(res)
			faulty := &failOpensAt{Comm: comm, victim: "myconos"}
			if _, err := ExecuteResult(faulty, &exec.Executor{Store: f.athens.Store()}, res); err == nil ||
				!strings.Contains(err.Error(), "myconos") {
				t.Fatalf("the failed open must surface, naming its seller: %v", err)
			}
			return res
		}},
		{"mid-stream-failure", func(t *testing.T, f *federation, cfg Config, comm Comm) *Result {
			res := optimizeFor(t, cfg, comm, joinQuery)
			faulty := &desyncContinuations{Comm: comm, victim: "corfu"}
			if _, err := ExecuteResult(faulty, &exec.Executor{Store: f.athens.Store()}, res); err == nil ||
				!strings.Contains(err.Error(), "out of sync") {
				t.Fatalf("the mid-stream failure must surface: %v", err)
			}
			return res
		}},
		{"full-drain", func(t *testing.T, f *federation, cfg Config, comm Comm) *Result {
			res := optimizeFor(t, cfg, comm, joinQuery)
			out, err := ExecuteResult(comm, &exec.Executor{Store: f.athens.Store()}, res)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := strings.Join(rowsKey(out.Rows), "|"), strings.Join(oracle(t, f.sch, joinQuery), "|"); got != want {
				t.Fatalf("drained answer differs:\ngot  %s\nwant %s", got, want)
			}
			return res
		}},
		{"recovery", func(t *testing.T, f *federation, cfg Config, comm Comm) *Result {
			// The invoice lines are on corfu and myconos: the leaf that fails
			// mid-stream has a standing substitute, and the plan is re-run.
			q := "SELECT i.invid, i.charge FROM invoiceline i WHERE i.charge > 4"
			cfg.Metrics = obs.NewMetrics()
			cfg.Faults = testPolicy(cfg.Metrics)
			victim := optimizeFor(t, cfg, comm, q).Candidate.Offers[0].SellerID
			faulty := &desyncContinuations{Comm: comm, victim: victim}
			out, res, retries, err := OptimizeAndExecute(cfg, faulty, &exec.Executor{Store: f.athens.Store()}, q, 2)
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			if got, want := strings.Join(rowsKey(out.Rows), "|"), strings.Join(oracle(t, f.sch, q), "|"); got != want {
				t.Fatalf("recovered answer differs:\ngot  %s\nwant %s", got, want)
			}
			if _, execs := fetchEvents(res.LedgerRec); retries == 0 && execs < 2 {
				t.Fatalf("the failed leaf was not re-executed: %d executions, %d re-optimizations", execs, retries)
			}
			return res
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := buildFederation(t, nil)
			cfg := athensCfg(f)
			cfg.Ledger = ledger.New(8)
			cfg.FetchBatchRows = 1 // every multi-row leaf streams in several batches
			comm := &NetComm{Net: f.net, SelfID: "athens"}
			// Negotiate once before counting: whatever that leaves behind is
			// not the execution's.
			optimizeFor(t, cfg, comm, joinQuery)
			runtime.GC()
			base := runtime.NumGoroutine()

			res := c.run(t, f, cfg, comm)

			settle(t, "back to the goroutine baseline", func() bool { return runtime.NumGoroutine() <= base })
			if n := f.corfu.OpenCursors() + f.myc.OpenCursors() + f.athens.OpenCursors(); n != 0 {
				t.Fatalf("%d seller cursors left parked", n)
			}
			fetches, execs := fetchEvents(res.LedgerRec)
			leaves := len(plan.Remotes(res.Candidate.Root))
			if execs == 0 || fetches != execs*leaves {
				t.Fatalf("ledger holds %d fetch events over %d executions of %d leaves, want one per leaf", fetches, execs, leaves)
			}
		})
	}
}

func optimizeFor(t *testing.T, cfg Config, comm Comm, sql string) *Result {
	t.Helper()
	res, err := Optimize(cfg, comm, sql)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// desyncContinuations skips a Seq on the victim's continuations: the seller
// ends the delivery with an out-of-sync error and drops its cursor, as a
// seller whose execution fails mid-stream does.
type desyncContinuations struct {
	Comm
	victim string
}

func (c *desyncContinuations) Fetch(to string, req trading.ExecReq) (trading.ExecResp, error) {
	if to == c.victim && req.Cursor != "" && !req.CloseCursor {
		req.Seq++
	}
	return c.Comm.Fetch(to, req)
}

// failOpensAt refuses the victim's opening fetches: a purchased seller that
// is gone by the time its answer is fetched.
type failOpensAt struct {
	Comm
	victim string
}

func (c *failOpensAt) Fetch(to string, req trading.ExecReq) (trading.ExecResp, error) {
	if to == c.victim && req.Stream {
		return trading.ExecResp{}, fmt.Errorf("node %s unreachable", to)
	}
	return c.Comm.Fetch(to, req)
}

// recordingComm counts, per leaf, the continuations the buyer has asked for,
// and checks each one against what the test says the executor has pulled of
// that leaf. It can fail one leaf's continuation by number.
type recordingComm struct {
	Comm
	window int // continuations allowed beyond what was pulled

	mu      sync.Mutex
	asked   map[string]int // continuations sent, by leaf and by seller
	pulled  map[string]int // batches the executor took, by leaf
	overrun []string
	victim  string // seller whose failAt-th continuation fails
	failAt  int
}

// leafKey names a leaf by its seller and purchased offer.
func leafKey(nodeID, offerID string) string { return nodeID + "/" + offerID }

func (c *recordingComm) Fetch(to string, req trading.ExecReq) (trading.ExecResp, error) {
	if req.Cursor != "" && !req.CloseCursor {
		k := leafKey(to, req.OfferID)
		c.mu.Lock()
		c.asked[k]++
		c.asked[to]++
		n := c.asked[k]
		if c.window > 0 && n > c.pulled[k]+c.window {
			c.overrun = append(c.overrun, fmt.Sprintf("%s: continuation %d asked with %d pulled", k, n, c.pulled[k]))
		}
		fail := to == c.victim && c.asked[to] == c.failAt
		c.mu.Unlock()
		if fail {
			return trading.ExecResp{}, fmt.Errorf("node %s crashed", to)
		}
	}
	return c.Comm.Fetch(to, req)
}

func (c *recordingComm) took(k string) {
	c.mu.Lock()
	c.pulled[k]++
	c.mu.Unlock()
}

func (c *recordingComm) sent(k string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.asked[k]
}

// sellerOrder is a leaf's whole answer as its seller produces it, fetched in
// one plain exchange.
func sellerOrder(t *testing.T, comm Comm, r *plan.Remote) []value.Row {
	t.Helper()
	resp, err := comm.Fetch(r.NodeID, trading.ExecReq{SQL: r.SQL, OfferID: r.OfferID})
	if err != nil {
		t.Fatal(err)
	}
	return resp.Rows
}

// sameRows reports whether a and b hold the same rows in the same order.
func sameRows(a, b []value.Row) bool {
	return slices.EqualFunc(a, b, func(x, y value.Row) bool {
		return len(x) == len(y) && rowsKey([]value.Row{x})[0] == rowsKey([]value.Row{y})[0]
	})
}

// TestStreamReadAheadKeepsOrderAndWindow: a leaf quoted at n batches reads
// up to n batches ahead of the executor and never further; each leaf's rows
// arrive in its seller's order; and a continuation that fails in the second
// input of a UnionAll while the walk is still on the first surfaces after
// exactly that leaf's earlier batches, is attributed to its seller, and is
// recovered from.
func TestStreamReadAheadKeepsOrderAndWindow(t *testing.T) {
	t.Run("window-and-order", func(t *testing.T) {
		const n = 2
		f := buildFederation(t, nil)
		cfg := athensCfg(f)
		cfg.FetchBatchRows = 1
		base := &NetComm{Net: f.net, SelfID: "athens"}
		res := optimizeFor(t, cfg, base, joinQuery)
		remotes := plan.Remotes(res.Candidate.Root)
		for _, r := range remotes {
			r.EstRows = n // quoted at n one-row batches, whatever the answer holds
		}
		comm := &recordingComm{Comm: base, window: n, asked: map[string]int{}, pulled: map[string]int{}}
		fetch, release := prefetchStreams(&streamHandle{to: reach(comm, res), res: res}, remotes, 1)
		defer release()
		longest := 0
		for _, r := range remotes {
			k := leafKey(r.NodeID, r.OfferID)
			want := sellerOrder(t, base, r)
			longest = max(longest, len(want))
			st, err := fetch(r.NodeID, r.SQL, r.OfferID)
			if err != nil {
				t.Fatal(err)
			}
			var got []value.Row
			for {
				// Let the read-ahead fill its window before each pull: it
				// has asked for every continuation the window allows.
				pulled := len(got)
				settle(t, k+" reading ahead", func() bool {
					return comm.sent(k) >= min(pulled+n-1, len(want)-1)
				})
				b, err := st.Next()
				if err != nil {
					t.Fatal(err)
				}
				if len(b) == 0 {
					break
				}
				comm.took(k)
				got = append(got, b...)
			}
			st.Close()
			if !sameRows(got, want) {
				t.Fatalf("%s: rows arrived out of the seller's order:\ngot  %v\nwant %v", k, got, want)
			}
		}
		if longest <= n {
			t.Fatalf("no leaf is longer than its window (%d rows): the window was never tested", longest)
		}
		if len(comm.overrun) > 0 {
			t.Fatalf("read ahead beyond the quoted window:\n%s", strings.Join(comm.overrun, "\n"))
		}
		if c := f.corfu.OpenCursors() + f.myc.OpenCursors() + f.athens.OpenCursors(); c != 0 {
			t.Fatalf("%d seller cursors left parked", c)
		}
	})

	t.Run("failure-in-second-union-input", func(t *testing.T) {
		f := buildFederation(t, nil)
		// naxos and paros replicate the islands' customers, so whichever
		// island's input fails has a standing substitute.
		f.net.Register("naxos", buildNode(t, f.sch, "naxos", []string{"corfu"}, false, nil))
		f.net.Register("paros", buildNode(t, f.sch, "paros", []string{"myconos"}, false, nil))
		q := "SELECT c.custid, c.custname FROM customer c"
		cfg := athensCfg(f)
		cfg.Metrics = obs.NewMetrics()
		cfg.Faults = testPolicy(cfg.Metrics)
		cfg.FetchBatchRows = 1
		base := &NetComm{Net: f.net, SelfID: "athens"}
		res := optimizeFor(t, cfg, base, q)
		union := findUnion(res.Candidate.Root)
		if union == nil || len(union.Inputs) < 2 {
			t.Fatalf("want a UnionAll of purchased leaves:\n%s", ExplainResult(res))
		}
		first, ok1 := union.Inputs[0].(*plan.Remote)
		second, ok2 := union.Inputs[1].(*plan.Remote)
		if !ok1 || !ok2 || first.NodeID == second.NodeID {
			t.Fatalf("want two leaves from two sellers first:\n%s", ExplainResult(res))
		}
		for _, r := range plan.Remotes(res.Candidate.Root) {
			if r != second && r.NodeID == second.NodeID {
				t.Fatalf("the victim %s must sell only the second input:\n%s", r.NodeID, ExplainResult(res))
			}
		}
		firstRows, secondRows := sellerOrder(t, base, first), sellerOrder(t, base, second)
		if len(secondRows) < 2 {
			t.Fatalf("the second input must stream more than one batch: %d rows", len(secondRows))
		}
		victim := second.NodeID
		faulty := func() *recordingComm {
			return &recordingComm{Comm: base, asked: map[string]int{}, pulled: map[string]int{}, victim: victim, failAt: 1}
		}

		to := reach(faulty(), res)
		h, err := openResult(to, &exec.Executor{Store: f.athens.Store()}, res, nil)
		if err != nil {
			t.Fatal(err)
		}
		var got []value.Row
		b, err := h.Next()
		if err != nil || len(b) == 0 {
			t.Fatalf("first batch: %v %v", b, err)
		}
		got = append(got, b...)
		if len(got) > len(firstRows) {
			t.Fatalf("the first batch ran past the first input")
		}
		// The walk is still on the first input; the second's read-ahead has
		// already met the failure.
		settle(t, "the victim's failure recorded", func() bool { return to.failures()[victim] != nil })
		var failure error
		for {
			b, err := h.Next()
			if err != nil {
				failure = err
				break
			}
			if len(b) == 0 {
				break
			}
			got = append(got, b...)
		}
		h.Close()
		if failure == nil || !strings.Contains(failure.Error(), victim+" crashed") {
			t.Fatalf("the continuation failure must surface: %v", failure)
		}
		// One-row batches, so the second input's earlier batches are its
		// opening batch: the walk got the first input whole, then that.
		want := append(append([]value.Row(nil), firstRows...), secondRows[:1]...)
		if ids(got) != ids(want) {
			t.Fatalf("rows before the failure, by custid: got %s, want %s", ids(got), ids(want))
		}
		failed := to.failures()
		if len(failed) != 1 || failed[victim] == nil {
			t.Fatalf("failures() = %v, want only %s", failed, victim)
		}

		out, _, _, err := OptimizeAndExecute(cfg, faulty(), &exec.Executor{Store: f.athens.Store()}, q, 2)
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		if got, want := strings.Join(rowsKey(out.Rows), "|"), strings.Join(oracle(t, f.sch, q), "|"); got != want {
			t.Fatalf("recovered answer differs:\ngot  %s\nwant %s", got, want)
		}
	})
}

// ids lists the rows' first column in order.
func ids(rows []value.Row) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = value.Key(r, []int{0})
	}
	return strings.Join(out, ",")
}

// findUnion is the plan's first UnionAll in pre-order, or nil.
func findUnion(n plan.Node) *plan.Union {
	if u, ok := n.(*plan.Union); ok {
		return u
	}
	for _, c := range n.Children() {
		if u := findUnion(c); u != nil {
			return u
		}
	}
	return nil
}

// TestDeliveryIsPipelinedHere holds where delivery runs concurrently: the
// executor starts no goroutine (it stays one sequential walk), and the only
// goroutine on the buyer's delivery path — the only one in this package — is
// the per-leaf read-ahead prefetchStreams starts. The read-ahead drives
// trading.Fetch through its methods; trading.TestFetchClientOwnsTheCursorFields
// holds that nothing here writes the cursor fields.
func TestDeliveryIsPipelinedHere(t *testing.T) {
	goStmts := func(dir string) map[string]int {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		in := map[string]int{} // go statements by enclosing top-level function
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok {
						continue
					}
					ast.Inspect(fn, func(x ast.Node) bool {
						if _, ok := x.(*ast.GoStmt); ok {
							in[fn.Name.Name]++
						}
						return true
					})
				}
			}
		}
		return in
	}
	if got := goStmts("../exec"); len(got) != 0 {
		t.Errorf("internal/exec starts goroutines in %v: the executor is one sequential walk; read ahead in core.prefetchStreams", got)
	}
	if got := goStmts("."); len(got) != 1 || got["prefetchStreams"] != 1 {
		t.Errorf("go statements in internal/core by function: %v, want exactly one, in prefetchStreams", got)
	}
}
