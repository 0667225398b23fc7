package core

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"

	"qtrade/internal/ledger"
	"qtrade/internal/netsim"
	"qtrade/internal/node"
	"qtrade/internal/obs"
	"qtrade/internal/plan"
	"qtrade/internal/trading"
	"qtrade/internal/value"
)

// TestOptimizeIsTheLoop holds the observation seam by construction: the body
// of Optimize is the paper's loop, so it reads no sink off the Config, reads
// no clock, and stays within one screen and a half. Instrumentation belongs
// in observe.go.
func TestOptimizeIsTheLoop(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "buyer.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var fn *ast.FuncDecl
	for _, d := range file.Decls {
		if f, ok := d.(*ast.FuncDecl); ok && f.Recv == nil && f.Name.Name == "Optimize" {
			fn = f
		}
	}
	if fn == nil {
		t.Fatal("buyer.go has no func Optimize")
	}
	if lines := fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1; lines > 130 {
		t.Errorf("Optimize is %d lines, want at most 130", lines)
	}
	sinks := map[string]bool{"Tracer": true, "Metrics": true, "Ledger": true, "Flight": true}
	clock := map[string]bool{"Now": true, "Since": true}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		x, ok := sel.X.(*ast.Ident)
		switch {
		case !ok:
		case x.Name == "cfg" && sinks[sel.Sel.Name]:
			t.Errorf("%s: Optimize reads cfg.%s; feed that sink from negObs", fset.Position(sel.Pos()), sel.Sel.Name)
		case x.Name == "time" && clock[sel.Sel.Name]:
			t.Errorf("%s: Optimize calls time.%s; clock reads belong to negObs", fset.Position(sel.Pos()), sel.Sel.Name)
		}
		return true
	})
}

// sentRFBs is a LocalSeller recording the width of every RFB the buyer's own
// node is sent: each query of Q once, in the iteration that added it.
type sentRFBs struct {
	inner   LocalSeller
	queries []int
}

func (s *sentRFBs) RequestBids(rfb trading.RFB) (trading.BidReply, error) {
	s.queries = append(s.queries, len(rfb.Queries))
	return s.inner.RequestBids(rfb)
}

// splitFederation is a buyer, athens, holding nothing, and two sellers of
// one relation r1 (four partitions of 500 rows): corfu holds p0 and p1,
// myconos p2 and p3. Each seller's first offer covers two partitions, so the
// analyser predicts that asking for them one by one pays, and it does:
// splitQuery negotiates over two iterations and improves in the second.
func splitFederation(t *testing.T) *federation {
	t.Helper()
	sch := chainSchema(1, 4, 500)
	def, _ := sch.Table("r1")
	f := &federation{sch: sch, net: netsim.New()}
	seller := func(id string, parts ...int) *node.Node {
		n := node.New(node.Config{ID: id, Schema: sch})
		for _, p := range parts {
			pid := fmt.Sprintf("p%d", p)
			if _, err := n.Store().CreateFragment(def, pid); err != nil {
				t.Fatal(err)
			}
			for k := p * 500; k < (p+1)*500; k++ {
				row := value.Row{value.NewInt(int64(k)), value.NewInt(int64(k % 7)), value.NewFloat(float64(k) / 10)}
				if err := n.Store().Insert("r1", pid, row); err != nil {
					t.Fatal(err)
				}
			}
		}
		f.net.Register(id, n)
		return n
	}
	f.athens, f.corfu, f.myc = seller("athens"), seller("corfu", 0, 1), seller("myconos", 2, 3)
	return f
}

const splitQuery = "SELECT r1.pk, r1.v FROM r1"

// TestQueriesAskedIsWhatWasSent pins Stats.QueriesAsked to the number of
// distinct queries the negotiation sent — the sum of the widths of the RFBs
// the buyer's own node was sent — on every exit of the loop, each named by
// the "stop" attribute of the optimize span and the ledger record: B7 by the
// paper's rule (neither the plan nor Q changed: nothing left to propose), B7
// by its predicted clause (the proposals priced, none beat the plan) and the
// iteration bound, where the analyser's last proposals are never sent.
func TestQueriesAskedIsWhatWasSent(t *testing.T) {
	for _, tc := range []struct {
		name    string
		fed     func(*testing.T) *federation
		sql     string
		maxIter int
		stop    string
	}{
		{"B7", splitFederation, splitQuery, 0, stopUnchanged},
		{"B7-predicted", func(t *testing.T) *federation { return buildFederation(t, nil) }, paperQuery, 0, stopPredicted},
		{"MaxIterations", splitFederation, splitQuery, 1, stopBound},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.fed(t)
			cfg := athensCfg(f)
			sent := &sentRFBs{inner: f.athens}
			cfg.Self = sent
			cfg.MaxIterations = tc.maxIter
			cfg.Tracer, cfg.Ledger = obs.NewTracer(), ledger.New(4)
			res, err := Optimize(cfg, &NetComm{Net: f.net, SelfID: "athens"}, tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			if hitBound := st.Iterations == cfg.withDefaults().MaxIterations; hitBound != (tc.stop == stopBound) {
				t.Fatalf("negotiation ran %d iterations: wrong exit for this case", st.Iterations)
			}
			if got := res.LedgerRec.Snapshot().Stop; got != tc.stop {
				t.Errorf("ledger record: stop=%q, want %q", got, tc.stop)
			}
			if roots := cfg.Tracer.Roots(); len(roots) != 1 || !hasAttr(roots[0], "stop", tc.stop) {
				t.Errorf("optimize span does not read stop=%s", tc.stop)
			}
			total := 0
			for _, w := range sent.queries {
				total += w
			}
			if st.QueriesAsked != total {
				t.Fatalf("QueriesAsked = %d, the buyer's own node was sent %d queries (RFB widths %v)", st.QueriesAsked, total, sent.queries)
			}
		})
	}
}

// TestSinksAgree runs one multi-iteration negotiation and its execution with
// every sink on and checks that spans, instruments, ledger events, Stats and
// the dossier tell the same story: they are all fed from the one observer.
func TestSinksAgree(t *testing.T) {
	f := splitFederation(t)
	cfg, rec := flightCfg(f)
	res := optimizeAndRunTraced(t, f, cfg, splitQuery)
	st := res.Stats
	if st.Iterations < 2 {
		t.Fatalf("want a multi-iteration negotiation, got %d", st.Iterations)
	}

	events := map[string][]ledger.Event{}
	for _, e := range res.LedgerRec.Snapshot().Events {
		events[e.Kind] = append(events[e.Kind], e)
	}
	var root *obs.Span
	for _, r := range cfg.Tracer.Roots() {
		if r.Name() == "optimize" {
			root = r
		}
	}
	iterations := findSpans(root, "iteration")
	if len(events[ledger.KindRFB]) != st.Iterations || len(iterations) != st.Iterations {
		t.Errorf("Iterations %d, rfb events %d, iteration spans %d",
			st.Iterations, len(events[ledger.KindRFB]), len(iterations))
	}

	rounds := events[ledger.KindRound]
	offers, protoRounds := 0, 0
	for _, e := range rounds {
		offers += e.Offers
		protoRounds += e.Rounds
	}
	received := cfg.Metrics.Counter("buyer.athens.offers_received").Value()
	if st.OffersReceived != offers || st.OffersReceived != len(events[ledger.KindBid]) || int64(st.OffersReceived) != received {
		t.Errorf("OffersReceived %d, round offers %d, bid events %d, counter %d",
			st.OffersReceived, offers, len(events[ledger.KindBid]), received)
	}
	if st.ProtocolRounds != protoRounds {
		t.Errorf("ProtocolRounds %d, round events sum to %d", st.ProtocolRounds, protoRounds)
	}

	lastPlangen := findSpans(iterations[len(iterations)-1], "plangen")
	if len(lastPlangen) != 1 {
		t.Fatalf("last iteration has %d plangen spans", len(lastPlangen))
	}
	gauge := cfg.Metrics.Gauge("buyer.athens.pool_size").Value()
	if lastRound := rounds[len(rounds)-1].Pool; st.PoolSize != lastRound || float64(st.PoolSize) != gauge ||
		!hasAttr(lastPlangen[0], "pool", strconv.Itoa(st.PoolSize)) || st.PoolSize != len(res.Pool) {
		t.Errorf("PoolSize %d, last round %d, gauge %v, last plangen span %v, Result.Pool %d",
			st.PoolSize, lastRound, gauge, lastPlangen[0].Attrs(), len(res.Pool))
	}

	if len(events[ledger.KindAward]) != len(res.Candidate.Offers) {
		t.Errorf("%d award events for %d purchased offers", len(events[ledger.KindAward]), len(res.Candidate.Offers))
	}
	quoted := map[string]float64{}
	for _, o := range res.Candidate.Offers {
		quoted[o.OfferID] = o.Props.TotalTime
	}
	fetches := events[ledger.KindFetch]
	if leaves := plan.Remotes(res.Candidate.Root); len(fetches) != len(leaves) {
		t.Errorf("%d fetch events for %d remote leaves", len(fetches), len(leaves))
	}
	for _, e := range fetches {
		if q, ok := quoted[e.OfferID]; !ok || e.QuotedMS != q {
			t.Errorf("fetch of %s quotes %v ms, the purchased offer %v (purchased: %v)", e.OfferID, e.QuotedMS, q, ok)
		}
	}

	h := cfg.Metrics.Histogram("buyer.athens.optimize_ms")
	if d := rec.Recent(1)[0]; h.Count() != 1 || d.OptimizeMS != h.Sum() || d.ID != res.LedgerRec.Snapshot().ID {
		t.Errorf("dossier %s OptimizeMS %v; optimize_ms holds %d samples summing to %v; ledger id %s",
			d.ID, d.OptimizeMS, h.Count(), h.Sum(), res.LedgerRec.Snapshot().ID)
	}
}

// TestEveryPhaseHasOneHistogram: a duration is kept once, by the metrics
// registry. One negotiation of the paper's query plus its execution, on a
// federation whose buyer bids on its own queries and one of whose sellers
// subcontracts, with one registry and one tracer on buyer and sellers: every
// phase histogram holds one sample per span of its phase, on the node that
// opened it, and none is empty.
func TestEveryPhaseHasOneHistogram(t *testing.T) {
	sch := telcoSchema()
	net := netsim.New()
	athens := buildNode(t, sch, "athens", []string{"athens"}, true, nil)
	myc := buildNode(t, sch, "myconos", []string{"myconos"}, true, nil)
	corfu := node.New(node.Config{ID: "corfu", Schema: sch, SubcontractPeers: func() map[string]trading.Peer {
		return map[string]trading.Peer{"myconos": net.Peer("corfu", "myconos")}
	}})
	cust, _ := sch.Table("customer")
	mustFrag(t, corfu, cust, "corfu")
	mustIns(t, corfu, "customer", "corfu", custRows["corfu"]...)
	inv, _ := sch.Table("invoiceline")
	mustFrag(t, corfu, inv, "p0")
	mustIns(t, corfu, "invoiceline", "p0", invRows...)
	m, tr := obs.NewMetrics(), obs.NewTracer()
	nodes := map[string]*node.Node{"athens": athens, "corfu": corfu, "myconos": myc}
	for id, n := range nodes {
		n.SetObs(tr, m)
		net.Register(id, n)
	}
	cfg := Config{ID: "athens", Schema: sch, Self: athens, Tracer: tr, Metrics: m}
	f := &federation{sch: sch, net: net, athens: athens, corfu: corfu, myc: myc}
	optimizeAndRunTraced(t, f, cfg, paperQuery)

	// spans counts by node and name every span of the run, grafted or not:
	// the sellers share the buyer's tracer, so each subtree is recorded once.
	type key struct{ node, name string }
	spans := map[key]int{}
	var walk func(sp *obs.Span, root bool)
	walk = func(sp *obs.Span, root bool) {
		name := sp.Name()
		switch {
		case root && name == "execute":
			name = "<execution>" // the buyer's; a seller's execute is an exchange under a fetch
		case strings.HasPrefix(name, "fetch ") && sp.Source() == "athens":
			name = "<fetch>" // one purchased answer's opening exchange
		case name == "rewrite" || name == "dp-pricing" && hasAttr(sp, "cache", "hit"):
			spans[key{sp.Source(), "<priced>"}]++ // a query priced: its rewrite ran, or the cache held it
		}
		if name != "dp-pricing" || !hasAttr(sp, "cache", "hit") { // a hit ran no DP
			spans[key{sp.Source(), name}]++
		}
		for _, c := range sp.Children() {
			walk(c, false)
		}
	}
	for _, r := range tr.Roots() {
		walk(r, true)
	}
	check := func(hist string, k key) {
		t.Helper()
		if c := m.Histogram(hist).Count(); c == 0 || c != int64(spans[k]) {
			t.Errorf("%s holds %d samples, %d %q spans on %s", hist, c, spans[k], k.name, k.node)
		}
	}
	for _, ph := range buyerPhases {
		check("buyer.athens."+ph.hist, key{"athens", ph.span})
	}
	check("buyer.athens.optimize_ms", key{"athens", "optimize"})
	check("buyer.athens.execute_ms", key{"athens", "<execution>"})
	check("buyer.athens.fetch_ms", key{"athens", "<fetch>"})
	for id := range nodes {
		for span, hist := range map[string]string{"rewrite": "rewrite_ms", "dp-pricing": "dp_ms", "subcontract": "subcontract_ms"} {
			if span == "subcontract" && id != "corfu" {
				continue // only corfu subcontracts
			}
			check("node."+id+"."+hist, key{id, span})
		}
		check("node."+id+".price_ms", key{id, "<priced>"})
	}
}
