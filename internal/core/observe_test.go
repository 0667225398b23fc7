package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"

	"qtrade/internal/ledger"
	"qtrade/internal/obs"
	"qtrade/internal/plan"
	"qtrade/internal/trading"
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
	sinks := map[string]bool{"Tracer": true, "Sampling": true, "Metrics": true, "Ledger": true, "Flight": true}
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

// sentRFBs is a LocalSeller recording the width of every RFB the buyer
// issues (the RFB the local seller sees is the one the peers were sent).
type sentRFBs struct {
	inner   LocalSeller
	queries []int
}

func (s *sentRFBs) RequestBids(rfb trading.RFB) (trading.BidReply, error) {
	s.queries = append(s.queries, len(rfb.Queries))
	return s.inner.RequestBids(rfb)
}

// TestQueriesAskedIsWhatWasSent pins Stats.QueriesAsked to the last RFB that
// actually went out, on both exits of the loop: B7 (neither the plan nor Q
// changed) and the iteration bound, where the analyser's last proposals are
// never sent.
func TestQueriesAskedIsWhatWasSent(t *testing.T) {
	for _, tc := range []struct {
		name    string
		maxIter int
		bounded bool
	}{{"B7", 0, false}, {"MaxIterations", 1, true}} {
		t.Run(tc.name, func(t *testing.T) {
			f := buildFederation(t, nil)
			cfg := athensCfg(f)
			sent := &sentRFBs{inner: f.athens}
			cfg.Self = sent
			cfg.MaxIterations = tc.maxIter
			res, err := Optimize(cfg, &NetComm{Net: f.net, SelfID: "athens"}, paperQuery)
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			if hitBound := st.Iterations == cfg.withDefaults().MaxIterations; hitBound != tc.bounded {
				t.Fatalf("negotiation ran %d iterations: wrong exit for this case", st.Iterations)
			}
			if len(sent.queries) != st.Iterations {
				t.Fatalf("%d RFBs seen for %d iterations", len(sent.queries), st.Iterations)
			}
			if last := sent.queries[len(sent.queries)-1]; st.QueriesAsked != last {
				t.Fatalf("QueriesAsked = %d, the last RFB carried %d (RFB widths %v)", st.QueriesAsked, last, sent.queries)
			}
		})
	}
}

// TestSinksAgree runs one multi-iteration negotiation and its execution with
// every sink on and checks that spans, instruments, ledger events, Stats and
// the dossier tell the same story: they are all fed from the one observer.
func TestSinksAgree(t *testing.T) {
	f := buildFederation(t, nil)
	cfg, rec := flightCfg(f)
	res := optimizeAndRunTraced(t, f, cfg, paperQuery)
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
