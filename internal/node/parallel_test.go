package node

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"qtrade/internal/ledger"
	"qtrade/internal/obs"
	"qtrade/internal/plan"
	"qtrade/internal/trading"
	"qtrade/internal/value"
)

// telcoNodeCfg builds a myconos-style node with a configurable Config and a
// larger data set, so pricing is nontrivial for the parallel/cache tests.
func telcoNodeCfg(t testing.TB, edit func(*Config)) *Node {
	t.Helper()
	sch := telcoSchema()
	cfg := Config{ID: "myconos", Schema: sch}
	if edit != nil {
		edit(&cfg)
	}
	n := New(cfg)
	cust, _ := sch.Table("customer")
	inv, _ := sch.Table("invoiceline")
	if _, err := n.Store().CreateFragment(cust, "myconos"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Store().CreateFragment(inv, "p0"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := n.Store().Insert("customer", "myconos",
			value.Row{value.NewInt(int64(i)), value.NewStr(fmt.Sprintf("c%d", i)), value.NewStr("Myconos")},
		); err != nil {
			t.Fatal(err)
		}
		if err := n.Store().Insert("invoiceline", "p0",
			value.Row{value.NewInt(int64(100 + i)), value.NewInt(1), value.NewInt(int64(i)), value.NewFloat(float64(i % 13))},
		); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// wideRFB requests several distinct queries in one RFB.
func wideRFB(rfbID string, width int) trading.RFB {
	rfb := trading.RFB{RFBID: rfbID, BuyerID: "athens"}
	for i := 0; i < width; i++ {
		rfb.Queries = append(rfb.Queries, trading.QueryRequest{
			QID: fmt.Sprintf("q%d", i),
			SQL: fmt.Sprintf(`SELECT c.office, SUM(i.charge) AS total
				FROM customer c, invoiceline i
				WHERE c.custid = i.custid AND c.custid < %d
				GROUP BY c.office`, 5+5*i),
		})
	}
	return rfb
}

// TestParallelMatchesSerial pins that the pricing pool's size and caching
// change only wall-clock time: offers (ids, prices, props, order) must be
// byte-identical between a one-slot pool without a cache and wider pools
// with one.
func TestParallelMatchesSerial(t *testing.T) {
	rfb := wideRFB("rfb-par", 6)
	serial := telcoNodeCfg(t, func(c *Config) { c.PriceCacheSize = -1 })
	serial.pool = make(chan struct{}, 1)
	want, err := bidOffers(serial.RequestBids(rfb))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("serial node offered nothing")
	}
	for _, workers := range []int{2, 8} {
		par := telcoNodeCfg(t, nil)
		par.pool = make(chan struct{}, workers)
		got, err := bidOffers(par.RequestBids(rfb))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d offers differ from serial path:\nserial:   %+v\nparallel: %+v",
				workers, want, got)
		}
	}
}

// TestPriceCacheHitsAcrossIterations pins the cache's purpose: the buyer
// re-requests overlapping query sets under fresh RFBIDs each negotiation
// iteration, and the second iteration must hit.
func TestPriceCacheHitsAcrossIterations(t *testing.T) {
	m := obs.NewMetrics()
	n := telcoNodeCfg(t, nil)
	n.SetObs(nil, m)
	first, err := bidOffers(n.RequestBids(wideRFB("rfb-i1", 3)))
	if err != nil {
		t.Fatal(err)
	}
	if v := m.Counter("node.myconos.pricecache_hits").Value(); v != 0 {
		t.Fatalf("cold cache reported %d hits", v)
	}
	second, err := bidOffers(n.RequestBids(wideRFB("rfb-i2", 3)))
	if err != nil {
		t.Fatal(err)
	}
	if v := m.Counter("node.myconos.pricecache_hits").Value(); v != 3 {
		t.Fatalf("second iteration hit %d times, want 3", v)
	}
	// Same pricing work, so everything but the RFB-scoped ids must agree.
	if len(first) != len(second) {
		t.Fatalf("offer counts differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		a, b := first[i], second[i]
		a.OfferID, a.RFBID = "", ""
		b.OfferID, b.RFBID = "", ""
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("cached offer %d differs:\nfirst:  %+v\nsecond: %+v", i, a, b)
		}
	}
}

// TestPriceCacheInvalidatedByMutation is the stale-price test: inserting
// rows between iterations must miss the cache and re-price against the new
// statistics, matching a cold node holding the same final data.
func TestPriceCacheInvalidatedByMutation(t *testing.T) {
	m := obs.NewMetrics()
	n := telcoNodeCfg(t, nil)
	n.SetObs(nil, m)
	stale, err := bidOffers(n.RequestBids(wideRFB("rfb-m1", 2)))
	if err != nil {
		t.Fatal(err)
	}
	grow := func(node *Node) {
		for i := 0; i < 200; i++ {
			if err := node.Store().Insert("invoiceline", "p0",
				value.Row{value.NewInt(int64(1000 + i)), value.NewInt(2), value.NewInt(int64(i % 40)), value.NewFloat(1)},
			); err != nil {
				t.Fatal(err)
			}
		}
	}
	grow(n)
	fresh, err := bidOffers(n.RequestBids(wideRFB("rfb-m2", 2)))
	if err != nil {
		t.Fatal(err)
	}
	if v := m.Counter("node.myconos.pricecache_hits").Value(); v != 0 {
		t.Fatalf("mutation must invalidate the cache, got %d hits", v)
	}
	samePrices := true
	for i := range fresh {
		if fresh[i].Price != stale[i].Price || fresh[i].Props.Rows != stale[i].Props.Rows {
			samePrices = false
		}
	}
	if samePrices {
		t.Fatal("post-mutation offers identical to pre-mutation ones: stale prices served")
	}
	// A cold node holding the same final data must price identically.
	cold := telcoNodeCfg(t, nil)
	grow(cold)
	want, err := bidOffers(cold.RequestBids(wideRFB("rfb-m2", 2)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, fresh) {
		t.Fatalf("re-priced offers differ from cold pricing:\ncold: %+v\ngot:  %+v", want, fresh)
	}
}

// countingStrategy prices truthfully but counts Price calls, and can block
// the first pricing mid-flight to stage a retry race.
type countingStrategy struct {
	mu      sync.Mutex
	calls   int
	started chan struct{} // closed when the first Price call begins
	gate    chan struct{} // first Price call blocks until this closes
	blocked bool
}

func (s *countingStrategy) Price(_ string, truth float64) float64 {
	s.mu.Lock()
	s.calls++
	first := s.calls == 1
	s.mu.Unlock()
	if first && s.gate != nil {
		close(s.started)
		<-s.gate
	}
	return truth
}

func (s *countingStrategy) Improve(_ string, current, _, _ float64) (float64, bool) {
	return current, false
}

func (s *countingStrategy) Observe(string, bool) {}

func (s *countingStrategy) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// peakStrategy prices truthfully and records the most Price calls in flight
// at once. With meet set, a call waits until a second one is in flight
// beside it; after one timeout nobody waits any more.
type peakStrategy struct {
	mu             sync.Mutex
	inflight, peak int
	meet           bool
	met            chan struct{} // closed once two calls are in flight
	timedOut       bool
}

func (s *peakStrategy) Price(_ string, truth float64) float64 {
	s.mu.Lock()
	s.inflight++
	s.peak = max(s.peak, s.inflight)
	if s.inflight == 2 && s.meet {
		s.meet = false
		close(s.met)
	}
	wait := s.meet
	s.mu.Unlock()
	if wait {
		select {
		case <-s.met:
		case <-time.After(10 * time.Second):
			s.mu.Lock()
			s.timedOut, s.meet = true, false
			s.mu.Unlock()
		}
	}
	s.mu.Lock()
	s.inflight--
	s.mu.Unlock()
	return truth
}

func (s *peakStrategy) Improve(_ string, current, _, _ float64) (float64, bool) {
	return current, false
}

func (s *peakStrategy) Observe(string, bool) {}

// TestParallelPricingOverlapsQueries: an RFB's queries are priced side by
// side on the pricing pool, and one at a time with a one-slot pool. A pricing
// that blocks until a second one starts proves the overlap without a clock.
func TestParallelPricingOverlapsQueries(t *testing.T) {
	for _, tc := range []struct {
		workers int
		meet    bool
	}{{4, true}, {1, false}} {
		strat := &peakStrategy{meet: tc.meet, met: make(chan struct{})}
		n := telcoNodeCfg(t, func(c *Config) { c.Strategy = strat })
		n.pool = make(chan struct{}, tc.workers)
		offers, err := bidOffers(n.RequestBids(wideRFB("rfb-peak", 4)))
		if err != nil || len(offers) == 0 {
			t.Fatalf("workers=%d: %d offers, %v", tc.workers, len(offers), err)
		}
		switch {
		case strat.timedOut:
			t.Fatalf("workers=%d: no second pricing started while the first waited", tc.workers)
		case tc.workers > 1 && strat.peak < 2:
			t.Fatalf("workers=%d: at most %d pricings in flight, want >= 2", tc.workers, strat.peak)
		case tc.workers == 1 && strat.peak != 1:
			t.Fatalf("workers=1: %d pricings in flight at once, want 1", strat.peak)
		}
	}
}

// TestRequestBidsIdempotentRepeat pins that re-sending an already-answered
// RFBID returns the same offers without re-pricing.
func TestRequestBidsIdempotentRepeat(t *testing.T) {
	m := obs.NewMetrics()
	strat := &countingStrategy{}
	n := telcoNodeCfg(t, func(c *Config) { c.Strategy = strat })
	n.SetObs(nil, m)
	rfb := wideRFB("rfb-idem", 3)
	first, err := bidOffers(n.RequestBids(rfb))
	if err != nil {
		t.Fatal(err)
	}
	priced := strat.count()
	again, err := bidOffers(n.RequestBids(rfb))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatal("repeated RFBID returned different offers")
	}
	if strat.count() != priced {
		t.Fatalf("repeat re-priced: %d strategy calls after, %d before", strat.count(), priced)
	}
	if v := m.Counter("node.myconos.pricings_coalesced").Value(); v != 3 {
		t.Fatalf("coalesced %d pricings, want 3", v)
	}
}

// TestRetryCoalescesWithAbandonedAttempt stages the fault-layer race from
// trading's retry machinery: a retry of the same RFB arrives while the
// abandoned first attempt is still pricing. The retry must coalesce onto the
// in-flight work — equal offers, the pricing work done once.
func TestRetryCoalescesWithAbandonedAttempt(t *testing.T) {
	// Reference: how many Price calls one clean pricing of the RFB costs.
	ref := &countingStrategy{}
	refNode := telcoNodeCfg(t, func(c *Config) { c.Strategy = ref })
	rfb := wideRFB("rfb-race", 1)
	if _, err := refNode.RequestBids(rfb); err != nil {
		t.Fatal(err)
	}

	m := obs.NewMetrics()
	strat := &countingStrategy{started: make(chan struct{}), gate: make(chan struct{})}
	n := telcoNodeCfg(t, func(c *Config) { c.Strategy = strat })
	n.SetObs(nil, m)
	type res struct {
		offers []trading.Offer
		err    error
	}
	firstCh := make(chan res, 1)
	go func() {
		offers, err := bidOffers(n.RequestBids(rfb))
		firstCh <- res{offers, err}
	}()
	<-strat.started // first attempt is mid-pricing and now stalled
	retryCh := make(chan res, 1)
	go func() {
		offers, err := bidOffers(n.RequestBids(rfb))
		retryCh <- res{offers, err}
	}()
	// Give the retry a moment to reach the single-flight gate, then release
	// the stalled first attempt.
	time.Sleep(10 * time.Millisecond)
	close(strat.gate)
	first, retry := <-firstCh, <-retryCh
	if first.err != nil || retry.err != nil {
		t.Fatalf("errors: %v / %v", first.err, retry.err)
	}
	if !reflect.DeepEqual(first.offers, retry.offers) {
		t.Fatalf("retry and first attempt diverged:\nfirst: %+v\nretry: %+v", first.offers, retry.offers)
	}
	if got, want := strat.count(), ref.count(); got != want {
		t.Fatalf("pricing ran %d strategy calls, a single run costs %d: work duplicated", got, want)
	}
	if v := m.Counter("node.myconos.pricings_coalesced").Value(); v != 1 {
		t.Fatalf("coalesced %d pricings, want 1", v)
	}
}

// TestEndNegotiationDropsFlightState pins that dropping an RFB's record frees
// its single-flight memo: a later identical RFBID re-prices from scratch.
func TestEndNegotiationDropsFlightState(t *testing.T) {
	strat := &countingStrategy{}
	n := telcoNodeCfg(t, func(c *Config) { c.Strategy = strat })
	rfb := wideRFB("rfb-end", 2)
	if _, err := n.RequestBids(rfb); err != nil {
		t.Fatal(err)
	}
	priced := strat.count()
	n.RevokeStandingOffers()
	if _, err := n.RequestBids(rfb); err != nil {
		t.Fatal(err)
	}
	if strat.count() == priced {
		t.Fatal("flight state survived RevokeStandingOffers; RFB was not re-priced")
	}
}

// TestPriceCacheRemembersFailedRewrite: a query this node cannot serve (it
// holds no Corfu customers) fails the seller rewrite once; the repeat RFB is
// answered from the negative entry — a cache hit, reported as such to the
// ledger, with no second rewrite. Creating the missing fragment ticks the
// store epoch, so the same request is priced for real.
func TestPriceCacheRemembersFailedRewrite(t *testing.T) {
	m := obs.NewMetrics()
	led := ledger.New(8)
	n := telcoNodeCfg(t, nil)
	n.SetObs(nil, m)
	n.SetLedger(led)
	ask := func(rfbID string) []trading.Offer {
		t.Helper()
		offers, err := bidOffers(n.RequestBids(trading.RFB{RFBID: rfbID, BuyerID: "athens",
			Queries: []trading.QueryRequest{{QID: "q0", SQL: "SELECT c.custid, c.custname FROM customer c WHERE c.office = 'Corfu'"}}}))
		if err != nil {
			t.Fatal(err)
		}
		return offers
	}
	rewrites := m.Histogram("node.myconos.rewrite_ms")
	hits := m.Counter("node.myconos.pricecache_hits")
	if got := ask("rfb-n1"); len(got) != 0 || rewrites.Count() != 1 || hits.Value() != 0 {
		t.Fatalf("first request: %d offers, %d rewrites, %d hits; want 0, 1, 0", len(got), rewrites.Count(), hits.Value())
	}
	if got := ask("rfb-n2"); len(got) != 0 || rewrites.Count() != 1 || hits.Value() != 1 {
		t.Fatalf("repeat request: %d offers, %d rewrites, %d hits; want 0, 1, 1", len(got), rewrites.Count(), hits.Value())
	}
	priced := 0
	for _, neg := range led.Negotiations(0) {
		for _, e := range neg.Events {
			if e.Kind != ledger.KindPriced {
				continue
			}
			priced++
			if e.CacheHit != (neg.ID == "rfb-n2") {
				t.Fatalf("negotiation %s: priced event cached=%v", neg.ID, e.CacheHit)
			}
		}
	}
	if priced != 2 {
		t.Fatalf("ledger holds %d priced events, want 2", priced)
	}

	cust, _ := n.cfg.Schema.Table("customer")
	if _, err := n.Store().CreateFragment(cust, "corfu"); err != nil {
		t.Fatal(err)
	}
	if err := n.Store().Insert("customer", "corfu",
		value.Row{value.NewInt(900), value.NewStr("zoe"), value.NewStr("Corfu")}); err != nil {
		t.Fatal(err)
	}
	if got := ask("rfb-n3"); len(got) == 0 || rewrites.Count() != 2 {
		t.Fatalf("after creating the fragment: %d offers, %d rewrites; want some, 2", len(got), rewrites.Count())
	}
}

// TestSellerRefusesUnknownColumns: S1 refuses a query naming a column the
// node's catalog lacks — a qualifier naming no FROM relation, a qualified
// column missing from its table, a bare name that is no select-list alias
// (unknown or ambiguous) — before any rewrite, and remembers the refusal as a
// failed text. A select-list alias is a name, and a relation the catalog
// does not know is left to the rewrite, which finds nothing local.
func TestSellerRefusesUnknownColumns(t *testing.T) {
	for _, c := range []struct {
		sql    string
		refuse bool
	}{
		{"SELECT c.custnme FROM customer c", true},
		{"SELECT c.custname FROM customer c WHERE c.ofice = 'Myconos'", true},
		{"SELECT x.custname FROM customer c", true},
		{"SELECT customer.custname FROM customer c", true},
		{"SELECT custnme FROM customer c", true},
		{"SELECT c.custname FROM customer c ORDER BY nme", true},
		{"SELECT c.custname, i.charge FROM customer c, invoiceline i WHERE custid = 3", true},
		{"SELECT c.custname AS nm FROM customer c ORDER BY nm", false},
		{"SELECT custname FROM customer c WHERE office = 'Myconos'", false},
		{"SELECT g.x, y FROM ghost g", false},
	} {
		m := obs.NewMetrics()
		n := telcoNodeCfg(t, nil)
		n.SetObs(nil, m)
		rfb := trading.RFB{RFBID: "r", BuyerID: "athens", Queries: []trading.QueryRequest{{QID: "q0", SQL: c.sql}}}
		offers, err := bidOffers(n.RequestBids(rfb))
		if err != nil {
			t.Fatal(err)
		}
		e, ok := n.prices.Get(n.generation(), c.sql)
		if !ok {
			t.Fatalf("%s: no price-cache entry", c.sql)
		}
		refused := errors.Is(e.Err, plan.ErrUnknownColumn)
		rewrites := m.Histogram("node.myconos.rewrite_ms").Count()
		if refused != c.refuse || refused && (len(offers) > 0 || rewrites > 0) {
			t.Errorf("%s: refused %v (%v) with %d offers after %d rewrites, want refused %v", c.sql, refused, e.Err, len(offers), rewrites, c.refuse)
		}
	}
}

// TestPriceCacheHitReadsNothing: the cache is asked with the text as it
// arrived, so pricing a query a second time neither parses, qualifies, rewrites,
// drafts nor prints anything — a map lookup, then S3 over the entry's drafts —
// and still mints the very same offers, on the very same plans. Another
// formatting of the query is its own entry with the same offers; a text that
// does not parse is remembered as a failed rewrite is.
func TestPriceCacheHitReadsNothing(t *testing.T) {
	m := obs.NewMetrics()
	n := telcoNodeCfg(t, nil)
	n.SetObs(nil, m)
	x := step{nodeObs: n.observer()} // an unsampled request's
	hits, misses := m.Counter("node.myconos.pricecache_hits"), m.Counter("node.myconos.pricecache_misses")
	rfb := trading.RFB{RFBID: "rfb-h", BuyerID: "athens"}
	qr := trading.QueryRequest{QID: "q0", SQL: `SELECT c.custname, i.charge
		FROM customer c, invoiceline i
		WHERE c.custid = i.custid AND c.custid < 10 AND i.charge > 2`}
	price := func(sql string) ([]standingOffer, bool) {
		return n.priceQuery(rfb, trading.QueryRequest{QID: qr.QID, SQL: sql}, x)
	}

	first, cached := price(qr.SQL)
	if cached || len(first) == 0 || hits.Value() != 0 || misses.Value() != 1 {
		t.Fatalf("first pricing: %d offers, cached %v, %d hits, %d misses", len(first), cached, hits.Value(), misses.Value())
	}
	second, cached := price(qr.SQL)
	if !cached || hits.Value() != 1 || !reflect.DeepEqual(first, second) {
		t.Fatalf("second pricing: cached %v, %d hits, offers\n%+v\nwant\n%+v", cached, hits.Value(), second, first)
	}
	// A hit is mint and nothing else: per offer an id, and for the lot the book
	// and the sort — 9 allocations for these three offers, and 10 for the four of
	// an aggregate query (the fourth its partial aggregate), where a full pricing
	// takes over 600.
	cold := telcoNodeCfg(t, func(c *Config) { c.PriceCacheSize = -1 })
	for _, sql := range []string{qr.SQL, wideRFB("", 1).Queries[0].SQL} {
		minted, _ := price(sql)
		miss := testing.AllocsPerRun(20, func() {
			cold.priceQuery(rfb, trading.QueryRequest{QID: qr.QID, SQL: sql}, step{nodeObs: cold.observer()})
		})
		hit := testing.AllocsPerRun(20, func() { price(sql) })
		if budget := float64(4*len(minted) + 8); len(minted) < 3 || hit > budget || hit*10 > miss {
			t.Fatalf("a hit minting %d offers allocates %.0f times (budget %.0f, a miss %.0f): something is read or drafted again",
				len(minted), hit, budget, miss)
		}
	}

	reformatted := strings.Join(strings.Fields(qr.SQL), " ")
	h, ms := hits.Value(), misses.Value()
	if got, cached := price(reformatted); cached || misses.Value() != ms+1 || !reflect.DeepEqual(first, got) {
		t.Fatalf("another formatting: cached %v, %d new misses, offers\n%+v\nwant\n%+v", cached, misses.Value()-ms, got, first)
	}
	if got, cached := price(reformatted); !cached || hits.Value() != h+1 || !reflect.DeepEqual(first, got) {
		t.Fatalf("another formatting, again: cached %v, %d new hits", cached, hits.Value()-h)
	}

	h, ms = hits.Value(), misses.Value()
	if got, cached := price("SELECT FROM WHERE"); cached || len(got) != 0 || misses.Value() != ms+1 {
		t.Fatalf("unparsable text: %d offers, cached %v, %d new misses", len(got), cached, misses.Value()-ms)
	}
	if got, cached := price("SELECT FROM WHERE"); !cached || len(got) != 0 || hits.Value() != h+1 {
		t.Fatalf("unparsable text, again: %d offers, cached %v, %d new hits", len(got), cached, hits.Value()-h)
	}
}

// BenchmarkPriceQuery is one requested query through S1–S3: answered from the
// price cache, computed in full, and refused from a negative entry — also
// after the priced LRU was filled to its capacity, which must not have
// evicted it.
func BenchmarkPriceQuery(b *testing.B) {
	rfb := wideRFB("rfb-b", 1)
	nothingLocal := trading.QueryRequest{QID: "q0", SQL: "SELECT c.custid, c.custname FROM customer c WHERE c.office = 'Corfu'"}
	for _, bc := range []struct {
		name   string
		size   int
		qr     trading.QueryRequest
		offers bool
		fill   bool // price 256 other texts after the first pricing
	}{
		{"hit", 0, rfb.Queries[0], true, false},
		{"miss", -1, rfb.Queries[0], true, false},
		{"negative", 0, nothingLocal, false, false},
		{"negative-full", 0, nothingLocal, false, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			n := telcoNodeCfg(b, func(c *Config) { c.PriceCacheSize = bc.size })
			x := step{nodeObs: n.observer()}
			n.priceQuery(rfb, bc.qr, x)
			if bc.fill {
				for i := range 256 {
					sql := fmt.Sprintf("SELECT c.custname FROM customer c WHERE c.custid < %d", i+1)
					if offers, _ := n.priceQuery(rfb, trading.QueryRequest{QID: "q0", SQL: sql}, x); len(offers) == 0 {
						b.Fatalf("%s: no offers", sql)
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				offers, cached := n.priceQuery(rfb, bc.qr, x)
				if (len(offers) > 0) != bc.offers {
					b.Fatalf("%d offers", len(offers))
				}
				if cached != (bc.size >= 0) {
					b.Fatalf("answered from the price cache: %v, want %v", cached, bc.size >= 0)
				}
			}
		})
	}
}
