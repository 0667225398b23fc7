package qtrade

// Integration tests for the observability surface: span-tree shape of a
// traced negotiation, Chrome trace export validity, EXPLAIN ANALYZE actuals,
// the metrics registry under concurrent optimizations, and the per-peer
// network breakdown.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"qtrade/internal/obs"
)

// collectSpans returns every span named name in the subtree rooted at sp.
func collectSpans(sp *obs.Span, name string) []*obs.Span {
	var out []*obs.Span
	if sp.Name() == name {
		out = append(out, sp)
	}
	for _, c := range sp.Children() {
		out = append(out, collectSpans(c, name)...)
	}
	return out
}

func collectAll(tr *obs.Tracer, name string) []*obs.Span {
	var out []*obs.Span
	for _, r := range tr.Roots() {
		out = append(out, collectSpans(r, name)...)
	}
	return out
}

func tracerOf(t *testing.T, p *Plan) *obs.Tracer {
	t.Helper()
	if p.tracer == nil {
		t.Fatal("plan optimized with WithTrace has no tracer")
	}
	return p.tracer
}

// buildSplitFed is a buyer, hq, and two sellers of one relation r (four
// partitions of 500 rows): corfu holds p0 and p1, myconos p2 and p3. Each
// seller's first offer covers two partitions, so the buyer asks for them one
// by one in a second iteration.
func buildSplitFed() *Federation {
	sch := NewSchema()
	sch.MustTable("r", Col("pk", Int), Col("v", Float))
	sch.MustPartition("r", Part("p0", "pk < 500"), Part("p1", "pk >= 500 AND pk < 1000"),
		Part("p2", "pk >= 1000 AND pk < 1500"), Part("p3", "pk >= 1500"))
	fed := NewFederation(sch)
	for id, parts := range map[string][]int{"corfu": {0, 1}, "myconos": {2, 3}} {
		n := fed.MustAddNode(id)
		for _, p := range parts {
			pid := fmt.Sprintf("p%d", p)
			n.MustCreateFragment("r", pid)
			for k := p * 500; k < (p+1)*500; k++ {
				n.MustInsert("r", pid, Row(k, float64(k)/10))
			}
		}
	}
	fed.MustAddNode("hq")
	return fed
}

func TestTraceSpanTreeShape(t *testing.T) {
	fed := buildSplitFed()
	p, err := fed.Optimize("hq", "SELECT r.pk, r.v FROM r", WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	tr := tracerOf(t, p)

	// One buyer-side root covering the whole optimization.
	var root *obs.Span
	for _, r := range tr.Roots() {
		if r.Name() == "optimize" {
			root = r
		}
	}
	if root == nil {
		t.Fatal("no optimize root span")
	}
	if root.Source() != "hq" {
		t.Fatalf("optimize root on track %q, want hq", root.Source())
	}

	// The negotiation ran at least two trading iterations (B2..B7 loop),
	// and the tree shows exactly one iteration span per Stats iteration.
	iters := collectSpans(root, "iteration")
	if p.Iterations() < 2 {
		t.Fatalf("expected a multi-iteration negotiation, got %d", p.Iterations())
	}
	if len(iters) != p.Iterations() {
		t.Fatalf("iteration spans %d != Stats.Iterations %d", len(iters), p.Iterations())
	}

	// Each iteration fans out RFBs through protocol rounds.
	for i, it := range iters {
		neg := collectSpans(it, "negotiate")
		if len(neg) != 1 {
			t.Fatalf("iteration %d: %d negotiate spans", i, len(neg))
		}
		rounds := collectSpans(neg[0], "round")
		if len(rounds) == 0 {
			t.Fatalf("iteration %d: no protocol round spans", i)
		}
		if len(collectSpans(it, "plangen")) != 1 {
			t.Fatalf("iteration %d: missing plangen span", i)
		}
	}

	// Per-seller RFB fan-out inside the rounds.
	if len(collectAll(tr, "rfb corfu")) == 0 && len(collectAll(tr, "rfb myconos")) == 0 {
		t.Fatal("no per-seller rfb spans inside protocol rounds")
	}

	// Seller-side pricing ships back with the offers and is grafted under
	// the buyer's per-seller rfb spans: one federation-wide tree, with the
	// sellers' rewrite and DP pricing nested inside (marked remote=true).
	sellerRoots := collectSpans(root, "request-bids")
	if len(sellerRoots) == 0 {
		t.Fatal("no seller-side request-bids spans grafted into the buyer tree")
	}
	var rewrites, pricings, remotes, foreign int
	for _, r := range sellerRoots {
		if r.Source() != "hq" {
			foreign++ // a real peer's pricing, not the buyer's self-bid
		}
		for _, a := range r.Attrs() {
			if a.Key == "remote" && a.Val == "true" {
				remotes++
			}
		}
		rewrites += len(collectSpans(r, "rewrite"))
		pricings += len(collectSpans(r, "dp-pricing"))
	}
	if foreign == 0 {
		t.Fatal("no remote-seller request-bids spans grafted into the buyer tree")
	}
	if remotes != len(sellerRoots) {
		t.Fatalf("grafted seller spans missing remote=true: %d of %d", remotes, len(sellerRoots))
	}
	if rewrites == 0 || pricings == 0 {
		t.Fatalf("seller spans missing rewrite (%d) or dp-pricing (%d)", rewrites, pricings)
	}

	// The award phase closes the tree.
	if len(collectSpans(root, "award")) != 1 {
		t.Fatal("missing award span")
	}
}

// TestSampleNeverWireBytesIdentical pins the wire cost of tracing: a traced
// negotiation sends exactly the messages an untraced one does, and pays bytes
// only for its piggybacked span payloads — an untraced message carries the
// zero trace context, which costs nothing.
func TestSampleNeverWireBytesIdentical(t *testing.T) {
	run := func(opts ...OptimizeOption) (int64, int64) {
		fed := buildBenchFed()
		p, err := fed.Optimize("hq", benchTotalsQuery, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(); err != nil {
			t.Fatal(err)
		}
		return fed.NetworkStats()
	}
	plainMsgs, plainBytes := run()
	tracedMsgs, tracedBytes := run(WithTrace())
	if tracedMsgs != plainMsgs {
		t.Fatalf("tracing must not add messages: %d vs %d", tracedMsgs, plainMsgs)
	}
	if tracedBytes <= plainBytes {
		t.Fatalf("traced run must account trace payload bytes: %d vs %d", tracedBytes, plainBytes)
	}
}

// TestTraceSamplingPolicies pins the one trace policy end to end: an
// untraced optimization retains no spans and ships no trace context, and
// every traced one ships it and keeps the federation-wide tree.
func TestTraceSamplingPolicies(t *testing.T) {
	fed := buildBenchFed()

	p, err := fed.Optimize("hq", benchTotalsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if p.Trace().Text() != "" || p.res.TraceCtx.Sampled {
		t.Fatalf("an untraced optimization must retain and ship nothing:\n%s", p.Trace().Text())
	}
	for i := 0; i < 3; i++ {
		p, err = fed.Optimize("hq", benchTotalsQuery, WithTrace())
		if err != nil {
			t.Fatal(err)
		}
		if txt := p.Trace().Text(); !p.res.TraceCtx.Sampled || !strings.Contains(txt, "dp-pricing") || !strings.Contains(txt, "remote=true") {
			t.Fatalf("a traced optimization must keep the federation-wide tree:\n%s", txt)
		}
	}
}

func TestTraceChromeExportValid(t *testing.T) {
	fed := buildBenchFed()
	p, err := fed.Optimize("hq", benchTotalsQuery, WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Trace().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid Chrome trace JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	names := map[string]bool{}
	tracks := map[string]bool{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			if e.TS < 0 || e.Dur < 1 {
				t.Fatalf("event %q has ts=%v dur=%v", e.Name, e.TS, e.Dur)
			}
			names[e.Name] = true
		case "M":
			if n, ok := e.Args["name"].(string); ok {
				tracks[n] = true
			}
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	for _, want := range []string{"optimize", "iteration", "request-bids", "dp-pricing"} {
		if !names[want] {
			t.Fatalf("trace missing %q events (have %v)", want, names)
		}
	}
	// Buyer and sellers render as separate named tracks.
	if !tracks["hq"] || !tracks["corfu"] || !tracks["myconos"] {
		t.Fatalf("missing per-node tracks: %v", tracks)
	}
}

func TestUntracedPlanHasEmptyTrace(t *testing.T) {
	fed := buildBenchFed()
	p, err := fed.Optimize("hq", benchTotalsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if txt := p.Trace().Text(); txt != "" {
		t.Fatalf("untraced plan rendered spans: %q", txt)
	}
	var buf bytes.Buffer
	if err := p.Trace().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("empty trace not valid JSON: %s", buf.String())
	}
}

func TestExplainAnalyzeShowsActuals(t *testing.T) {
	fed := buildBenchFed()
	p, err := fed.Optimize("hq", benchTotalsQuery)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.ExplainAnalyze()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "est rows=") {
		t.Fatalf("no estimates in:\n%s", out)
	}
	if !strings.Contains(out, "actual rows=") {
		t.Fatalf("no actuals in:\n%s", out)
	}
	if strings.Contains(out, "not executed") {
		t.Fatalf("operators left unexecuted in:\n%s", out)
	}
	if !strings.Contains(out, "time=") {
		t.Fatalf("no operator timings in:\n%s", out)
	}
}

// TestMetricsUnderConcurrentOptimizations exercises the shared registry from
// many goroutines (meaningful under -race) and checks the counters add up.
func TestMetricsUnderConcurrentOptimizations(t *testing.T) {
	fed := buildBenchFed()
	const workers, runs = 8, 3
	var wg sync.WaitGroup
	errs := make(chan error, workers*runs)
	for w := 0; w < workers; w++ {
		traced := w%2 == 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				opts := []OptimizeOption{}
				if traced {
					opts = append(opts, WithTrace())
				}
				if _, err := fed.Optimize("hq", benchTotalsQuery, opts...); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	snap := fed.MetricsSnapshot()
	got := metricValue(t, snap, "buyer.hq.optimizations")
	if got != workers*runs {
		t.Fatalf("buyer.hq.optimizations = %d, want %d", got, workers*runs)
	}
	if metricValue(t, snap, "node.corfu.offers_priced") == 0 {
		t.Fatalf("no seller pricing counted in:\n%s", snap)
	}
	if !strings.Contains(snap, "net.hq->corfu") {
		t.Fatalf("no per-link network lines in:\n%s", snap)
	}
}

// metricValue extracts an integer metric from a Snapshot rendering.
func metricValue(t *testing.T, snap, name string) int {
	t.Helper()
	for _, line := range strings.Split(snap, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.Atoi(fields[1])
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not in snapshot:\n%s", name, snap)
	return 0
}

func TestNetworkStatsByPeerMatchesAggregate(t *testing.T) {
	fed := buildBenchFed()
	if _, err := fed.Query("hq", benchTotalsQuery); err != nil {
		t.Fatal(err)
	}
	pairs := fed.NetworkStatsByPeer()
	if len(pairs) == 0 {
		t.Fatal("no per-peer traffic recorded")
	}
	var msgs, bytes int64
	seenFromBuyer := false
	for _, pt := range pairs {
		msgs += pt.Messages
		bytes += pt.Bytes
		if pt.From == "hq" {
			seenFromBuyer = true
		}
	}
	am, ab := fed.NetworkStats()
	if msgs != am || bytes != ab {
		t.Fatalf("pair sums %d/%d != aggregate %d/%d", msgs, bytes, am, ab)
	}
	if !seenFromBuyer {
		t.Fatalf("no hq-originated link in %v", pairs)
	}
	fed.ResetNetworkStats()
	if len(fed.NetworkStatsByPeer()) != 0 {
		t.Fatal("ResetNetworkStats must clear the breakdown")
	}
}

// TestMetricsSnapshotPriceCache pins that the sellers' price-cache counters
// surface through Federation.MetricsSnapshot (and hence qtsql's \metrics):
// repeating an optimization re-requests the same seller queries, so the
// second run must record cache hits.
func TestMetricsSnapshotPriceCache(t *testing.T) {
	fed := buildFed(t)
	for i := 0; i < 2; i++ {
		if _, err := fed.Optimize("hq", totalsQuery); err != nil {
			t.Fatal(err)
		}
	}
	snap := fed.MetricsSnapshot()
	var hits, misses int
	for _, id := range []string{"corfu", "myconos", "athens"} {
		hits += metricValue(t, snap, "node."+id+".pricecache_hits")
		misses += metricValue(t, snap, "node."+id+".pricecache_misses")
	}
	if misses == 0 {
		t.Fatalf("no cache misses counted on the first run in:\n%s", snap)
	}
	if hits == 0 {
		t.Fatalf("repeated optimization reported a zero cache hit rate in:\n%s", snap)
	}
}

// BenchmarkOptimizeTelcoTraced is BenchmarkOptimizeTelco with tracing on;
// comparing the two bounds the tracing overhead. The untraced benchmark is
// the guard that the instrumentation itself stays free when disabled (see
// also obs.TestDisabledPathAllocs proving the nil paths allocate nothing).
func BenchmarkOptimizeTelcoTraced(b *testing.B) {
	fedB := buildBenchFed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fedB.Optimize("hq", benchTotalsQuery, WithTrace()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTracedPlanHoldsOnlyItsOwnRoots: tracing one plan touches no node, so a
// traced plan's tracer holds its own optimize and execute roots and nothing
// of the untraced buyers negotiating and executing beside it.
func TestTracedPlanHoldsOnlyItsOwnRoots(t *testing.T) {
	fed := buildBenchFed()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for _, buyer := range []string{"corfu", "myconos"} {
		wg.Add(1)
		go func(buyer string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := fed.Query(buyer, benchTotalsQuery); err != nil {
					t.Error(err)
					return
				}
			}
		}(buyer)
	}
	for i := 0; i < 20; i++ {
		p, err := fed.Optimize("hq", benchTotalsQuery, WithTrace())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(); err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, r := range tracerOf(t, p).Roots() {
			if r.Source() != "hq" {
				t.Fatalf("plan %d: stray root %q from %s", i, r.Name(), r.Source())
			}
			names = append(names, r.Name())
		}
		if strings.Join(names, ",") != "optimize,execute" {
			t.Fatalf("plan %d: roots %v, want optimize then execute", i, names)
		}
	}
}
