package core

import (
	"fmt"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"qtrade/internal/exec"
	"qtrade/internal/netsim"
	"qtrade/internal/plan"
	"qtrade/internal/trading"
)

// rfbNum extracts the global sequence numbers minted for a run's RFB ids so
// canonPool can rewrite them to per-run iteration indexes: two otherwise
// identical optimizations never share absolute rfb numbers (the sequence is
// process-global), so byte comparison must happen modulo that numbering.
var rfbNum = regexp.MustCompile(`-rfb(\d+)`)

// canonPool renders an offer pool as canonical bytes: rfb sequence numbers
// are replaced by their per-run rank, map-valued fields are serialized in
// sorted order, and the canonical offer lines themselves are sorted. Two
// runs of the same negotiation must produce equal canonical pools whatever
// the fan-out interleaving.
func canonPool(t *testing.T, offers []trading.Offer) string {
	t.Helper()
	nums := map[int]bool{}
	for _, o := range offers {
		for _, m := range rfbNum.FindAllStringSubmatch(o.RFBID+" "+o.OfferID, -1) {
			n, err := strconv.Atoi(m[1])
			if err != nil {
				t.Fatalf("rfb number %q: %v", m[1], err)
			}
			nums[n] = true
		}
	}
	order := make([]int, 0, len(nums))
	for n := range nums {
		order = append(order, n)
	}
	sort.Ints(order)
	rank := make(map[string]string, len(order))
	for i, n := range order {
		rank["-rfb"+strconv.Itoa(n)] = "-rfb#" + strconv.Itoa(i)
	}
	canon := func(s string) string {
		return rfbNum.ReplaceAllStringFunc(s, func(m string) string { return rank[m] })
	}
	lines := make([]string, len(offers))
	for i, o := range offers {
		lines[i] = fmt.Sprintf("%s|%s|%s|%s|%s|%v|%s|%v%v%v%v|%v|%+v|%.9f",
			canon(o.OfferID), canon(o.RFBID), o.QID, o.SellerID, o.SQL,
			o.Bindings, partsKey(o), o.Complete, o.Stripped, o.FromView,
			o.PartialAgg, o.Cols, o.Props, o.Price)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// runFanout optimizes and executes the paper query with every call to slow
// delayed, so the other seller answers each round first, and returns the
// canonical pool, the canonical purchased offers, the plan explanation and
// the result rows.
func runFanout(t *testing.T, slow string, protocol trading.Protocol) (pool, bought, explain string, rows []string) {
	t.Helper()
	f := buildFederation(t, nil)
	f.net.SetFaultPlan(&netsim.FaultPlan{SlowNodeMS: map[string]float64{slow: 5}})
	cfg := athensCfg(f)
	cfg.Protocol = protocol
	res, got := optimizeAndRun(t, f, cfg, paperQuery)
	return canonPool(t, res.Pool), canonPool(t, res.Candidate.Offers), ExplainResult(res), got
}

// TestBuyerFanoutIsOrderFree pins what the buyer's fan-out (RFB rounds,
// improve rounds, and execution-time prefetch of remote leaves) promises: the
// offer pool, plan choice and answer are byte-identical whichever seller
// answers first — corfu ahead of myconos or the other way round — for every
// protocol, including under GOMAXPROCS=1.
func TestBuyerFanoutIsOrderFree(t *testing.T) {
	protocols := map[string]func() trading.Protocol{
		"sealed":    func() trading.Protocol { return trading.SealedBid{} },
		"iterative": func() trading.Protocol { return trading.IterativeBid{MaxRounds: 3} },
		"bargain":   func() trading.Protocol { return trading.Bargain{MaxRounds: 3} },
	}
	check := func(t *testing.T, mk func() trading.Protocol) {
		pool, bought, explain, rows := runFanout(t, "myconos", mk())
		pool2, bought2, explain2, rows2 := runFanout(t, "corfu", mk())
		if pool2 != pool {
			t.Errorf("pool depends on reply order:\n--- corfu first ---\n%s\n--- myconos first ---\n%s", pool, pool2)
		}
		if bought2 != bought {
			t.Errorf("purchased offers depend on reply order:\ncorfu first   %s\nmyconos first %s", bought, bought2)
		}
		if explain2 != explain {
			t.Errorf("plan depends on reply order:\n--- corfu first ---\n%s\n--- myconos first ---\n%s", explain, explain2)
		}
		if strings.Join(rows2, "|") != strings.Join(rows, "|") {
			t.Errorf("answer depends on reply order:\ncorfu first   %v\nmyconos first %v", rows, rows2)
		}
	}
	for name, mk := range protocols {
		t.Run(name, func(t *testing.T) { check(t, mk) })
	}
	t.Run("gomaxprocs-1", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		for name, mk := range protocols {
			t.Run(name, func(t *testing.T) { check(t, mk) })
		}
	})
}

// TestPrefetchServesEachLeafOnce pins the execution-time prefetch contract:
// a multi-leaf plan performs exactly one fetch per remote leaf — an opening
// fetch and its release, two messages — however the leaves' opens overlap.
func TestPrefetchServesEachLeafOnce(t *testing.T) {
	f := buildFederation(t, nil)
	comm := &NetComm{Net: f.net, SelfID: "athens"}
	res, err := Optimize(athensCfg(f), comm, paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	leaves := len(plan.Remotes(res.Candidate.Root))
	if leaves < 2 {
		t.Fatalf("%d remote leaves; the prefetch needs more than one:\n%s", leaves, ExplainResult(res))
	}
	f.net.Reset()
	if _, err := ExecuteResult(comm, &exec.Executor{Store: f.athens.Store()}, res); err != nil {
		t.Fatal(err)
	}
	if msgs, _ := f.net.Stats(); msgs != int64(2*leaves) {
		t.Fatalf("%d execution messages for %d remote leaves, want %d", msgs, leaves, 2*leaves)
	}
}
