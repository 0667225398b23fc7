package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"qtrade/internal/exec"
	"qtrade/internal/obs"
	"qtrade/internal/trading"
)

// testPolicy returns a FaultPolicy tight enough for tests but generous
// enough that healthy in-process calls never trip it.
func testPolicy(m *obs.Metrics) *trading.FaultPolicy {
	return &trading.FaultPolicy{
		CallTimeout:  200 * time.Millisecond,
		RoundTimeout: 400 * time.Millisecond,
		MaxRetries:   2,
		Backoff:      time.Millisecond,
		Directory:    trading.NewDirectory(),
		Breaker:      trading.BreakerConfig{Threshold: 3, Cooldown: 20 * time.Millisecond},
		Metrics:      m,
	}
}

// TestConcurrentFlapDuringNegotiation crashes and restarts a remote seller
// over and over while negotiations are in flight. The buyer must neither
// hang nor race (run under -race): crash errors are retried as transient
// within the policy's budget, the round deadline cuts stragglers, and a
// query answerable from the buyer's own partition keeps succeeding
// throughout.
func TestConcurrentFlapDuringNegotiation(t *testing.T) {
	f := buildFederation(t, nil)
	q := "SELECT c.custname FROM customer c WHERE c.office = 'Athens'"
	want := oracle(t, f.sch, q)

	cfg := athensCfg(f)
	cfg.Metrics = obs.NewMetrics()
	cfg.Faults = testPolicy(cfg.Metrics)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				f.net.CrashNode("corfu")
				time.Sleep(100 * time.Microsecond)
				f.net.RestartNode("corfu")
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	comm := &NetComm{Net: f.net, SelfID: "athens"}
	for i := 0; i < 5; i++ {
		out, _, _, err := OptimizeAndExecute(cfg, comm, &exec.Executor{Store: f.athens.Store()}, q, 1)
		if err != nil {
			t.Fatalf("query %d under flapping peer: %v", i, err)
		}
		got := rowsKey(out.Rows)
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("query %d answer differs:\ngot  %v\nwant %v", i, got, want)
		}
	}
	close(stop)
	wg.Wait()
}

// failComm fails every remote Fetch with the same sentinel.
var errDeliver = errors.New("delivery channel severed")

type failComm struct {
	Comm
}

func (c failComm) Fetch(to string, req trading.ExecReq) (trading.ExecResp, error) {
	return trading.ExecResp{}, fmt.Errorf("fetch %s: %w", to, errDeliver)
}

// TestRecoveryExhaustionAllSellersFail: every seller fails at delivery and
// the retry budget runs out. The error must wrap the last delivery failure
// and report the retry count, and the returned round count must be
// maxRetries+1.
func TestRecoveryExhaustionAllSellersFail(t *testing.T) {
	f := buildFederation(t, nil)
	// Answerable by either island's invoice replica — so each attempt finds
	// a fresh seller to fail on, and exhaustion beats unanswerability.
	q := "SELECT i.invid, i.charge FROM invoiceline i WHERE i.charge > 4"
	comm := failComm{Comm: &NetComm{Net: f.net, SelfID: "athens"}}

	const maxRetries = 1
	_, _, rounds, err := OptimizeAndExecute(athensCfg(f), comm, &exec.Executor{Store: f.athens.Store()}, q, maxRetries)
	if err == nil {
		t.Fatal("expected exhaustion error")
	}
	if rounds != maxRetries+1 {
		t.Fatalf("rounds = %d, want %d", rounds, maxRetries+1)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("recovery exhausted after %d retries", maxRetries)) {
		t.Fatalf("error lacks retry count: %v", err)
	}
	if !errors.Is(err, errDeliver) {
		t.Fatalf("error does not wrap the delivery failure: %v", err)
	}
}

// TestFallbackSubstitution: with a fault policy installed, a seller that
// crashes at delivery is replaced by the equivalent standing offer from its
// replica peer — no re-optimization round is spent, and the fallback counter
// records the substitution.
func TestFallbackSubstitution(t *testing.T) {
	f := buildFederation(t, nil)
	// Invoiceline is fully replicated on corfu and myconos, so whichever
	// wins has a byte-identical standing offer from the other island.
	q := "SELECT i.invid, i.charge FROM invoiceline i WHERE i.charge > 4"
	want := oracle(t, f.sch, q)

	cfg := athensCfg(f)
	cfg.Metrics = obs.NewMetrics()
	cfg.Faults = testPolicy(cfg.Metrics)

	comm := &NetComm{Net: f.net, SelfID: "athens"}
	res, err := Optimize(cfg, comm, q)
	if err != nil {
		t.Fatal(err)
	}
	winner := res.Candidate.Offers[0].SellerID
	crash := &crashOnDeliver{Comm: comm, victim: winner, onCrash: func() {}}

	out, finalRes, rounds, err := OptimizeAndExecute(cfg, crash, &exec.Executor{Store: f.athens.Store()}, q, 2)
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if rounds != 0 {
		t.Fatalf("substitution should not spend a re-optimization round, got %d", rounds)
	}
	got := rowsKey(out.Rows)
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("substituted answer differs:\ngot  %v\nwant %v", got, want)
	}
	for _, o := range finalRes.Candidate.Offers {
		if o.SellerID == winner {
			t.Fatalf("crashed seller %s still in the patched plan", winner)
		}
	}
	if v := cfg.Metrics.Counter("buyer.athens.recovery_fallbacks").Value(); v < 1 {
		t.Fatalf("recovery_fallbacks = %d, want >= 1", v)
	}
}
