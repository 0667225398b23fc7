package flight

import (
	"testing"
	"time"

	"qtrade/internal/ledger"
	"qtrade/internal/obs"
)

// win builds a synthetic metrics window for driving the rules directly.
func win(seq int64, mutate func(*obs.Window)) *obs.Window {
	w := &obs.Window{Seq: seq}
	if mutate != nil {
		mutate(w)
	}
	return w
}

// judge runs the rules over one synthetic window, as Sample does over the
// window it just closed.
func judge(w *Watchdog, win *obs.Window) []Anomaly {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.observe(win)
}

func histWin(name string, count int64, p95 float64) obs.HistWindow {
	return obs.HistWindow{Name: name, Count: count, P95: p95, P50: p95 / 2, Sum: p95 * float64(count)}
}

// TestWatchdogP95Regression: first window seeds silently, steady windows
// update the baseline, a 3x p95 jump on enough samples is flagged — into
// the return value, the ledger anomaly stream, and watchdog.* instruments.
func TestWatchdogP95Regression(t *testing.T) {
	l := ledger.New(8)
	m := obs.NewMetrics()
	w := NewWatchdog(l, m, 0)

	seed := win(0, func(x *obs.Window) { x.Hists = append(x.Hists, histWin("buyer.hq.optimize_ms", 10, 5)) })
	if got := judge(w, seed); len(got) != 0 {
		t.Fatalf("first sighting must seed silently: %v", got)
	}
	steady := win(1, func(x *obs.Window) { x.Hists = append(x.Hists, histWin("buyer.hq.optimize_ms", 10, 6)) })
	if got := judge(w, steady); len(got) != 0 {
		t.Fatalf("in-band window flagged: %v", got)
	}

	// Too few samples: noisy, must not flag even at 10x.
	noisy := win(2, func(x *obs.Window) { x.Hists = append(x.Hists, histWin("buyer.hq.optimize_ms", 2, 60)) })
	if got := judge(w, noisy); len(got) != 0 {
		t.Fatalf("under-sampled window flagged: %v", got)
	}

	bad := win(3, func(x *obs.Window) { x.Hists = append(x.Hists, histWin("buyer.hq.optimize_ms", 10, 60)) })
	got := judge(w, bad)
	if len(got) != 1 || got[0].Kind != AnomalyP95 || got[0].Metric != "buyer.hq.optimize_ms" || got[0].Window != 3 {
		t.Fatalf("p95 regression: %+v", got)
	}
	if got[0].Value != 60 || got[0].Baseline <= 0 || got[0].Baseline >= 60 {
		t.Fatalf("value/baseline: %+v", got[0])
	}

	anoms := l.Anomalies()
	if len(anoms) != 1 || anoms[0].Kind != ledger.KindAnomaly || anoms[0].Reason != AnomalyP95 ||
		anoms[0].QID != "buyer.hq.optimize_ms" || anoms[0].Window != 3 {
		t.Fatalf("ledger anomaly: %+v", anoms)
	}
	if m.Counter("watchdog.anomalies").Value() != 1 {
		t.Fatal("anomaly counter")
	}
	if m.Gauge("watchdog.window_anomalies").Value() != 1 || m.Gauge("watchdog.last_anomaly_window").Value() != 3 {
		t.Fatal("window gauges")
	}

	// A regressed window must NOT be folded into the baseline: the same
	// regression next window still flags.
	bad2 := win(4, func(x *obs.Window) { x.Hists = append(x.Hists, histWin("buyer.hq.optimize_ms", 10, 60)) })
	if got := judge(w, bad2); len(got) != 1 {
		t.Fatalf("sustained regression must keep flagging: %v", got)
	}

	// A clean window resets the gauge and eases the baseline back.
	clean := win(5, func(x *obs.Window) { x.Hists = append(x.Hists, histWin("buyer.hq.optimize_ms", 10, 6)) })
	judge(w, clean)
	if m.Gauge("watchdog.window_anomalies").Value() != 0 {
		t.Fatal("clean window must zero the gauge")
	}
	if got := l.Anomalies(); len(got) != 2 {
		t.Fatalf("ledger anomaly stream: %v", got)
	}
}

// TestWatchdogRecoverySpike: recovery fallbacks are near-zero in steady
// state, so a burst of them in one window is an anomaly.
func TestWatchdogRecoverySpike(t *testing.T) {
	w := NewWatchdog(nil, nil, 0)
	cnt := func(seq, delta int64) *obs.Window {
		return win(seq, func(x *obs.Window) {
			x.Counters = append(x.Counters, obs.CounterWindow{Name: "buyer.hq.recovery_fallbacks", Delta: delta})
		})
	}
	judge(w, cnt(0, 0)) // seed: steady state has no recoveries
	if got := judge(w, cnt(1, 0)); len(got) != 0 {
		t.Fatalf("quiet window flagged: %v", got)
	}
	got := judge(w, cnt(2, 3))
	if len(got) != 1 || got[0].Kind != AnomalyRecovery || got[0].Value != 3 {
		t.Fatalf("spike: %+v", got)
	}
	// Unrelated counters are ignored.
	other := win(3, func(x *obs.Window) {
		x.Counters = append(x.Counters, obs.CounterWindow{Name: "buyer.hq.optimizations", Delta: 99})
	})
	if got := judge(w, other); len(got) != 0 {
		t.Fatalf("unrelated counter flagged: %v", got)
	}
}

// TestWatchdogHitRateDrop: a seller's price cache going cold mid-run.
func TestWatchdogHitRateDrop(t *testing.T) {
	w := NewWatchdog(nil, nil, 0)
	cache := func(seq, hits, misses int64) *obs.Window {
		return win(seq, func(x *obs.Window) {
			x.Counters = append(x.Counters,
				obs.CounterWindow{Name: "node.n1.pricecache_hits", Delta: hits},
				obs.CounterWindow{Name: "node.n1.pricecache_misses", Delta: misses})
		})
	}
	judge(w, cache(0, 9, 1)) // seed at 90%
	if got := judge(w, cache(1, 8, 2)); len(got) != 0 {
		t.Fatalf("mild dip flagged: %v", got)
	}
	got := judge(w, cache(2, 1, 9))
	if len(got) != 1 || got[0].Kind != AnomalyHitRate || got[0].Metric != "node.n1.pricecache_hit_rate" {
		t.Fatalf("drop: %+v", got)
	}
	if got[0].Value != 0.1 {
		t.Fatalf("rate: %+v", got[0])
	}
	// Too few lookups to judge.
	if got := judge(w, cache(3, 0, 2)); len(got) != 0 {
		t.Fatalf("under-sampled cache window flagged: %v", got)
	}
}

// TestWatchdogCalibrationDrift: a seller's EWMA quote error in a real
// ledger's calibration report leaving the band flags once (rising edge), and
// re-arms after the seller comes back in band.
func TestWatchdogCalibrationDrift(t *testing.T) {
	l := ledger.New(8)
	w := NewWatchdog(l, nil, 0)
	rec := l.Begin("hq", "SELECT 1")
	rec.RFBIssued("hq-rfb1", 1, 1)
	// fetch records one delivery of n1's, quoted at 10 ms and run in wall.
	fetch := func(wall float64) { rec.Fetch("n1", "o1", "SELECT 1", 10, wall, wall, 1, 8, "") }
	ewma := func() float64 { return l.Calibration().Sellers[0].EWMAErr }

	fetch(10) // a perfect quote
	if got := judge(w, win(0, nil)); len(got) != 0 {
		t.Fatalf("in-band: %v", got)
	}
	fetch(110) // 11x its quote: the EWMA error jumps past 100%
	got := judge(w, win(1, nil))
	if len(got) != 1 || got[0].Kind != AnomalyCalibration || got[0].Metric != "seller.n1.ewma_err" ||
		got[0].Value != ewma() || got[0].Value < 1 || got[0].Baseline != 1 {
		t.Fatalf("drift: %+v", got)
	}
	if got := judge(w, win(2, nil)); len(got) != 0 {
		t.Fatalf("still-over must not re-flag: %v", got)
	}
	for ewma() >= 1 {
		fetch(10)
	}
	judge(w, win(3, nil)) // back in band: re-arms
	fetch(110)
	if got := judge(w, win(4, nil)); len(got) != 1 {
		t.Fatalf("re-armed drift must flag again: %v", got)
	}
	if got := l.Anomalies(); len(got) != 2 || got[1].Reason != AnomalyCalibration || got[1].Window != 4 {
		t.Fatalf("ledger anomaly stream: %+v", got)
	}
}

// TestWatchdogAttach: a watchdog attached to a real registry and ledger
// samples its own history, and the windows it judged are the ones it serves.
func TestWatchdogAttach(t *testing.T) {
	m := obs.NewMetrics()
	l := ledger.New(4)
	w := NewWatchdog(l, m, 0)
	lat := m.Histogram("buyer.hq.wall_ms")
	window := func(v float64) {
		for i := 0; i < minSamples; i++ {
			lat.Observe(v)
		}
		w.Sample()
	}
	window(5) // seeds the baseline
	window(5)
	window(500)
	if got := l.Anomalies(); len(got) != 1 || got[0].Reason != AnomalyP95 || got[0].Window != 2 {
		t.Fatalf("attached watchdog: %+v", got)
	}
	wins := w.History().Windows(0)
	if len(wins) != 3 || wins[0].Seq != 2 || wins[0].Hists[0].Count != minSamples {
		t.Fatalf("served windows: %+v", wins)
	}
}

// TestWatchdogStartStop runs the real sampler goroutine briefly.
func TestWatchdogStartStop(t *testing.T) {
	m := obs.NewMetrics()
	m.Counter("x").Inc()
	w := NewWatchdog(nil, m, 5*time.Millisecond)
	taken := func() int { return len(w.History().Windows(0)) }
	w.Start()
	w.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for taken() < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	w.Stop()
	w.Stop() // idempotent
	n := taken()
	if n < 2 {
		t.Fatalf("sampler closed %d windows, want >= 2", n)
	}
	time.Sleep(15 * time.Millisecond)
	if taken() != n {
		t.Fatal("sampler kept running after Stop")
	}

	// Stop without Start must not hang.
	w2 := NewWatchdog(nil, m, time.Hour)
	done := make(chan struct{})
	go func() { w2.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Stop without Start hung")
	}
}

// TestWatchdogBoundsAndNil: the watchdog keeps nothing of its own — a
// sustained regression's findings are bounded by the ledger's side stream —
// and every entry point is nil-safe.
func TestWatchdogBoundsAndNil(t *testing.T) {
	l := ledger.New(8)
	w := NewWatchdog(l, nil, 0)
	name := "buyer.hq.wall_ms"
	judge(w, win(0, func(x *obs.Window) { x.Hists = append(x.Hists, histWin(name, minSamples, 1)) }))
	for i := 1; i < 30; i++ {
		if got := judge(w, win(int64(i), func(x *obs.Window) { x.Hists = append(x.Hists, histWin(name, minSamples, 1e6)) })); len(got) != 1 {
			t.Fatalf("window %d: %v", i, got)
		}
	}
	if got := l.Anomalies(); len(got) != 8 || got[7].Window != 29 {
		t.Fatalf("the ledger's anomaly stream must stay bounded at its capacity: %d", len(got))
	}

	var nilW *Watchdog
	if nilW.Sample() != nil || nilW.History() != nil {
		t.Fatal("nil watchdog must no-op")
	}
	nilW.Start()
	nilW.Stop()
}
