package flight

import (
	"testing"

	"qtrade/internal/ledger"
	"qtrade/internal/obs"
)

// win builds a synthetic metrics window for driving Observe directly.
func win(seq int64, mutate func(*obs.Window)) *obs.Window {
	w := &obs.Window{Seq: seq}
	if mutate != nil {
		mutate(w)
	}
	return w
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
	w := NewWatchdog(WatchdogConfig{}, l, m)

	seed := win(0, func(x *obs.Window) { x.Hists = append(x.Hists, histWin("buyer.hq.optimize_ms", 10, 5)) })
	if got := w.Observe(seed); len(got) != 0 {
		t.Fatalf("first sighting must seed silently: %v", got)
	}
	steady := win(1, func(x *obs.Window) { x.Hists = append(x.Hists, histWin("buyer.hq.optimize_ms", 10, 6)) })
	if got := w.Observe(steady); len(got) != 0 {
		t.Fatalf("in-band window flagged: %v", got)
	}

	// Too few samples: noisy, must not flag even at 10x.
	noisy := win(2, func(x *obs.Window) { x.Hists = append(x.Hists, histWin("buyer.hq.optimize_ms", 2, 60)) })
	if got := w.Observe(noisy); len(got) != 0 {
		t.Fatalf("under-sampled window flagged: %v", got)
	}

	bad := win(3, func(x *obs.Window) { x.Hists = append(x.Hists, histWin("buyer.hq.optimize_ms", 10, 60)) })
	got := w.Observe(bad)
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
	if got := w.Observe(bad2); len(got) != 1 {
		t.Fatalf("sustained regression must keep flagging: %v", got)
	}

	// A clean window resets the gauge and eases the baseline back.
	clean := win(5, func(x *obs.Window) { x.Hists = append(x.Hists, histWin("buyer.hq.optimize_ms", 10, 6)) })
	w.Observe(clean)
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
	w := NewWatchdog(WatchdogConfig{}, nil, nil)
	cnt := func(seq, delta int64) *obs.Window {
		return win(seq, func(x *obs.Window) {
			x.Counters = append(x.Counters, obs.CounterWindow{Name: "buyer.hq.recovery_fallbacks", Delta: delta})
		})
	}
	w.Observe(cnt(0, 0)) // seed: steady state has no recoveries
	if got := w.Observe(cnt(1, 0)); len(got) != 0 {
		t.Fatalf("quiet window flagged: %v", got)
	}
	got := w.Observe(cnt(2, 3))
	if len(got) != 1 || got[0].Kind != AnomalyRecovery || got[0].Value != 3 {
		t.Fatalf("spike: %+v", got)
	}
	// Unrelated counters are ignored.
	other := win(3, func(x *obs.Window) {
		x.Counters = append(x.Counters, obs.CounterWindow{Name: "buyer.hq.optimizations", Delta: 99})
	})
	if got := w.Observe(other); len(got) != 0 {
		t.Fatalf("unrelated counter flagged: %v", got)
	}
}

// TestWatchdogHitRateDrop: a seller's price cache going cold mid-run.
func TestWatchdogHitRateDrop(t *testing.T) {
	w := NewWatchdog(WatchdogConfig{}, nil, nil)
	cache := func(seq, hits, misses int64) *obs.Window {
		return win(seq, func(x *obs.Window) {
			x.Counters = append(x.Counters,
				obs.CounterWindow{Name: "node.n1.pricecache_hits", Delta: hits},
				obs.CounterWindow{Name: "node.n1.pricecache_misses", Delta: misses})
		})
	}
	w.Observe(cache(0, 9, 1)) // seed at 90%
	if got := w.Observe(cache(1, 8, 2)); len(got) != 0 {
		t.Fatalf("mild dip flagged: %v", got)
	}
	got := w.Observe(cache(2, 1, 9))
	if len(got) != 1 || got[0].Kind != AnomalyHitRate || got[0].Metric != "node.n1.pricecache_hit_rate" {
		t.Fatalf("drop: %+v", got)
	}
	if got[0].Value != 0.1 {
		t.Fatalf("rate: %+v", got[0])
	}
	// Too few lookups to judge.
	if got := w.Observe(cache(3, 0, 2)); len(got) != 0 {
		t.Fatalf("under-sampled cache window flagged: %v", got)
	}
}

// TestWatchdogCalibrationDrift: EWMA quote error leaving the band flags
// once (rising edge), re-arms after the seller comes back in band.
func TestWatchdogCalibrationDrift(t *testing.T) {
	w := NewWatchdog(WatchdogConfig{CalibrationErr: 0.5}, nil, nil)
	err := 0.0
	w.SetCalibrationSource(func() ledger.Report {
		return ledger.Report{Sellers: []ledger.SellerReport{{Seller: "n1", EWMAErr: err}}}
	})
	if got := w.Observe(win(0, nil)); len(got) != 0 {
		t.Fatalf("in-band: %v", got)
	}
	err = -0.8 // overquoting by 80%: |err| over the band
	got := w.Observe(win(1, nil))
	if len(got) != 1 || got[0].Kind != AnomalyCalibration || got[0].Metric != "seller.n1.ewma_err" || got[0].Value != -0.8 {
		t.Fatalf("drift: %+v", got)
	}
	if got := w.Observe(win(2, nil)); len(got) != 0 {
		t.Fatalf("still-over must not re-flag: %v", got)
	}
	err = 0.1
	w.Observe(win(3, nil)) // back in band: re-arms
	err = 0.9
	if got := w.Observe(win(4, nil)); len(got) != 1 {
		t.Fatalf("re-armed drift must flag again: %v", got)
	}
}

// TestWatchdogAttach wires a real History + registry end to end.
func TestWatchdogAttach(t *testing.T) {
	m := obs.NewMetrics()
	l := ledger.New(4)
	h := obs.NewHistory(m, 0, 8)
	w := NewWatchdog(WatchdogConfig{MinSamples: 1}, l, m)
	w.Attach(h)

	lat := m.Histogram("buyer.hq.wall_ms")
	lat.Observe(5)
	h.Sample() // seeds the baseline
	lat.Observe(5)
	h.Sample()
	lat.Observe(500)
	h.Sample()
	if got := l.Anomalies(); len(got) != 1 || got[0].Reason != AnomalyP95 {
		t.Fatalf("attached watchdog: %+v", got)
	}
}

// TestWatchdogBoundsAndNil: the watchdog keeps nothing of its own — a
// sustained regression's findings are bounded by the ledger's side stream —
// and every entry point is nil-safe.
func TestWatchdogBoundsAndNil(t *testing.T) {
	l := ledger.New(8)
	w := NewWatchdog(WatchdogConfig{MinSamples: 1}, l, nil)
	name := "buyer.hq.wall_ms"
	w.Observe(win(0, func(x *obs.Window) { x.Hists = append(x.Hists, histWin(name, 1, 1)) }))
	for i := 1; i < 30; i++ {
		if got := w.Observe(win(int64(i), func(x *obs.Window) { x.Hists = append(x.Hists, histWin(name, 1, 1e6)) })); len(got) != 1 {
			t.Fatalf("window %d: %v", i, got)
		}
	}
	if got := l.Anomalies(); len(got) != 8 || got[7].Window != 29 {
		t.Fatalf("the ledger's anomaly stream must stay bounded at its capacity: %d", len(got))
	}

	var nilW *Watchdog
	if nilW.Observe(win(0, nil)) != nil {
		t.Fatal("nil watchdog must no-op")
	}
	nilW.Attach(nil)
	nilW.SetCalibrationSource(func() ledger.Report { return ledger.Report{} })
	if got := w.Observe(nil); got != nil {
		t.Fatal("nil window must no-op")
	}
}
