package flight

import (
	"math"
	"strings"
	"sync"
	"time"

	"qtrade/internal/ledger"
	"qtrade/internal/obs"
)

// Anomaly kinds, as they appear in ledger anomaly events and /debug logs.
const (
	AnomalyP95         = "p95_regression"          // a latency histogram's windowed p95 regressed vs baseline
	AnomalyRecovery    = "recovery_spike"          // recovery fallbacks per window jumped
	AnomalyHitRate     = "pricecache_hitrate_drop" // a seller's price-cache hit rate fell off a cliff
	AnomalyCalibration = "calibration_drift"       // a seller's signed EWMA quote error left the band
)

// Anomaly is one watchdog finding: metric, the offending value, the trailing
// baseline it was judged against, and the window it was seen in.
type Anomaly struct {
	Kind     string  `json:"kind"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Baseline float64 `json:"baseline"`
	Window   int64   `json:"window"`
}

// The anomaly rules' thresholds.
const (
	// p95Factor flags a histogram window whose p95 is >= this × the trailing
	// EWMA baseline.
	p95Factor = 3
	// minSamples gates the p95 and hit-rate rules: windows with fewer
	// observations are too noisy to judge.
	minSamples = 5
	// recoveryFactor flags a window whose recovery-counter delta is both >= 1
	// and > this × the trailing baseline rate.
	recoveryFactor = 3
	// hitRateDrop flags a window whose price-cache hit rate fell by at least
	// this much (absolute) below the trailing baseline.
	hitRateDrop = 0.25
	// calibrationErr flags a seller whose |EWMA quote error| in the ledger's
	// calibration report reaches this (1.0 = quotes off by 100%).
	calibrationErr = 1.0
	// baselineAlpha is the EWMA weight of the newest value (a window's, a
	// dossier's) when updating a baseline.
	baselineAlpha = 0.3
)

// Watchdog owns the windowed metrics history: each Sample closes one window
// and compares it against trailing EWMA baselines, emitting typed anomaly
// events into the trading ledger plus watchdog.* instruments; it keeps no
// log of its own — the ledger's anomaly stream is the record. Start runs the
// sampler on a ticker; experiments and tests call Sample to close windows
// deterministically. A nil *Watchdog no-ops.
type Watchdog struct {
	ledg   *ledger.Ledger
	hist   *obs.History
	window time.Duration

	anomalies   *obs.Counter // watchdog.anomalies: total findings ever
	windowGauge *obs.Gauge   // watchdog.window_anomalies: findings in the newest window
	lastWindow  *obs.Gauge   // watchdog.last_anomaly_window: seq of the last offending window

	mu        sync.Mutex           // held through Sample: windows are judged in order
	p95       map[string]*baseline // histogram name → p95
	recRate   map[string]*baseline // recovery counter name → delta/window
	hitRate   map[string]*baseline // cache prefix → hit rate
	calWarned map[string]bool      // seller → already flagged (rising edge only)

	startOnce, stopOnce sync.Once
	stop, done          chan struct{}
}

// NewWatchdog builds a watchdog sampling m into windows of the given width
// (obs.DefaultHistoryWindow when window <= 0) and reporting into ledg and m
// (either may be nil — the corresponding sink just stays quiet). Nothing is
// sampled until Start or Sample.
func NewWatchdog(ledg *ledger.Ledger, m *obs.Metrics, window time.Duration) *Watchdog {
	if window <= 0 {
		window = obs.DefaultHistoryWindow
	}
	return &Watchdog{
		ledg:        ledg,
		hist:        obs.NewHistory(m, window),
		window:      window,
		anomalies:   m.Counter("watchdog.anomalies"),
		windowGauge: m.Gauge("watchdog.window_anomalies"),
		lastWindow:  m.Gauge("watchdog.last_anomaly_window"),
		p95:         make(map[string]*baseline),
		recRate:     make(map[string]*baseline),
		hitRate:     make(map[string]*baseline),
		calWarned:   make(map[string]bool),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
}

// History returns the windows the watchdog sampled (an http.Handler serving
// them at /metrics/history); nil for a nil watchdog.
func (w *Watchdog) History() *obs.History {
	if w == nil {
		return nil
	}
	return w.hist
}

// Start launches the sampler goroutine, calling Sample every window until
// Stop. Idempotent; no-op on nil.
func (w *Watchdog) Start() {
	if w == nil {
		return
	}
	w.startOnce.Do(func() {
		go func() {
			defer close(w.done)
			tick := time.NewTicker(w.window)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					w.Sample()
				case <-w.stop:
					return
				}
			}
		}()
	})
}

// Stop halts the sampler goroutine (if Start ran) and waits for it to exit.
// Safe to call more than once, on a watchdog that never started, and on nil.
func (w *Watchdog) Stop() {
	if w == nil {
		return
	}
	w.stopOnce.Do(func() { close(w.stop) })
	w.startOnce.Do(func() { close(w.done) }) // never started: unblock the wait
	<-w.done
}

// Sample closes one metrics window now and judges it (see observe),
// returning the findings. Nil-safe.
func (w *Watchdog) Sample() []Anomaly {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.observe(w.hist.Sample())
}

// observe judges one freshly closed window against the trailing baselines,
// updates the baselines, and returns the findings (also pushed into the
// ledger anomaly stream and the watchdog.* instruments). The first sighting
// of any metric seeds its baseline silently. Callers hold w.mu.
func (w *Watchdog) observe(win *obs.Window) []Anomaly {
	var found []Anomaly
	flag := func(kind, metric string, value, baseline float64) {
		found = append(found, Anomaly{Kind: kind, Metric: metric, Value: value, Baseline: baseline, Window: win.Seq})
	}

	// judge compares v with the trailing baseline m[key], flagging a regression.
	judge := func(m map[string]*baseline, key, kind, metric string, v float64, regressed func(base float64) bool) {
		b := m[key]
		if b == nil {
			b = &baseline{}
			m[key] = b
		}
		if b.judge(v, regressed) {
			flag(kind, metric, v, b.v)
		}
	}

	for i := range win.Hists {
		hw := &win.Hists[i]
		// Under-sampled windows are too noisy to judge — and too noisy to
		// learn a baseline from, so they are skipped entirely.
		if hw.Count >= minSamples && strings.HasSuffix(hw.Name, "_ms") {
			judge(w.p95, hw.Name, AnomalyP95, hw.Name, hw.P95, func(base float64) bool {
				return base > 0 && hw.P95 >= p95Factor*base
			})
		}
	}

	for i := range win.Counters {
		cw := &win.Counters[i]
		if delta := float64(cw.Delta); strings.Contains(cw.Name, "recovery_fallbacks") {
			judge(w.recRate, cw.Name, AnomalyRecovery, cw.Name, delta, func(base float64) bool {
				return delta >= 1 && delta > recoveryFactor*base
			})
		}
	}

	for i := range win.Counters {
		cw := &win.Counters[i]
		if !strings.HasSuffix(cw.Name, "pricecache_hits") {
			continue
		}
		prefix := strings.TrimSuffix(cw.Name, "hits")
		misses, ok := win.CounterDelta(prefix + "misses")
		if total := cw.Delta + misses; ok && total >= minSamples {
			rate := float64(cw.Delta) / float64(total)
			judge(w.hitRate, prefix, AnomalyHitRate, prefix+"hit_rate", rate, func(base float64) bool {
				return base-rate >= hitRateDrop
			})
		}
	}

	for _, s := range w.ledg.Calibration().Sellers {
		over := math.Abs(s.EWMAErr) >= calibrationErr
		if over && !w.calWarned[s.Seller] {
			flag(AnomalyCalibration, "seller."+s.Seller+".ewma_err", s.EWMAErr, calibrationErr)
		}
		w.calWarned[s.Seller] = over // rising edge: re-arm once back in band
	}

	w.windowGauge.Set(float64(len(found)))
	for _, a := range found {
		w.anomalies.Inc()
		w.lastWindow.Set(float64(a.Window))
		w.ledg.Anomaly(a.Kind, a.Metric, a.Value, a.Baseline, a.Window)
	}
	return found
}

// baseline is a trailing EWMA norm, the one rule both the watchdog's windows
// and the recorder's estimate triggers are judged by: the first value seeds it
// silently; a value that regressed against it is flagged and not folded in,
// so a sustained regression keeps flagging instead of becoming normal;
// anything else moves it by baselineAlpha.
type baseline struct {
	v    float64
	seen bool
}

// judge reports whether v regressed against the baseline, folding it in when
// it did not.
func (b *baseline) judge(v float64, regressed func(base float64) bool) bool {
	switch {
	case !b.seen:
		b.v, b.seen = v, true
	case regressed(b.v):
		return true
	default:
		b.v = (1-baselineAlpha)*b.v + baselineAlpha*v
	}
	return false
}
