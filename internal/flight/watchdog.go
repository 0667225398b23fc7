package flight

import (
	"math"
	"strings"
	"sync"

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

// WatchdogConfig tunes the anomaly rules; zero values take the defaults.
type WatchdogConfig struct {
	// P95Factor flags a histogram window whose p95 is >= factor × the
	// trailing EWMA baseline. Default 3.
	P95Factor float64
	// MinSamples gates the p95 and hit-rate rules: windows with fewer
	// observations are too noisy to judge. Default 5.
	MinSamples int64
	// RecoveryFactor flags a window whose recovery-counter delta is both
	// >= 1 and > factor × the trailing baseline rate. Default 3.
	RecoveryFactor float64
	// HitRateDrop flags a window whose price-cache hit rate fell by at
	// least this much (absolute) below the trailing baseline. Default 0.25.
	HitRateDrop float64
	// CalibrationErr flags a seller whose |EWMA quote error| reaches this
	// threshold (1.0 = quotes off by 100%). Default 1.0.
	CalibrationErr float64
	// BaselineAlpha is the EWMA weight of the newest window when updating
	// baselines. Default 0.3.
	BaselineAlpha float64
}

func (c WatchdogConfig) withDefaults() WatchdogConfig {
	if c.P95Factor <= 0 {
		c.P95Factor = 3
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 5
	}
	if c.RecoveryFactor <= 0 {
		c.RecoveryFactor = 3
	}
	if c.HitRateDrop <= 0 {
		c.HitRateDrop = 0.25
	}
	if c.CalibrationErr <= 0 {
		c.CalibrationErr = 1
	}
	if c.BaselineAlpha <= 0 || c.BaselineAlpha > 1 {
		c.BaselineAlpha = 0.3
	}
	return c
}

// Watchdog compares each freshly closed metrics window against trailing
// EWMA baselines and emits typed anomaly events into the trading ledger
// plus watchdog.* instruments; it keeps no log of its own — the ledger's
// anomaly stream is the record. Attach it to a History (or call Observe
// directly from tests and experiments). A nil *Watchdog no-ops.
type Watchdog struct {
	cfg   WatchdogConfig
	ledg  *ledger.Ledger
	calib func() ledger.Report

	anomalies   *obs.Counter // watchdog.anomalies: total findings ever
	windowGauge *obs.Gauge   // watchdog.window_anomalies: findings in the newest window
	lastWindow  *obs.Gauge   // watchdog.last_anomaly_window: seq of the last offending window

	mu        sync.Mutex
	p95       map[string]float64 // histogram name → EWMA p95 baseline
	recRate   map[string]float64 // recovery counter name → EWMA delta/window
	hitRate   map[string]float64 // cache prefix → EWMA hit rate
	calWarned map[string]bool    // seller → already flagged (rising edge only)
}

// NewWatchdog builds a watchdog reporting into ledg and m (either may be
// nil — the corresponding sink just stays quiet).
func NewWatchdog(cfg WatchdogConfig, ledg *ledger.Ledger, m *obs.Metrics) *Watchdog {
	return &Watchdog{
		cfg:         cfg.withDefaults(),
		ledg:        ledg,
		calib:       func() ledger.Report { return ledg.Calibration() },
		anomalies:   m.Counter("watchdog.anomalies"),
		windowGauge: m.Gauge("watchdog.window_anomalies"),
		lastWindow:  m.Gauge("watchdog.last_anomaly_window"),
		p95:         make(map[string]float64),
		recRate:     make(map[string]float64),
		hitRate:     make(map[string]float64),
		calWarned:   make(map[string]bool),
	}
}

// SetCalibrationSource overrides where calibration drift is read from
// (default: the ledger's own report). Nil-safe.
func (w *Watchdog) SetCalibrationSource(fn func() ledger.Report) {
	if w == nil || fn == nil {
		return
	}
	w.mu.Lock()
	w.calib = fn
	w.mu.Unlock()
}

// Attach registers the watchdog as h's OnWindow hook. Observe never calls
// back into the history, so running under its lock is safe.
func (w *Watchdog) Attach(h *obs.History) {
	if w == nil {
		return
	}
	h.OnWindow(func(win *obs.Window) { w.Observe(win) })
}

// Observe judges one freshly closed window against the trailing baselines,
// updates the baselines, and returns the findings (also pushed into the
// ledger anomaly stream and the watchdog.* instruments). The first sighting
// of any metric seeds its baseline silently. Nil-safe on both sides.
func (w *Watchdog) Observe(win *obs.Window) []Anomaly {
	if w == nil || win == nil {
		return nil
	}
	w.mu.Lock()
	var found []Anomaly
	flag := func(kind, metric string, value, baseline float64) {
		found = append(found, Anomaly{Kind: kind, Metric: metric, Value: value, Baseline: baseline, Window: win.Seq})
	}

	// judge compares v with the trailing baseline m[key]: the first sighting
	// seeds it silently; a regression is flagged and not folded in, so a
	// sustained one keeps flagging instead of becoming normal; anything else
	// moves the baseline by the EWMA weight.
	judge := func(m map[string]float64, key, kind, metric string, v float64, regressed func(base float64) bool) {
		switch base, seen := m[key]; {
		case !seen:
			m[key] = v
		case regressed(base):
			flag(kind, metric, v, base)
		default:
			m[key] = (1-w.cfg.BaselineAlpha)*base + w.cfg.BaselineAlpha*v
		}
	}

	for i := range win.Hists {
		hw := &win.Hists[i]
		// Under-sampled windows are too noisy to judge — and too noisy to
		// learn a baseline from, so they are skipped entirely.
		if hw.Count >= w.cfg.MinSamples && strings.HasSuffix(hw.Name, "_ms") {
			judge(w.p95, hw.Name, AnomalyP95, hw.Name, hw.P95, func(base float64) bool {
				return base > 0 && hw.P95 >= w.cfg.P95Factor*base
			})
		}
	}

	for i := range win.Counters {
		cw := &win.Counters[i]
		if delta := float64(cw.Delta); strings.Contains(cw.Name, "recovery_fallbacks") {
			judge(w.recRate, cw.Name, AnomalyRecovery, cw.Name, delta, func(base float64) bool {
				return delta >= 1 && delta > w.cfg.RecoveryFactor*base
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
		if total := cw.Delta + misses; ok && total >= w.cfg.MinSamples {
			rate := float64(cw.Delta) / float64(total)
			judge(w.hitRate, prefix, AnomalyHitRate, prefix+"hit_rate", rate, func(base float64) bool {
				return base-rate >= w.cfg.HitRateDrop
			})
		}
	}

	if w.calib != nil {
		for _, s := range w.calib().Sellers {
			over := math.Abs(s.EWMAErr) >= w.cfg.CalibrationErr
			if over && !w.calWarned[s.Seller] {
				flag(AnomalyCalibration, "seller."+s.Seller+".ewma_err", s.EWMAErr, w.cfg.CalibrationErr)
			}
			w.calWarned[s.Seller] = over // rising edge: re-arm once back in band
		}
	}

	w.mu.Unlock()

	w.windowGauge.Set(float64(len(found)))
	for _, a := range found {
		w.anomalies.Inc()
		w.lastWindow.Set(float64(a.Window))
		w.ledg.Anomaly(a.Kind, a.Metric, a.Value, a.Baseline, a.Window)
	}
	return found
}
