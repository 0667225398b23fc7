package qtrade

// Public surface for the query flight recorder and the windowed metrics
// history: per-query dossiers unifying trace spans, ledger events and
// per-operator actuals, each filed on its negotiation's ledger record; a
// sampler rolling the metrics registry into fixed-width windows; and a
// watchdog comparing each fresh window against a trailing baseline. All
// three are opt-in; absent, the hot path pays only nil checks.

import (
	"time"

	"qtrade/internal/flight"
	"qtrade/internal/ledger"
	"qtrade/internal/obs"
)

// WithFlightRecorder attaches a query flight recorder: every completed
// Query/QueryWithRecovery/Plan.Run files one dossier on its negotiation's
// ledger record, and trigger rules — latency SLO breach, any recovery event,
// quoted-vs-measured cost outlier, est/actual cardinality blowout — keep the
// worstK worst flagged queries (flight.DefaultWorstK when worstK <= 0) past
// the ledger ring's eviction. A federation without a ledger gets a
// default-capacity one automatically: the ledger is where dossiers live.
// Tune the rules, the latency SLO among them, through
// FlightRecorder().SetTriggers.
func WithFlightRecorder(worstK int) FederationOption {
	return func(f *Federation) {
		f.wantFlight, f.worstK = true, worstK
	}
}

// WithMetricsHistory attaches the windowed metrics history: a sampler
// goroutine rolls every registered counter, gauge and histogram into
// window-wide deltas (obs.DefaultHistoryWindow when window <= 0), the last
// obs.DefaultHistoryKeep of them served as JSON by the handler at
// MetricsHistory(). The anomaly watchdog runs the sampler and judges each
// fresh window against trailing baselines — p95 regressions, recovery
// spikes, price-cache hit-rate drops, calibration drift — emitting typed
// anomaly events into the trading ledger (when one is attached) plus
// watchdog.* instruments. Stop the sampler with Watchdog().Stop().
func WithMetricsHistory(window time.Duration) FederationOption {
	return func(f *Federation) {
		f.wantHistory, f.historyWindow = true, window
	}
}

// FlightRecorder returns the federation's flight recorder (an http.Handler
// serving /debug/queries and /debug/queries/{id}), or nil without
// WithFlightRecorder. Nil is safe to use: every method no-ops.
func (f *Federation) FlightRecorder() *flight.Recorder { return f.flight }

// SlowQueries returns up to n retained dossiers, slowest first — the
// outlier set merged with the ledger's recent records. Nil without a
// recorder.
func (f *Federation) SlowQueries(n int) []*ledger.Dossier { return f.flight.Slow(n) }

// MetricsHistory returns the windowed metrics history (an http.Handler
// serving the retained windows as JSON), or nil without WithMetricsHistory.
func (f *Federation) MetricsHistory() *obs.History { return f.watchdog.History() }

// Watchdog returns the anomaly watchdog attached by WithMetricsHistory, or
// nil. Its findings land in the ledger's anomaly stream
// (Ledger().Anomalies()).
func (f *Federation) Watchdog() *flight.Watchdog { return f.watchdog }

// finishObsSetup builds the observability sinks once all FederationOptions
// ran, from the values they recorded, so option order never matters: the
// flight recorder gets a ledger to file dossiers on, and the watchdog starts
// sampling with that ledger attached.
func (f *Federation) finishObsSetup() {
	if f.wantFlight {
		f.flight = flight.NewRecorder(f.worstK)
		if f.ledger == nil {
			f.ledger = ledger.New(0)
		}
	}
	if f.wantHistory {
		f.watchdog = flight.NewWatchdog(f.ledger, f.metrics, f.historyWindow)
		f.watchdog.Start()
	}
}
