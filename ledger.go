package qtrade

// Public surface for the trading ledger: an opt-in, bounded audit log of
// every negotiation the federation runs (RFBs, bids, awards, measured
// execution) plus the calibration layer that compares each seller's quoted
// costs against what the buyer actually measured. Enable it at federation
// creation with WithLedger; when absent the trading hot path pays nothing.

import (
	"io"

	"qtrade/internal/ledger"
)

// FederationOption configures a Federation at creation time.
type FederationOption func(*Federation)

// WithLedger attaches a trading ledger retaining the last capacity
// negotiations (ledger.DefaultCapacity when capacity <= 0). Every node added
// afterwards records its pricing and execution events into the same ledger,
// and every Optimize/Query call opens a negotiation record. Without this
// option the ledger is nil and adds zero allocations to the trading path.
func WithLedger(capacity int) FederationOption {
	return func(f *Federation) {
		f.ledger = ledger.New(capacity)
	}
}

// Ledger returns the federation's trading ledger, or nil when the federation
// was created without WithLedger. The returned value is an http.Handler
// serving the retained negotiations as JSONL, so it can be mounted directly
// on an exposition mux.
func (f *Federation) Ledger() *ledger.Ledger { return f.ledger }

// CalibrationReport aggregates the ledger's economic telemetry: per-seller
// quoted-vs-measured cost ratios, win rates and EWMA quote error. Where the
// time went is the metrics registry's, one _ms histogram per phase. Returns a
// zero Report when the federation has no ledger.
func (f *Federation) CalibrationReport() ledger.Report {
	if f.ledger == nil {
		return ledger.Report{}
	}
	return f.ledger.Calibration()
}

// WriteLedgerJSONL writes the most recent n retained negotiations (all when
// n <= 0) to w, one JSON object per line, oldest first. No-op without a
// ledger.
func (f *Federation) WriteLedgerJSONL(w io.Writer, n int) error {
	if f.ledger == nil {
		return nil
	}
	return f.ledger.WriteJSONL(w, n)
}
