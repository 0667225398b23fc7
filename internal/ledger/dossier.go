package ledger

import (
	"time"

	"qtrade/internal/obs"
)

// OpStat is one operator's est-vs-actual row in a dossier, in the plan's
// pre-order (Depth indents like EXPLAIN).
type OpStat struct {
	Op       string  `json:"op"`
	Depth    int     `json:"depth"`
	EstRows  int64   `json:"est_rows"`            // -1 when the generator had no estimate
	Rows     int64   `json:"actual_rows"`         // rows produced
	RowsIn   int64   `json:"rows_in,omitempty"`   // rows consumed from children
	Calls    int     `json:"calls,omitempty"`     // cursor invocations
	TimeMS   float64 `json:"time_ms"`             // self+children elapsed
	Executed bool    `json:"executed"`            // false: purchased but pruned / never pulled
	ErrRatio float64 `json:"err_ratio,omitempty"` // max(est/actual, actual/est), smoothed by +1
}

// Recovery is one execution-time substitution the dossier's query survived.
type Recovery struct {
	Failed     string `json:"failed"`     // seller that did not deliver
	Substitute string `json:"substitute"` // seller whose standing offer patched the plan
	OfferID    string `json:"offer"`
	Reason     string `json:"reason,omitempty"` // crash/drain/timeout/…
}

// Dossier is one completed query's flight record: the outcome of the
// negotiation whose record it is filed on.
type Dossier struct {
	ID    string    `json:"id"` // negotiation id (first RFB id)
	Buyer string    `json:"buyer"`
	SQL   string    `json:"sql"`
	Start time.Time `json:"start"`

	WallMS     float64 `json:"wall_ms"`     // optimize + execute
	OptimizeMS float64 `json:"optimize_ms"` // B1–B8 negotiation wall
	ExecMS     float64 `json:"exec_ms"`     // winning-plan execution wall

	QuotedMS    float64 `json:"quoted_ms"`            // Σ purchased offers' quoted cost
	QuotedPrice float64 `json:"quoted_price"`         // Σ purchased offers' asking prices
	FetchMS     float64 `json:"fetch_ms,omitempty"`   // Σ buyer-measured delivery walls
	CostRatio   float64 `json:"cost_ratio,omitempty"` // measured / quoted (>1 sellers underquoted)

	Rows      int64  `json:"rows"`
	WireBytes int64  `json:"wire_bytes"`
	Err       string `json:"err,omitempty"`

	CardError  float64    `json:"max_card_error,omitempty"` // worst OpStat.ErrRatio
	Recoveries []Recovery `json:"recoveries,omitempty"`
	Triggers   []string   `json:"triggers,omitempty"` // why the outlier set kept it

	Operators []OpStat           `json:"operators,omitempty"`
	Ledger    Negotiation        `json:"ledger"` // filled from the record when read
	Spans     []*obs.SpanPayload `json:"spans,omitempty"`
}

// Delivery returns the record's fetch walls and wire bytes summed, and its
// recoveries in order: running sums, so no event is walked or copied.
func (r *Rec) Delivery() (fetchMS float64, wireBytes int64, recoveries []Recovery) {
	if r == nil {
		return 0, 0, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fetchMS, r.wireBytes, append([]Recovery(nil), r.recoveries...)
}

// Finish files d as the record's outcome. A later execution of the same
// negotiation (a recovery re-run) replaces it. Nil-safe.
func (r *Rec) Finish(d *Dossier) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.dossier = d
	r.mu.Unlock()
}

// Outcome returns the dossier Finish filed (nil when none), shared and
// read-only, its Ledger empty; Dossier returns it filled.
func (r *Rec) Outcome() *Dossier {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dossier
}

// Dossier returns a copy of the record's outcome whose Ledger is the
// negotiation as recorded so far (nil when nothing was filed).
func (r *Rec) Dossier() *Dossier {
	d := r.Outcome()
	if d == nil {
		return nil
	}
	out := *d
	out.Ledger = r.Snapshot()
	return &out
}

// Ledger returns the ledger the record belongs to (nil for a nil record).
func (r *Rec) Ledger() *Ledger {
	if r == nil {
		return nil
	}
	return r.l
}

// Finished returns up to n retained records carrying a dossier, newest first
// (all of them when n <= 0). Nil-safe.
func (l *Ledger) Finished(n int) []*Rec {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	recs := append([]*Rec(nil), l.negs...)
	l.mu.Unlock()
	var out []*Rec
	for i := len(recs) - 1; i >= 0 && (n <= 0 || len(out) < n); i-- {
		if recs[i].Outcome() != nil {
			out = append(out, recs[i])
		}
	}
	return out
}

// Lookup returns the retained record id is filed under (nil when evicted or
// never filed). Nil-safe.
func (l *Ledger) Lookup(id string) *Rec {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.byRFB[id]
}

// Capacity reports how many negotiations the ring retains at most (0 for a
// nil ledger).
func (l *Ledger) Capacity() int {
	if l == nil {
		return 0
	}
	return l.cap
}
