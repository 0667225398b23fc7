package ledger

import (
	"encoding/json"
	"net/http"

	"qtrade/internal/obs"
)

// ServeHTTP serves the retained negotiations as JSONL (one negotiation per
// line, oldest first) — the /ledger endpoint. ?n=k limits the response to
// the last k negotiations. GET only; 404 while the ring is empty so probes
// can tell "ledger on, nothing traded yet" from an active ledger.
func (l *Ledger) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	n, ok := obs.CountParam(w, r, 0)
	if !ok {
		return
	}
	if l.Len() == 0 {
		http.Error(w, "no negotiations recorded yet", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	_ = l.WriteJSONL(w, n)
}

// CalibrationHandler returns the /calibration endpoint: the current
// calibration report as one JSON object. GET only.
func (l *Ledger) CalibrationHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(l.Calibration())
	})
}
