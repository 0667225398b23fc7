package flight

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"qtrade/internal/ledger"
	"qtrade/internal/obs"
)

// dossierSummary is the list-view row at /debug/queries: everything needed
// to decide which dossier to open, without shipping spans and operators.
type dossierSummary struct {
	ID         string   `json:"id"`
	Buyer      string   `json:"buyer"`
	SQL        string   `json:"sql"`
	WallMS     float64  `json:"wall_ms"`
	ExecMS     float64  `json:"exec_ms"`
	QuotedMS   float64  `json:"quoted_ms"`
	CostRatio  float64  `json:"cost_ratio,omitempty"`
	Rows       int64    `json:"rows"`
	WireBytes  int64    `json:"wire_bytes"`
	Err        string   `json:"err,omitempty"`
	Recoveries int      `json:"recoveries,omitempty"`
	CardError  float64  `json:"max_card_error,omitempty"`
	Triggers   []string `json:"triggers,omitempty"`
}

func summarize(d *ledger.Dossier) dossierSummary {
	return dossierSummary{
		ID: d.ID, Buyer: d.Buyer, SQL: d.SQL,
		WallMS: d.WallMS, ExecMS: d.ExecMS, QuotedMS: d.QuotedMS,
		CostRatio: d.CostRatio, Rows: d.Rows, WireBytes: d.WireBytes,
		Err: d.Err, Recoveries: len(d.Recoveries), CardError: d.CardError,
		Triggers: d.Triggers,
	}
}

type recorderPayload struct {
	Capacity int              `json:"capacity"`
	WorstK   int              `json:"worst_k"`
	Admitted int64            `json:"admitted"`
	Flagged  int64            `json:"flagged"`
	Recent   []dossierSummary `json:"recent"`
	Outliers []dossierSummary `json:"outliers"`
}

// ServeHTTP serves the recorder on both /debug/queries (summaries of the
// ledger's recent dossiers and the worst-K outliers; ?n=k limits the recent
// list; capacity is the ledger ring's) and /debug/queries/{id} (one full
// dossier: spans, ledger events, operators).
// A nil recorder answers 404 so a disabled federation stays mountable.
func (r *Recorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if r == nil {
		http.Error(w, "flight recorder disabled", http.StatusNotFound)
		return
	}
	// Accept /debug/queries, /debug/queries/ and /debug/queries/{id}
	// regardless of the mount prefix.
	path := strings.TrimSuffix(req.URL.Path, "/")
	if i := strings.LastIndex(path, "/debug/queries"); i >= 0 {
		path = path[i+len("/debug/queries"):]
	}
	id := strings.TrimPrefix(path, "/")
	var body any
	if id != "" {
		d := r.Get(id)
		if d == nil {
			http.Error(w, fmt.Sprintf("no dossier %q (evicted or never captured)", id), http.StatusNotFound)
			return
		}
		body = d
	} else {
		n, ok := obs.CountParam(w, req, 0)
		if !ok {
			return
		}
		led, outs := r.view()
		admitted, flagged := r.Stats()
		p := recorderPayload{
			Capacity: led.Capacity(), WorstK: r.worstK,
			Admitted: admitted, Flagged: flagged,
			Recent: make([]dossierSummary, 0, 8), Outliers: make([]dossierSummary, 0, 8),
		}
		// Summaries leave the ledger chain out: no record's events are copied.
		for _, rec := range led.Finished(n) {
			p.Recent = append(p.Recent, summarize(rec.Outcome()))
		}
		for _, rec := range outs {
			p.Outliers = append(p.Outliers, summarize(rec.Outcome()))
		}
		body = p
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(body)
}
