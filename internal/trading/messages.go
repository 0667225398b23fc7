// Package trading implements the generic e-commerce trading layer of §2 of
// the paper, specialized to query-answers as the commodity: the message
// vocabulary (requests for bids, offers, improvement rounds), the negotiation
// protocols (sealed bidding, iterative bidding, bargaining) and the pricing
// strategies (cooperative truthful, competitive with adaptive margin,
// load-aware). The buyer and seller *content* — which queries to ask for,
// what partial answers to offer — lives in the node and core packages; this
// package only knows values and messages, exactly like the protocol/strategy
// module split of Figure 1 in the paper.
package trading

import (
	"qtrade/internal/cost"
	"qtrade/internal/expr"
	"qtrade/internal/obs"
	"qtrade/internal/value"
)

// QueryRequest is one entry of the buyer's set Q: a query (as SQL text) the
// buyer would like to purchase.
type QueryRequest struct {
	QID string
	SQL string
}

// RFB is a request for bids (step B2 of the algorithm). Depth counts
// subcontracting hops: buyers send Depth 0; a seller purchasing missing
// fragments from third nodes (§3.5) re-issues the gap queries at Depth 1,
// and sellers never subcontract a Depth>0 request (bounded recursion).
type RFB struct {
	RFBID   string
	BuyerID string
	Depth   int
	// Trace is the buyer's distributed-tracing context. The zero value means
	// unsampled: sellers record nothing and the wire size is unchanged.
	Trace   obs.TraceContext
	Queries []QueryRequest
}

// ColSpec describes one output column of an offered query-answer.
type ColSpec struct {
	Table string
	Name  string
	Kind  value.Kind
}

// ColumnIDs is the executor's view of a declared output schema: every column
// by table and name, its kind left behind.
func ColumnIDs(cols []ColSpec) []expr.ColumnID {
	ids := make([]expr.ColumnID, len(cols))
	for i, c := range cols {
		ids[i] = expr.ColumnID{Table: c.Table, Name: c.Name}
	}
	return ids
}

// Offer is a seller's bid: an offer to deliver the answer of SQL (typically
// a rewritten part of a requested query) at the given valuation and price.
type Offer struct {
	OfferID  string
	RFBID    string
	QID      string // the buyer query this offer responds to
	SellerID string
	SQL      string
	// Bindings are the FROM bindings of the original query covered by the
	// offer; Parts maps each (lower-cased) binding to the partition ids
	// covered.
	Bindings []string
	Parts    map[string][]string
	// Complete reports full coverage of every partition of every covered
	// relation; Stripped reports, for an aggregate query, that the rows are
	// unaggregated (the offer's SQL has no aggregate and no GROUP BY) and the
	// buyer aggregates them; FromView marks offers derived from materialized
	// views (§3.5); PartialAgg marks per-fragment partial aggregates the
	// buyer merges (SUM of SUMs) instead of re-aggregating raw rows.
	Complete   bool
	Stripped   bool
	FromView   bool
	PartialAgg bool
	Cols       []ColSpec
	Props      cost.Valuation
	Price      float64 // the asked value under the federation's weighting
}

// WireSize estimates the network size of an offer in bytes, for the message
// accounting the experiments report.
func (o *Offer) WireSize() int {
	n := 96 + len(o.OfferID) + len(o.RFBID) + len(o.QID) + len(o.SellerID) + len(o.SQL)
	for _, b := range o.Bindings {
		n += len(b) + 4
	}
	for k, ps := range o.Parts {
		n += len(k) + 4
		for _, p := range ps {
			n += len(p) + 4
		}
	}
	n += 24 * len(o.Cols)
	return n
}

// WireSize estimates the network size of an RFB.
func (r *RFB) WireSize() int {
	n := 32 + len(r.RFBID) + len(r.BuyerID) + r.Trace.WireSize()
	for _, q := range r.Queries {
		n += 24 + len(q.QID) + len(q.SQL)
	}
	return n
}

// BidReply is the seller's reply envelope for RequestBids/ImproveBids: the
// offers plus, when the request's trace context was sampled, the seller's
// finished span subtree for the exchange (nil otherwise). With a nil Trace
// the wire size is exactly the pre-envelope framing + offers.
type BidReply struct {
	Offers Offers
	Trace  *obs.SpanPayload
}

// WireSize estimates the network size of the reply.
func (r *BidReply) WireSize() int {
	n := 8 + r.Trace.WireSize()
	for i := range r.Offers {
		n += r.Offers[i].WireSize()
	}
	return n
}

// ImproveReq asks sellers to improve their standing offers given the best
// competing price per query (iterative bidding) or a buyer target price
// (bargaining counter-offer).
type ImproveReq struct {
	RFBID   string
	BuyerID string
	// Trace is the buyer's distributed-tracing context (see RFB.Trace).
	Trace obs.TraceContext
	// Bargain reports that each entry of Prices carries the buyer's
	// counter-offer.
	Bargain bool
	// Prices has one entry per query with standing offers, in QID order.
	Prices QueryPrices
}

// QueryPrice is one query's entry of an improvement request.
type QueryPrice struct {
	QID    string
	Best   float64 // the best standing price
	Target float64 // the buyer's counter-offer, when bargaining
}

// WireSize estimates the network size of an improvement request.
func (r *ImproveReq) WireSize() int {
	n := 32 + len(r.RFBID) + len(r.BuyerID) + r.Trace.WireSize()
	n += 24 * len(r.Prices)
	if r.Bargain {
		n += 24 * len(r.Prices)
	}
	return n
}

// Award notifies a seller that its offer won and asks it to stand by to
// deliver (execution happens later via ExecReq).
type Award struct {
	RFBID   string
	OfferID string
	BuyerID string
}

// WireSize estimates the network size of an award message.
func (a *Award) WireSize() int { return 24 + len(a.RFBID) + len(a.OfferID) + len(a.BuyerID) }

// ExecReq asks a seller to actually evaluate a purchased query and ship the
// answer. It is the only message that triggers execution.
//
// Answers ship whole by default. The streaming fields turn the exchange into
// a chunked fetch over the same message pair (the client is Fetch, fetch.go):
// Stream asks the seller to open a cursor and return at most BatchRows rows
// plus a continuation token; the request is then repeated with Cursor set and
// Seq incremented per batch until More goes false, or with CloseCursor to
// abandon the rest. A seller re-delivers the batch it already sent for a
// repeated Seq instead of advancing, so a retry is safe. The request itself is
// plain gob, but the answer's rows, a bid reply's offers and an improvement
// request's prices cross the wire in the trading codec (codec.go), which a
// node of an older build does not read: federations of mixed builds do not
// interoperate.
type ExecReq struct {
	BuyerID string
	OfferID string
	SQL     string
	// Stream requests chunked delivery of at most BatchRows rows per
	// response (0 means the seller's default).
	Stream    bool
	BatchRows int
	// Cursor continues (or, with CloseCursor, releases) a previously opened
	// seller-side cursor. Seq is the 1-based index of the requested batch.
	Cursor      string
	Seq         int64
	CloseCursor bool
	// Trace is the buyer's distributed-tracing context (see RFB.Trace).
	Trace obs.TraceContext
}

// WireSize estimates the network size of an execution request.
func (e *ExecReq) WireSize() int {
	n := 24 + len(e.BuyerID) + len(e.OfferID) + len(e.SQL) + e.Trace.WireSize()
	if e.Stream {
		n += 12 // stream flag + batch hint
	}
	if e.Cursor != "" {
		n += len(e.Cursor) + 12 // token + seq + close flag
	}
	return n
}

// ExecResp carries a shipped query answer (or one batch of it) and, when the
// request was sampled, the seller's execution span subtree. ExecMS is the
// seller's own measured execution wall time in milliseconds — the actual
// cost behind the quote it bid with, which the buyer's trading ledger
// compares against the offer's estimated TotalTime for cost-model
// calibration; on a streamed answer each batch reports the cumulative wall
// time so far, so the final batch carries the total.
type ExecResp struct {
	Cols   []ColSpec
	Rows   Rows
	ExecMS float64
	// Cursor is the continuation token of a streamed answer; More reports
	// whether batches remain beyond this one. An exhausted-or-unstreamed
	// answer leaves both zero.
	Cursor string
	More   bool
	Trace  *obs.SpanPayload
}

// WireSize estimates the network size of a shipped answer.
func (e *ExecResp) WireSize() int {
	n := 24 + 24*len(e.Cols) + e.Trace.WireSize()
	if e.Cursor != "" {
		n += len(e.Cursor) + 8 // token + more flag
	}
	for _, r := range e.Rows {
		for _, v := range r {
			switch v.K {
			case value.Str:
				n += len(v.S) + 4
			default:
				n += 8
			}
		}
	}
	return n
}
