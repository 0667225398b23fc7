package trading

import (
	"time"

	"qtrade/internal/expr"
	"qtrade/internal/value"
)

// Fetch is the client half of the chunked fetch ExecReq describes, and the
// only one: it opens a purchased answer, continues it with Seq+1 while the
// seller reports More, releases the seller's cursor when closed early, and
// adds up what the delivery actually cost. It is handed the one call that
// crosses the wire; whoever makes that call owns what surrounds it — guard,
// spans, failure attribution — and may deliver a request more than once (a
// retried lost reply): Seq only moves on when a reply arrives. A Fetch is the
// executor's row stream for a Remote leaf; it is not safe for concurrent use.
type Fetch struct {
	call    func(ExecReq) (ExecResp, error)
	offerID string
	chunk   int

	cols   []expr.ColumnID
	held   []value.Row // rows of the latest reply not yet handed out
	cursor string      // continuation token; empty once the seller has no more
	seq    int64
	done   bool // exhausted, failed or closed

	// The actuals of the delivery so far: rows and WireSize bytes over every
	// reply, client-side wall time over every exchange, and the seller's own
	// cumulative execution time as its latest reply reported it.
	Rows, Bytes    int64
	WallMS, ExecMS float64
}

// Open sends the opening request as it stands — Stream and BatchRows are the
// caller's choice; a plain request's whole answer is the opening reply — and
// holds the reply for Next, which hands out at most chunk rows at a time
// (chunk <= 0: each reply as it came).
func (f *Fetch) Open(call func(ExecReq) (ExecResp, error), req ExecReq, chunk int) error {
	*f = Fetch{call: call, offerID: req.OfferID, chunk: chunk}
	resp, err := f.exchange(req)
	if err != nil {
		return err
	}
	f.cols = ColumnIDs(resp.Cols)
	f.held = resp.Rows
	return nil
}

// exchange is one round trip, the opening one or a continuation. A failure
// ends the fetch.
func (f *Fetch) exchange(req ExecReq) (ExecResp, error) {
	t0 := time.Now()
	resp, err := f.call(req)
	f.WallMS += float64(time.Since(t0).Microseconds()) / 1000
	if err != nil {
		f.done = true
		return resp, err
	}
	f.ExecMS = resp.ExecMS // cumulative on the seller side: the last reply carries the total
	f.Rows += int64(len(resp.Rows))
	f.Bytes += int64(resp.WireSize())
	f.cursor = ""
	if resp.More {
		f.cursor = resp.Cursor
	}
	return resp, nil
}

// Cols is the seller's declared output schema, known from the opening reply
// even when the answer is empty.
func (f *Fetch) Cols() []expr.ColumnID { return f.cols }

// Next returns the next batch, fetching a continuation when the rows in hand
// are spent; nil once the answer is exhausted, or after a failure or Close.
func (f *Fetch) Next() ([]value.Row, error) {
	for !f.done {
		if b := f.held; len(b) > 0 {
			if f.chunk > 0 && len(b) > f.chunk {
				b = b[:f.chunk]
			}
			f.held = f.held[len(b):]
			return b, nil
		}
		if f.cursor == "" {
			f.done = true
			break
		}
		resp, err := f.exchange(ExecReq{OfferID: f.offerID, Cursor: f.cursor, Seq: f.seq + 1})
		if err != nil {
			return nil, err
		}
		f.seq++
		f.held = resp.Rows
	}
	return nil, nil
}

// Close ends the fetch. Abandoning an unfinished answer (LIMIT satisfied, a
// sibling leaf failed) sends the seller a best-effort cursor release, so its
// parked execution is reclaimed at once instead of waiting for eviction.
func (f *Fetch) Close() error {
	if !f.done && f.cursor != "" {
		_, _ = f.call(ExecReq{OfferID: f.offerID, Cursor: f.cursor, CloseCursor: true})
	}
	f.done = true
	return nil
}
