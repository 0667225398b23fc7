package node

import (
	"strings"
	"testing"

	"qtrade/internal/ledger"
	"qtrade/internal/trading"
)

// A seller is sent one SELECT: the buyer unions offers in its own plan. A
// UNION text, plain or streamed, is refused at its first UNION before
// anything opens, so it parks no cursor and files no Served event.
func TestExecuteRefusesAUnionText(t *testing.T) {
	for _, op := range []string{"UNION", "UNION ALL"} {
		for _, stream := range []bool{false, true} {
			n := fullNode(t)
			led := ledger.New(4)
			n.SetLedger(led)
			_, err := n.Execute(trading.ExecReq{OfferID: "rfb7.oracle.1", Stream: stream, BatchRows: 1,
				SQL: "SELECT c.custname FROM customer c " + op + " SELECT c.custname FROM customer c"})
			if err == nil || !strings.Contains(err.Error(), `"UNION"`) {
				t.Errorf("%s (stream %v): Execute = %v, want a refusal naming UNION", op, stream, err)
			}
			if n.OpenCursors() != 0 || len(servedEvents(led)) != 0 {
				t.Errorf("%s (stream %v): %d cursors parked, %d Served events, want none",
					op, stream, n.OpenCursors(), len(servedEvents(led)))
			}
		}
	}
}

func TestStandingStateEviction(t *testing.T) {
	n := fullNode(t)
	q := "SELECT c.custname FROM customer c WHERE c.office = 'Corfu'"
	for i := 0; i < maxStandingRFBs+10; i++ {
		rfb := trading.RFB{RFBID: itoa(i), BuyerID: "b",
			Queries: []trading.QueryRequest{{QID: "q0", SQL: q}}}
		if _, err := n.RequestBids(rfb); err != nil {
			t.Fatal(err)
		}
	}
	n.mu.Lock()
	size := len(n.negs)
	n.mu.Unlock()
	if size > maxStandingRFBs {
		t.Fatalf("standing state grew unbounded: %d", size)
	}
	// The oldest RFB is gone; improving it is a silent no-op.
	offers, err := bidOffers(n.ImproveBids(trading.ImproveReq{RFBID: "0", Prices: trading.QueryPrices{{QID: "q0", Best: 0.001}}}))
	if err != nil || len(offers) != 0 {
		t.Fatalf("evicted rfb must be forgotten: %v %v", offers, err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
