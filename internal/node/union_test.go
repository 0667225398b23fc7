package node

import (
	"testing"

	"qtrade/internal/trading"
)

func TestExecuteUnionAll(t *testing.T) {
	n := fullNode(t)
	resp, err := n.Execute(trading.ExecReq{SQL: `
		SELECT c.custname FROM customer c WHERE c.office = 'Corfu'
		UNION ALL
		SELECT c.custname FROM customer c WHERE c.office = 'Corfu'`})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 4 {
		t.Fatalf("union all rows: %d", len(resp.Rows))
	}
}

func TestExecuteUnionDistinct(t *testing.T) {
	n := fullNode(t)
	resp, err := n.Execute(trading.ExecReq{SQL: `
		SELECT c.office FROM customer c WHERE c.custid < 3
		UNION
		SELECT c.office FROM customer c`})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 2 {
		t.Fatalf("union distinct rows: %v", resp.Rows)
	}
}

func TestExecuteUnionWidthMismatch(t *testing.T) {
	n := fullNode(t)
	_, err := n.Execute(trading.ExecReq{SQL: `
		SELECT c.office FROM customer c
		UNION ALL
		SELECT c.office, c.custid FROM customer c`})
	if err == nil {
		t.Fatal("mismatched union widths must error")
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
