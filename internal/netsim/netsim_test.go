package netsim

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"qtrade/internal/trading"
	"qtrade/internal/value"
)

// echoService answers every request with one fixed offer / answer.
type echoService struct {
	id   string
	mu   sync.Mutex
	rfbs int
}

func (e *echoService) RequestBids(rfb trading.RFB) (trading.BidReply, error) {
	e.mu.Lock()
	e.rfbs++
	e.mu.Unlock()
	return trading.BidReply{Offers: []trading.Offer{{OfferID: e.id + "/1", RFBID: rfb.RFBID, QID: rfb.Queries[0].QID, SellerID: e.id, SQL: "SELECT 1", Price: 10}}}, nil
}

func (e *echoService) ImproveBids(req trading.ImproveReq) (trading.BidReply, error) {
	return trading.BidReply{}, nil
}

func (e *echoService) Award(trading.Award) error { return nil }

func (e *echoService) Execute(req trading.ExecReq) (trading.ExecResp, error) {
	if strings.Contains(req.SQL, "boom") {
		return trading.ExecResp{}, errors.New("boom")
	}
	return trading.ExecResp{
		Cols: []trading.ColSpec{{Name: "x", Kind: value.Int}},
		Rows: []value.Row{{value.NewInt(7)}},
	}, nil
}

func rfb() trading.RFB {
	return trading.RFB{RFBID: "r1", BuyerID: "buyer", Queries: []trading.QueryRequest{{QID: "q1", SQL: "SELECT 1"}}}
}

func TestRegisterAndPeers(t *testing.T) {
	n := New()
	n.Register("a", &echoService{id: "a"})
	n.Register("b", &echoService{id: "b"})
	n.Register("buyer", &echoService{id: "buyer"})
	if got := n.NodeIDs(); len(got) != 3 || got[0] != "a" {
		t.Fatalf("node ids: %v", got)
	}
	peers := n.Peers("buyer")
	if len(peers) != 2 {
		t.Fatalf("peers exclude self: %v", len(peers))
	}
}

func TestCallCountsMessagesAndBytes(t *testing.T) {
	n := New()
	n.Register("a", &echoService{id: "a"})
	p := n.Peer("buyer", "a")
	rep, err := p.RequestBids(rfb())
	if err != nil || len(rep.Offers) != 1 {
		t.Fatalf("bids: %v %v", rep, err)
	}
	msgs, bytes := n.Stats()
	if msgs != 2 {
		t.Fatalf("messages: %d, want 2 (request+response)", msgs)
	}
	if bytes <= 0 {
		t.Fatal("bytes must be counted")
	}
	if n.SimTimeMS() != 2*n.LatencyMS {
		t.Fatalf("sim time: %f", n.SimTimeMS())
	}
	n.Reset()
	if m, b := n.Stats(); m != 0 || b != 0 || n.SimTimeMS() != 0 {
		t.Fatal("reset")
	}
}

func TestUnknownAndDownNodes(t *testing.T) {
	n := New()
	n.Register("a", &echoService{id: "a"})
	if _, err := n.Peer("x", "ghost").RequestBids(rfb()); err == nil {
		t.Fatal("unknown node must error")
	}
	n.CrashNode("a")
	if _, err := n.Peer("x", "a").RequestBids(rfb()); err == nil {
		t.Fatal("crashed node must error")
	}
	n.RestartNode("a")
	if _, err := n.Peer("x", "a").RequestBids(rfb()); err != nil {
		t.Fatalf("revived node: %v", err)
	}
	// A call to a crashed node still cost its request: one message, charged
	// on the x→a link only (nothing came back).
	n.Reset()
	n.CrashNode("a")
	req := rfb()
	_, _ = n.Peer("x", "a").RequestBids(req)
	if m, b := n.Stats(); m != 1 || b != int64(req.WireSize()) {
		t.Fatalf("crashed call must charge the lost request: %d msgs %d bytes", m, b)
	}
	by := n.StatsByPair()
	if st := by[Pair{From: "x", To: "a"}]; st.Messages != 1 {
		t.Fatalf("x->a: %+v", st)
	}
	if st := by[Pair{From: "a", To: "x"}]; st.Messages != 0 {
		t.Fatalf("a->x must stay empty: %+v", st)
	}
	// A call to an unknown node costs nothing: there is no route to send on.
	n.Reset()
	_, _ = n.Peer("x", "ghost").RequestBids(rfb())
	if m, _ := n.Stats(); m != 0 {
		t.Fatalf("unknown-node call counted: %d", m)
	}
}

func TestExecuteAndAwardAccounting(t *testing.T) {
	n := New()
	n.Register("a", &echoService{id: "a"})
	resp, err := n.Execute("buyer", "a", trading.ExecReq{SQL: "SELECT 1"})
	if err != nil || len(resp.Rows) != 1 {
		t.Fatalf("execute: %v %v", resp, err)
	}
	if err := n.Award("buyer", "a", trading.Award{RFBID: "r", OfferID: "o"}); err != nil {
		t.Fatal(err)
	}
	msgs, _ := n.Stats()
	if msgs != 4 {
		t.Fatalf("messages: %d, want 4", msgs)
	}
	if _, err := n.Execute("buyer", "a", trading.ExecReq{SQL: "boom"}); err == nil {
		t.Fatal("execute error must propagate")
	}
}

func TestImproveBidsAccounting(t *testing.T) {
	n := New()
	n.Register("a", &echoService{id: "a"})
	if _, err := n.Peer("b", "a").ImproveBids(trading.ImproveReq{RFBID: "r"}); err != nil {
		t.Fatal(err)
	}
	if msgs, _ := n.Stats(); msgs != 2 {
		t.Fatalf("improve messages: %d", msgs)
	}
}

func TestConcurrentCallsAreSafe(t *testing.T) {
	n := New()
	svc := &echoService{id: "a"}
	n.Register("a", svc)
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := n.Peer("x", "a").RequestBids(rfb()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if msgs, _ := n.Stats(); msgs != 100 {
		t.Fatalf("messages: %d", msgs)
	}
	if svc.rfbs != 50 {
		t.Fatalf("service calls: %d", svc.rfbs)
	}
}

func TestRPCLoopback(t *testing.T) {
	svc := &echoService{id: "rpcnode"}
	ln, err := ServeRPC("127.0.0.1:0", "Node", svc)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peer, err := DialPeer(ln.Addr().String(), "Node")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	rep, err := peer.RequestBids(rfb())
	if err != nil || len(rep.Offers) != 1 || rep.Offers[0].SellerID != "rpcnode" {
		t.Fatalf("rpc bids: %v %v", rep, err)
	}
	if _, err := peer.ImproveBids(trading.ImproveReq{RFBID: "r"}); err != nil {
		t.Fatalf("rpc improve: %v", err)
	}
	if err := peer.Award(trading.Award{RFBID: "r", OfferID: "o"}); err != nil {
		t.Fatalf("rpc award: %v", err)
	}
	resp, err := peer.Execute(trading.ExecReq{SQL: "SELECT 1"})
	if err != nil || len(resp.Rows) != 1 || resp.Rows[0][0].I != 7 {
		t.Fatalf("rpc execute: %v %v", resp, err)
	}
	// Remote errors surface as client errors.
	if _, err := peer.Execute(trading.ExecReq{SQL: "boom"}); err == nil {
		t.Fatal("rpc error must propagate")
	}
}

func TestStatsByPairBreakdown(t *testing.T) {
	n := New()
	n.Register("a", &echoService{id: "a"})
	n.Register("b", &echoService{id: "b"})
	if _, err := n.Peer("buyer", "a").RequestBids(rfb()); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Peer("buyer", "b").RequestBids(rfb()); err != nil {
		t.Fatal(err)
	}
	by := n.StatsByPair()
	// The request travels buyer->a, its response a->buyer.
	if st := by[Pair{From: "buyer", To: "a"}]; st.Messages != 1 || st.Bytes <= 0 {
		t.Fatalf("buyer->a: %+v", st)
	}
	if st := by[Pair{From: "a", To: "buyer"}]; st.Messages != 1 || st.Bytes <= 0 {
		t.Fatalf("a->buyer: %+v", st)
	}
	// The breakdown must sum to the aggregate counters.
	var msgs, bytes int64
	for _, st := range by {
		msgs += st.Messages
		bytes += st.Bytes
	}
	if am, ab := n.Stats(); msgs != am || bytes != ab {
		t.Fatalf("pair sums %d/%d != aggregate %d/%d", msgs, bytes, am, ab)
	}
	n.Reset()
	if len(n.StatsByPair()) != 0 {
		t.Fatal("Reset must clear the pair breakdown")
	}
}
