package netsim

import (
	"fmt"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"qtrade/internal/cost"
	"qtrade/internal/trading"
	"qtrade/internal/value"
)

// scriptedService serves one bid reply to every RFB and one streamed answer
// in three batches, by Seq, as a seller's cursor delivers it: the opening
// batch with the columns, a middle batch, an empty final one.
type scriptedService struct{}

var scriptedBids = trading.BidReply{Offers: trading.Offers{
	{OfferID: "s/1", RFBID: "r1", QID: "q1", SellerID: "s", SQL: "SELECT c.custid, SUM(i.charge) FROM customer c, invoiceline i WHERE c.custid = i.custid GROUP BY c.custid",
		Bindings: []string{"c", "i"}, Parts: map[string][]string{"c": {"corfu", "myconos"}, "i": {"p0"}},
		Complete: true, PartialAgg: true,
		Cols:  []trading.ColSpec{{Table: "c", Name: "custid", Kind: value.Int}, {Name: "_pa0", Kind: value.Float}},
		Props: cost.Valuation{TotalTime: 6.92, FirstRow: 0.5, RowsPerSec: 1e5, Rows: 12, Bytes: 384, Freshness: 1, Completeness: 1},
		Price: 6.92},
	{OfferID: "s/2", RFBID: "r1", QID: "q1", SellerID: "s", SQL: "SELECT office FROM officetotals",
		Bindings: []string{"c"}, Stripped: true, FromView: true, Props: cost.Valuation{TotalTime: 1, Rows: -1}, Price: 1.5},
	{OfferID: "s/3", RFBID: "r1", QID: "q2", SellerID: "s", SQL: "SELECT 1", Parts: map[string][]string{}},
}}

var scriptedBatches = []trading.ExecResp{
	{Cols: []trading.ColSpec{{Table: "c", Name: "custid", Kind: value.Int}, {Table: "c", Name: "custname", Kind: value.Str}, {Table: "i", Name: "charge", Kind: value.Float}},
		Rows: trading.Rows{
			{value.NewInt(math.MinInt64), value.NewStr(""), value.NewFloat(math.Copysign(0, -1))},
			{value.NewInt(7), value.NewStr("\xff\xfe"), value.NewNull()},
		},
		ExecMS: 0.25, Cursor: "s.c1", More: true},
	{Rows: trading.Rows{
		{value.NewBool(true)},
		{value.NewInt(math.MaxInt64), value.NewStr("alice"), value.NewFloat(12.5), value.NewBool(false)},
	}, ExecMS: 0.5, Cursor: "s.c1", More: true},
	{ExecMS: 0.75},
}

func (scriptedService) RequestBids(trading.RFB) (trading.BidReply, error) { return scriptedBids, nil }

func (scriptedService) ImproveBids(trading.ImproveReq) (trading.BidReply, error) {
	return trading.BidReply{}, nil
}

func (scriptedService) Award(trading.Award) error { return nil }

func (scriptedService) Execute(req trading.ExecReq) (trading.ExecResp, error) {
	switch {
	case req.CloseCursor:
		return trading.ExecResp{}, nil
	case req.Seq < 0 || req.Seq >= int64(len(scriptedBatches)):
		return trading.ExecResp{}, fmt.Errorf("no batch %d", req.Seq)
	}
	return scriptedBatches[req.Seq], nil
}

// TestRPCDeliversWhatTheBusDelivers: the bid reply and every batch of a
// streamed answer arrive over net/rpc — through the trading codec — exactly
// as the in-process bus hands them over.
func TestRPCDeliversWhatTheBusDelivers(t *testing.T) {
	bus := New()
	bus.Register("s", scriptedService{})
	ln, err := ServeRPC("127.0.0.1:0", "Node", scriptedService{})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peer, err := DialPeer(ln.Addr().String(), "Node")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	want, err := bus.Peer("b", "s").RequestBids(rfb())
	if err != nil {
		t.Fatal(err)
	}
	got, err := peer.RequestBids(rfb())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("bid reply over rpc:\n got %#v\nwant %#v", got, want)
	}
	for seq := range scriptedBatches {
		req := trading.ExecReq{OfferID: "s/1", Stream: true}
		if seq > 0 {
			req = trading.ExecReq{OfferID: "s/1", Cursor: "s.c1", Seq: int64(seq)}
		}
		want, err := bus.Execute("b", "s", req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := peer.Execute(req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d over rpc:\n got %#v\nwant %#v", seq, got, want)
		}
	}
}

// rpcRoles counts live goroutines by the net/rpc role they were started in:
// a served node's accept loop, one ServeConn per accepted connection, one
// reader per dialled client.
func rpcRoles() map[string]int {
	roles := map[string]string{
		"qtrade/internal/netsim.ServeRPC.func1": "accept",
		"net/rpc.(*Server).ServeConn":           "serve",
		"net/rpc.(*Client).input":               "client",
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	out := map[string]int{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		lines := strings.Split(g, "\n")
		for i, l := range lines {
			if strings.HasPrefix(l, "created by ") && i >= 2 {
				fn := lines[i-2] // the goroutine's own function, above its file line
				if j := strings.LastIndex(fn, "("); j > 0 {
					fn = fn[:j]
				}
				if role, ok := roles[fn]; ok {
					out[role]++
				}
			}
		}
	}
	return out
}

// TestRPCReleasesItsGoroutines: four served and dialled nodes, each asked for
// bids and streamed an answer, hold exactly one accept loop, one ServeConn
// and one client reader each — the twelve goroutines beside main a running
// telco_tcp federation shows — and closing the peers and the listeners
// releases every one of them.
func TestRPCReleasesItsGoroutines(t *testing.T) {
	// What earlier tests served and closed is on its way out; let it go.
	settled := func(what string, done func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !done(); time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("5s %s: %d goroutines, rpc roles live: %v", what, runtime.NumGoroutine(), rpcRoles())
			}
		}
	}
	settled("before the test", func() bool { return len(rpcRoles()) == 0 })
	base := runtime.NumGoroutine()
	var lns []net.Listener
	var peers []*RPCPeer
	for i := 0; i < 4; i++ {
		ln, err := ServeRPC("127.0.0.1:0", "Node", scriptedService{})
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		p, err := DialPeer(ln.Addr().String(), "Node")
		if err != nil {
			t.Fatal(err)
		}
		peers = append(peers, p)
	}
	for _, p := range peers {
		if _, err := p.RequestBids(rfb()); err != nil {
			t.Fatal(err)
		}
		var f trading.Fetch
		if err := f.Open(p.Execute, trading.ExecReq{OfferID: "s/1", Stream: true}, 0); err != nil {
			t.Fatal(err)
		}
		rows := 0
		for {
			b, err := f.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			rows += len(b)
		}
		if err := f.Close(); err != nil || rows != 4 {
			t.Fatalf("streamed %d rows, want 4 (close: %v)", rows, err)
		}
	}
	want := map[string]int{"accept": 4, "serve": 4, "client": 4}
	if got := rpcRoles(); !reflect.DeepEqual(got, want) {
		t.Fatalf("a live federation of four holds %v, want %v", got, want)
	}

	for i := range peers {
		peers[i].Close()
		lns[i].Close()
	}
	settled(fmt.Sprintf("after closing (%d goroutines before)", base), func() bool {
		return len(rpcRoles()) == 0 && runtime.NumGoroutine() <= base
	})
}
