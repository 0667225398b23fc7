package trading

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSellersCalledOnlyFromGather holds the seam by construction: the non-test
// files invoke Peer.RequestBids and Peer.ImproveBids only in the closures
// fanOut and improveRound hand to gather, so every seller call of every
// protocol is guarded and observed by gather's one worker loop.
func TestSellersCalledOnlyFromGather(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	home := map[string]string{"RequestBids": "fanOut", "ImproveBids": "improveRound"}
	calls := 0
	for _, file := range pkgs["trading"].Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fd, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || home[fn.Sel.Name] == "" {
					return true
				}
				calls++
				if fd.Name.Name != home[fn.Sel.Name] {
					t.Errorf("%s: %s called in %s; only %s may, through gather", fset.Position(call.Pos()),
						fn.Sel.Name, fd.Name.Name, home[fn.Sel.Name])
				}
				return true
			})
		}
	}
	if calls != 2 {
		t.Errorf("%d seller call sites, want 2 (one RequestBids, one ImproveBids)", calls)
	}
}

// meeting is a barrier the fake sellers of one round share: a call waits
// until size calls are in flight together, so a fan-out narrower than size
// times out instead of passing (and after one timeout nobody waits any
// more), and peak records the widest it got.
type meeting struct {
	mu             sync.Mutex
	size, arrived  int
	release        chan struct{}
	inflight, peak int
	timedOut       bool
}

// meetingPeer is one seller at the meeting; it answers with one offer.
type meetingPeer struct {
	id string
	m  *meeting
}

func (p meetingPeer) RequestBids(RFB) (BidReply, error) {
	m := p.m
	m.mu.Lock()
	m.inflight++
	m.peak = max(m.peak, m.inflight)
	release := m.release
	if m.arrived++; m.arrived == m.size || m.timedOut {
		close(release)
		m.arrived, m.release = 0, make(chan struct{})
	}
	m.mu.Unlock()
	select {
	case <-release:
	case <-time.After(10 * time.Second):
		m.mu.Lock()
		m.timedOut = true
		m.mu.Unlock()
	}
	m.mu.Lock()
	m.inflight--
	m.mu.Unlock()
	return BidReply{Offers: []Offer{{SellerID: p.id, OfferID: p.id + "/o"}}}, nil
}

func (meetingPeer) ImproveBids(ImproveReq) (BidReply, error) { return BidReply{}, nil }

// TestBuyerFanoutOverlapsSellerCalls: a round's RFBs are in flight together —
// all four sellers meet at the barrier. The barrier proves the overlap
// without a clock: a narrower fan-out never fills it.
func TestBuyerFanoutOverlapsSellerCalls(t *testing.T) {
	m := &meeting{size: 4, release: make(chan struct{})}
	peers := map[string]Peer{}
	for _, id := range []string{"s1", "s2", "s3", "s4"} {
		peers[id] = meetingPeer{id, m}
	}
	offers, _, err := SealedBid{}.Collect(rfb1(), Sellers{Peers: peers}, nil)
	if err != nil || len(offers) != 4 {
		t.Fatalf("%d offers, %v", len(offers), err)
	}
	if m.timedOut {
		t.Fatal("4 calls never met in flight")
	}
	if m.peak != 4 {
		t.Fatalf("%d seller calls in flight at most, want 4", m.peak)
	}
}

// hardPeer always fails with a non-transient error.
type hardPeer struct{}

func (hardPeer) RequestBids(RFB) (BidReply, error)        { return BidReply{}, errors.New("hard") }
func (hardPeer) ImproveBids(ImproveReq) (BidReply, error) { return BidReply{}, errors.New("hard") }

// TestSellersObserveFinalOutcome: the observer hears one outcome per call —
// what the policy's retries ended in — never the attempts.
func TestSellersObserveFinalOutcome(t *testing.T) {
	pol := &FaultPolicy{MaxRetries: 2, Backoff: time.Microsecond}
	flaky := &flakyPeer{fails: 2}
	type outcome struct {
		call   string
		offers int
		failed bool
	}
	var mu sync.Mutex
	heard := map[string][]outcome{}
	to := Sellers{
		Peers:  map[string]Peer{"f": flaky, "h": hardPeer{}},
		Policy: pol,
		Observe: func(id, call string, offers int, err error) {
			mu.Lock()
			defer mu.Unlock()
			heard[id] = append(heard[id], outcome{call, offers, err != nil})
		},
	}
	offers, rounds, err := IterativeBid{MaxRounds: 2}.Collect(rfb1(), to, nil)
	if err != nil || rounds != 2 || len(offers) != 1 {
		t.Fatalf("collect: %v offers, %d rounds, %v", offers, rounds, err)
	}
	if got := flaky.calls.Load(); got != 3 {
		t.Fatalf("flaky peer saw %d RequestBids attempts, want 3 (two retried)", got)
	}
	mu.Lock()
	defer mu.Unlock()
	want := map[string][]outcome{
		"f": {{"rfb", 1, false}, {"improve", 0, false}},
		"h": {{"rfb", 0, true}, {"improve", 0, true}},
	}
	for id, w := range want {
		if len(heard[id]) != len(w) {
			t.Fatalf("%s: observer heard %v, want %v", id, heard[id], w)
		}
		for i := range w {
			if heard[id][i] != w[i] {
				t.Fatalf("%s: observer heard %v, want %v", id, heard[id], w)
			}
		}
	}
}
