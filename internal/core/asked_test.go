package core_test

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"qtrade/internal/core"
	"qtrade/internal/netsim"
	"qtrade/internal/trading"
	"qtrade/internal/workload"
)

// askLog records every RFB each seller is sent, the buyer's own node
// included, in the order they were sent.
type askLog struct {
	mu   sync.Mutex
	rfbs map[string][]trading.RFB
}

func (l *askLog) add(id string, rfb trading.RFB) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rfbs == nil {
		l.rfbs = map[string][]trading.RFB{}
	}
	l.rfbs[id] = append(l.rfbs[id], rfb)
}

func (l *askLog) sent(id string) []trading.RFB {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rfbs[id]
}

// askingPeer records each RFB before passing it on to the seller. While
// failFirst is set its first RFB fails without reaching the seller.
type askingPeer struct {
	id        string
	inner     trading.Peer
	log       *askLog
	mu        sync.Mutex
	failFirst bool
}

func (p *askingPeer) RequestBids(rfb trading.RFB) (trading.BidReply, error) {
	p.log.add(p.id, rfb)
	p.mu.Lock()
	fail := p.failFirst
	p.failFirst = false
	p.mu.Unlock()
	if fail {
		return trading.BidReply{}, errors.New("seller unreachable")
	}
	return p.inner.RequestBids(rfb)
}

func (p *askingPeer) ImproveBids(req trading.ImproveReq) (trading.BidReply, error) {
	return p.inner.ImproveBids(req)
}

// askingComm is the federation's bus with every peer recorded.
type askingComm struct {
	*core.NetComm
	peers map[string]trading.Peer
}

func (c *askingComm) Peers() map[string]trading.Peer { return c.peers }

// recordAsks wires the buyer of f to record every RFB into log — the peers'
// through the returned Comm, its own node's through cfg.Self — and makes the
// first RFB to the peer named fail fail.
func recordAsks(f *workload.Federation, cfg *core.Config, log *askLog, fail string) core.Comm {
	comm := &askingComm{NetComm: f.Comm(), peers: map[string]trading.Peer{}}
	for id, p := range comm.NetComm.Peers() {
		comm.peers[id] = &askingPeer{id: id, inner: p, log: log, failFirst: id == fail}
	}
	cfg.Self = &askingPeer{id: f.Buyer, inner: f.Nodes[f.Buyer], log: log}
	return comm
}

// bought prints a negotiation's plan and purchases without offer or RFB ids.
func bought(res *core.Result) string {
	var sb strings.Builder
	sb.WriteString(core.ExplainResult(res))
	for _, o := range res.Candidate.Offers {
		fmt.Fprintf(&sb, "%s %s %s %s\n", o.SellerID, o.QID, strconv.FormatFloat(o.Price, 'g', -1, 64), o.SQL)
	}
	return sb.String()
}

// TestEachQueryIsAskedOnce: within one negotiation every seller — each peer
// and the buyer's own node — is sent each query of Q in exactly one RFB,
// under every protocol, on a chain whose negotiation grows Q over several
// iterations.
func TestEachQueryIsAskedOnce(t *testing.T) {
	for _, proto := range negotiationProtocols() {
		t.Run(proto.Name(), func(t *testing.T) {
			opts := workload.ChainOptions{Relations: 3, Parts: 4, Nodes: 4, Replicas: 2, RowsPerRel: 120, Seed: 11}
			f := workload.NewChain(opts)
			cfg := f.BuyerConfig()
			cfg.Protocol = proto
			log := &askLog{}
			res, err := core.Optimize(cfg, recordAsks(f, &cfg, log, ""), workload.ChainQuery(opts, 0.5))
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Iterations < 2 || res.Stats.QueriesAsked < 2 {
				t.Fatalf("%d iterations asking %d queries: the case needs Q to grow", res.Stats.Iterations, res.Stats.QueriesAsked)
			}
			for id := range f.Nodes {
				asked := map[string]int{}
				for _, rfb := range log.sent(id) {
					for _, q := range rfb.Queries {
						asked[q.SQL]++
					}
				}
				if len(asked) != res.Stats.QueriesAsked {
					t.Errorf("%s was asked %d distinct queries, the negotiation asked %d", id, len(asked), res.Stats.QueriesAsked)
				}
				for sql, n := range asked {
					if n != 1 {
						t.Errorf("%s was asked %q in %d RFBs, want 1", id, sql, n)
					}
				}
			}
		})
	}
}

// TestUnansweredPeerIsAskedAgain: a query counts as answered only once the
// peer's reply was merged into its round. A peer whose RFB failed, and a peer
// whose reply came after the round's deadline (the call succeeded, so the
// observer heard it, but the round had thrown it away), is asked the query
// again in the next iteration, and the plan is the fault-free one. A peer that
// owes nothing is sent no message at all.
func TestUnansweredPeerIsAskedAgain(t *testing.T) {
	// One replicated relation: every office sells the same answer at the same
	// price, the analyser proposes nothing more, and athens wins the tie.
	const sql = "SELECT i.invid, i.charge FROM invoiceline i"
	run := func(t *testing.T, fail string, fault func(f *workload.Federation, cfg *core.Config)) (*core.Result, *askLog, *workload.Federation) {
		t.Helper()
		f := workload.NewTelco(workload.TelcoOptions{CustomersPerOffice: 4, LinesPerCustomer: 2, Seed: 1})
		cfg := f.BuyerConfig()
		log := &askLog{}
		comm := recordAsks(f, &cfg, log, fail)
		if fault != nil {
			fault(f, &cfg)
		}
		res, err := core.Optimize(cfg, comm, sql)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.QueriesAsked != 1 {
			t.Fatalf("the negotiation asked %d queries; the case needs Q to stay {q0}", res.Stats.QueriesAsked)
		}
		return res, log, f
	}
	clean, _, cleanFed := run(t, "", nil)
	if clean.Stats.Iterations != 1 {
		t.Fatalf("fault-free negotiation ran %d iterations; with Q unchanged and nothing owed it stops after 1", clean.Stats.Iterations)
	}
	if clean.Candidate.Offers[0].SellerID != "athens" {
		t.Fatalf("fault-free plan buys from %s; the case needs athens to win", clean.Candidate.Offers[0].SellerID)
	}
	check := func(t *testing.T, res *core.Result, log *askLog, f *workload.Federation) {
		t.Helper()
		if got, want := bought(res), bought(clean); got != want {
			t.Errorf("plan differs from the fault-free one:\n got %s\nwant %s", got, want)
		}
		rfbs := log.sent("myconos")
		if len(rfbs) != 2 {
			t.Fatalf("myconos was sent %d RFBs, want 2 (asked again after the first went unanswered)", len(rfbs))
		}
		for i, rfb := range rfbs {
			if len(rfb.Queries) != 1 || rfb.Queries[0].QID != "q0" {
				t.Fatalf("RFB %d to myconos asked %v, want q0", i+1, rfb.Queries)
			}
		}
		// corfu answered q0 in the first iteration and owed nothing after: one
		// RFB and its reply crossed its link, as in the fault-free run.
		for _, l := range []netsim.Pair{{From: "hq", To: "corfu"}, {From: "corfu", To: "hq"}} {
			if got, want := f.Net.StatsByPair()[l].Messages, cleanFed.Net.StatsByPair()[l].Messages; got != 1 || want != 1 {
				t.Errorf("%s→%s carried %d messages (fault-free: %d), want 1", l.From, l.To, got, want)
			}
		}
		if n := len(log.sent("corfu")); n != 1 {
			t.Errorf("corfu was sent %d RFBs, want 1", n)
		}
	}

	t.Run("failed", func(t *testing.T) {
		res, log, f := run(t, "myconos", nil)
		if res.Stats.Iterations != 2 {
			t.Fatalf("%d iterations; myconos owed q0 after the first, so want 2", res.Stats.Iterations)
		}
		check(t, res, log, f)
	})

	t.Run("cut-by-deadline", func(t *testing.T) {
		dir := trading.NewDirectory()
		res, log, f := run(t, "", func(f *workload.Federation, cfg *core.Config) {
			f.Net.SetFaultPlan(&netsim.FaultPlan{SlowNodeMS: map[string]float64{"myconos": 600}})
			cfg.Faults = &trading.FaultPolicy{RoundTimeout: 250 * time.Millisecond, Directory: dir}
			cfg.Directory = dir
		})
		check(t, res, log, f)
		// Both late replies were successes to the observer, which marks the
		// peer seen; the record still had myconos owe q0.
		deadline := time.Now().Add(10 * time.Second)
		for !seen(dir, "myconos") {
			if time.Now().After(deadline) {
				t.Fatal("the observer never heard myconos's late reply")
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// seen reports whether the directory has heard from peer id.
func seen(dir *trading.Directory, id string) bool {
	for _, h := range dir.Snapshot() {
		if h.ID == id && !h.LastSeen.IsZero() {
			return true
		}
	}
	return false
}
