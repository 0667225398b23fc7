// Package netsim simulates the federation's network: an in-process message
// bus connecting autonomous nodes, with exact message and byte accounting
// and a parameterized latency model. The paper's experiments report
// optimization time and messages exchanged; both are functions of the
// protocol traffic this package observes, not of physical hardware, which is
// why an in-process bus reproduces their shape (see DESIGN.md,
// substitutions). A real net/rpc transport with the same interface lives in
// rpc.go for multi-process deployments.
package netsim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"qtrade/internal/trading"
)

// Service is the seller-side surface a federation node exposes to peers.
type Service interface {
	RequestBids(trading.RFB) (trading.BidReply, error)
	ImproveBids(trading.ImproveReq) (trading.BidReply, error)
	Award(trading.Award) error
	Execute(trading.ExecReq) (trading.ExecResp, error)
}

// Network is the in-process bus. The zero value is not usable; call New.
type Network struct {
	// LatencyMS is the simulated per-message latency, accounted (never
	// slept) into SimTimeMS.
	LatencyMS float64

	mu    sync.RWMutex
	nodes map[string]Service
	// crashed marks the nodes that answer nothing until RestartNode: the one
	// record of an unreachable node, read by dispatch alone.
	crashed map[string]bool

	messages  atomic.Int64
	bytes     atomic.Int64
	simTimeMS uint64 // float64 bits, updated via CAS

	pairMu sync.Mutex
	pairs  map[Pair]*pairCounters

	// chaos, when non-nil, is the installed fault injector (see chaos.go).
	// Kept behind one atomic pointer load so a fault-free network pays a
	// single nil check per call and behaves identically to one without
	// chaos support.
	chaos atomic.Pointer[chaosState]
}

// Pair identifies one directed sender→receiver link.
type Pair struct {
	From string
	To   string
}

// PairStats is the traffic recorded on one directed link.
type PairStats struct {
	Messages int64
	Bytes    int64
}

type pairCounters struct {
	messages atomic.Int64
	bytes    atomic.Int64
}

// New returns an empty network with 1 ms simulated latency.
func New() *Network {
	return &Network{LatencyMS: 1, nodes: map[string]Service{}, crashed: map[string]bool{}, pairs: map[Pair]*pairCounters{}}
}

// Register attaches a node's service under its id, replacing any previous
// registration.
func (n *Network) Register(id string, svc Service) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nodes[id] = svc
}

// Unregister detaches a node from the bus (a member that left the
// federation). Subsequent calls to it fail as unknown, and it disappears
// from Peers fan-outs. A crash mark goes with it, so a later registration
// under the same id starts reachable.
func (n *Network) Unregister(id string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.nodes, id)
	delete(n.crashed, id)
}

// CrashNode kills a node immediately: every subsequent call to it fails
// with a transient error wrapping trading.ErrPeerCrashed until RestartNode
// or Unregister. Installing or removing a fault plan leaves the mark as it
// is. The id need not be registered yet, so a joiner can be staged crashed
// before Register and revived once its data is in. It reports whether the
// node was reachable until now.
func (n *Network) CrashNode(id string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.crashed[id] {
		return false
	}
	n.crashed[id] = true
	return true
}

// RestartNode revives a crashed node: calls reach it again (its service was
// never unregistered — a restart is the same process image coming back).
func (n *Network) RestartNode(id string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.crashed, id)
}

// NodeIDs lists registered nodes, sorted.
func (n *Network) NodeIDs() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]string, 0, len(n.nodes))
	for id := range n.nodes {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Stats returns the total messages and bytes since the last Reset.
func (n *Network) Stats() (messages, bytes int64) {
	return n.messages.Load(), n.bytes.Load()
}

// StatsByPair returns the per-directed-link traffic breakdown since the last
// Reset: one entry per sender→receiver pair that exchanged at least one
// message. Requests are charged to from→to and responses to to→from, so the
// asymmetry of the trading protocol (small RFBs out, large offer lists back)
// is visible per link.
func (n *Network) StatsByPair() map[Pair]PairStats {
	n.pairMu.Lock()
	defer n.pairMu.Unlock()
	out := make(map[Pair]PairStats, len(n.pairs))
	for p, c := range n.pairs {
		out[p] = PairStats{Messages: c.messages.Load(), Bytes: c.bytes.Load()}
	}
	return out
}

// SimTimeMS returns the accumulated simulated network time.
func (n *Network) SimTimeMS() float64 {
	return atomicLoadFloat(&n.simTimeMS)
}

// Reset zeroes all counters: the two global totals, the simulated network
// time, and every per-pair breakdown. Experiments call it between runs so
// each measurement starts from a clean ledger; it is safe to call
// concurrently with traffic, though messages in flight during the reset may
// land on either side of it.
func (n *Network) Reset() {
	n.messages.Store(0)
	n.bytes.Store(0)
	atomicStoreFloat(&n.simTimeMS, 0)
	n.pairMu.Lock()
	n.pairs = map[Pair]*pairCounters{}
	n.pairMu.Unlock()
}

// dispatch resolves the receiver of one call and runs the fault injector.
// An unknown node costs nothing (there is no route to send on); a crashed
// or flapping node and a dropped request charge the request on the from→to
// link — it crossed the wire even though nothing answered.
func (n *Network) dispatch(from, to string, reqBytes int) (Service, error) {
	n.mu.RLock()
	svc, ok := n.nodes[to]
	crashed := n.crashed[to]
	n.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("netsim: unknown node %q", to)
	}
	if crashed {
		n.accountLost(from, to, reqBytes)
		// Transient and typed: a crashed seller is gone, but the failure is
		// recoverable at the federation level (an equivalent standing offer
		// or a replan absorbs it), and recovery audit trails want to know it
		// was a crash rather than a generic fetch error.
		return nil, trading.MarkTransient(fmt.Errorf("netsim: node %q crashed: %w", to, trading.ErrPeerCrashed))
	}
	if err := n.chaosBefore(from, to, reqBytes); err != nil {
		return nil, err
	}
	return svc, nil
}

// account records one request/response exchange: the request on the
// from→to link, the response on to→from.
func (n *Network) account(from, to string, reqBytes, respBytes int) {
	n.messages.Add(2)
	n.bytes.Add(int64(reqBytes + respBytes))
	atomicAddFloat(&n.simTimeMS, 2*n.LatencyMS)
	n.pairAccount(Pair{From: from, To: to}, reqBytes)
	n.pairAccount(Pair{From: to, To: from}, respBytes)
}

func (n *Network) pairAccount(p Pair, bytes int) {
	n.pairMu.Lock()
	c := n.pairs[p]
	if c == nil {
		c = &pairCounters{}
		n.pairs[p] = c
	}
	n.pairMu.Unlock()
	c.messages.Add(1)
	c.bytes.Add(int64(bytes))
}

// Peer returns a counting Peer from one node to another.
func (n *Network) Peer(from, to string) trading.Peer {
	return &simPeer{net: n, from: from, to: to}
}

// Peers returns counting peers from one node to every other registered node.
func (n *Network) Peers(from string) map[string]trading.Peer {
	out := map[string]trading.Peer{}
	for _, id := range n.NodeIDs() {
		if id != from {
			out[id] = n.Peer(from, id)
		}
	}
	return out
}

// Execute performs a purchased-answer fetch with full accounting.
func (n *Network) Execute(from, to string, req trading.ExecReq) (trading.ExecResp, error) {
	svc, err := n.dispatch(from, to, req.WireSize())
	if err != nil {
		return trading.ExecResp{}, err
	}
	resp, err := svc.Execute(req)
	if err != nil {
		return trading.ExecResp{}, err
	}
	n.account(from, to, req.WireSize(), resp.WireSize())
	return resp, nil
}

// Award delivers an award notification with accounting. A node whose fault
// plan marks it crash-after-award accepts the award, then dies.
func (n *Network) Award(from, to string, aw trading.Award) error {
	svc, err := n.dispatch(from, to, aw.WireSize())
	if err != nil {
		return err
	}
	if err := svc.Award(aw); err != nil {
		return err
	}
	n.account(from, to, aw.WireSize(), 8)
	n.chaosAfterAward(to)
	return nil
}

type simPeer struct {
	net  *Network
	from string
	to   string
}

// RequestBids implements trading.Peer.
func (p *simPeer) RequestBids(rfb trading.RFB) (trading.BidReply, error) {
	svc, err := p.net.dispatch(p.from, p.to, rfb.WireSize())
	if err != nil {
		return trading.BidReply{}, err
	}
	rep, err := svc.RequestBids(rfb)
	if err != nil {
		return trading.BidReply{}, err
	}
	p.net.account(p.from, p.to, rfb.WireSize(), rep.WireSize())
	return rep, nil
}

// Execute fetches a purchased answer from the peer with full accounting
// (used directly by subcontracting sellers).
func (p *simPeer) Execute(req trading.ExecReq) (trading.ExecResp, error) {
	return p.net.Execute(p.from, p.to, req)
}

// ImproveBids implements trading.Peer.
func (p *simPeer) ImproveBids(req trading.ImproveReq) (trading.BidReply, error) {
	svc, err := p.net.dispatch(p.from, p.to, req.WireSize())
	if err != nil {
		return trading.BidReply{}, err
	}
	rep, err := svc.ImproveBids(req)
	if err != nil {
		return trading.BidReply{}, err
	}
	p.net.account(p.from, p.to, req.WireSize(), rep.WireSize())
	return rep, nil
}

// atomic float helpers (no atomic.Float64 in the stdlib).

func atomicAddFloat(addr *uint64, delta float64) {
	for {
		old := atomic.LoadUint64(addr)
		newBits := floatBits(floatFromBits(old) + delta)
		if atomic.CompareAndSwapUint64(addr, old, newBits) {
			return
		}
	}
}

func atomicStoreFloat(addr *uint64, v float64) { atomic.StoreUint64(addr, floatBits(v)) }
func atomicLoadFloat(addr *uint64) float64     { return floatFromBits(atomic.LoadUint64(addr)) }
