package node

import (
	"fmt"
	"time"

	"qtrade/internal/trading"
)

// This file is the node's lifecycle state machine: Active → Draining → Left,
// with Draining → Active when a drain is cancelled. A draining node rejects
// new Depth-0 RFBs with the typed transient trading.ErrDraining (buyers skip
// it like an open breaker — no retry burn), keeps pricing subcontract probes
// it is asked to finish, honors its standing offers (awards and executions
// still served), and stops competing in improvement rounds. Once quiesced it
// can Leave: everything is refused and the standing-offer book is revoked.
// Transitions are recorded into the attached trading ledger as membership
// events, so churn is auditable next to the negotiations it perturbed.

// State reports the node's lifecycle position.
func (n *Node) State() trading.NodeState {
	return trading.NodeState(n.state.Load())
}

// gateRFB is the RequestBids lifecycle gate: Draining refuses new Depth-0
// negotiations, Left refuses all. Nil means the RFB may proceed.
func (n *Node) gateRFB(depth int) error {
	switch n.State() {
	case trading.StateLeft:
		return n.drainErr("request-bids")
	case trading.StateDraining:
		if depth == 0 {
			return n.drainErr("request-bids")
		}
	}
	return nil
}

// drainErr builds the typed rejection for one refused operation: wrapped
// trading.ErrDraining (so guards skip the peer without retries) marked
// transient (so the federation-level failure stays recoverable).
func (n *Node) drainErr(op string) error {
	return trading.MarkTransient(fmt.Errorf("node %s: %s refused, %s: %w",
		n.cfg.ID, op, n.State(), trading.ErrDraining))
}

// Drain moves the node Active → Draining: new Depth-0 RFBs are refused,
// in-flight negotiations and executions run to completion, standing offers
// stay honored. reason is operator context for the ledger's membership
// stream ("operator", "sigterm", …). Draining an already-draining or left
// node is a no-op.
func (n *Node) Drain(reason string) {
	if n.state.CompareAndSwap(int32(trading.StateActive), int32(trading.StateDraining)) {
		n.observer().transition(trading.StateDraining, reason)
	}
}

// Undrain cancels a drain, returning the node to Active, and reports whether
// it did (a node that already Left cannot come back under the same handle —
// rejoining is a fresh AddNode).
func (n *Node) Undrain() bool {
	if n.state.CompareAndSwap(int32(trading.StateDraining), int32(trading.StateActive)) {
		n.observer().transition(trading.StateActive, "")
		return true
	}
	return false
}

// Leave makes the departure final: every subsequent call is refused and the
// standing-offer book is revoked (buyers recover through equivalent offers
// from replicas). Callers that want a graceful exit Drain first and Quiesce
// before Leave; Leave itself does not wait.
func (n *Node) Leave(reason string) {
	prev := n.state.Swap(int32(trading.StateLeft))
	if trading.NodeState(prev) == trading.StateLeft {
		return
	}
	n.RevokeStandingOffers()
	n.observer().transition(trading.StateLeft, reason)
}

// RevokeStandingOffers drops every RFB record the node holds — the pricing
// flights and the book entries they filed, assemblies included — returning
// how many offers were revoked. Buyers holding awards against them see execution
// failures and recover; buyers still negotiating simply stop hearing from
// this seller.
func (n *Node) RevokeStandingOffers() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	revoked := 0
	for _, neg := range n.negs {
		revoked += len(neg.offers)
	}
	n.negs = map[string]*sellerNeg{}
	n.negOrder = nil
	return revoked
}

// Quiesced reports whether the node holds no in-flight work: no admitted or
// queued Depth-0 RFBs and no executions running.
func (n *Node) Quiesced() bool {
	return n.inflight.Load() == 0 && n.queued.Load() == 0 && n.active.Load() == 0
}

// Quiesce waits — up to timeout — for in-flight work to finish, reporting
// whether the node fully quiesced. A draining node converges because the
// lifecycle gate stops new Depth-0 work; calling this on an Active node
// under load may simply time out.
func (n *Node) Quiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if n.Quiesced() {
			return true
		}
		if time.Now().After(deadline) {
			return n.Quiesced()
		}
		time.Sleep(time.Millisecond)
	}
}

// loadFactor is the live load signal LoadAwarePricing folds into asked
// prices: executions in flight plus admitted and queued Depth-0 RFBs,
// normalized by the pricing pool's size, plus a large surcharge while
// draining so a departing seller prices itself out of even the subcontract
// probes it still answers.
func (n *Node) loadFactor() float64 {
	f := float64(n.active.Load()+n.inflight.Load()+n.queued.Load()) / float64(cap(n.pool))
	if n.State() != trading.StateActive {
		f += 4
	}
	return f
}

// Health is the node's /healthz snapshot.
type Health struct {
	ID           string            `json:"id"`
	State        string            `json:"state"`
	Ready        bool              `json:"ready"` // accepting new Depth-0 RFBs
	QueueDepth   int64             `json:"rfb_queue_depth"`
	InflightRFBs int64             `json:"rfbs_inflight"`
	ActiveExecs  int64             `json:"active_execs"`
	StandingRFBs int               `json:"standing_rfbs"`
	Breakers     map[string]string `json:"breakers,omitempty"` // per-peer circuit state
}

// Health reports the node's live lifecycle and admission state plus the
// per-peer breaker summary of its fault policy's directory (when one is
// attached).
func (n *Node) Health() Health {
	st := n.State()
	n.mu.Lock()
	standing := len(n.negs)
	n.mu.Unlock()
	h := Health{
		ID:           n.cfg.ID,
		State:        st.String(),
		Ready:        st == trading.StateActive,
		QueueDepth:   n.queued.Load(),
		InflightRFBs: n.inflight.Load(),
		ActiveExecs:  n.active.Load(),
		StandingRFBs: standing,
	}
	if pol := n.cfg.Faults; pol != nil {
		for _, p := range pol.Directory.Snapshot() {
			if p.Breaker == "" {
				continue
			}
			if h.Breakers == nil {
				h.Breakers = map[string]string{}
			}
			h.Breakers[p.ID] = p.Breaker
		}
	}
	return h
}
