package core

import (
	"sync"
	"sync/atomic"

	"qtrade/internal/trading"
)

// sellers is the buyer's one way to reach a seller. The paper's buyer has four
// exchanges with a seller — RFB, improvement round, award, delivery of the
// purchased answer — and each is made in one place: the first two in
// trading.gather, under the Sellers value round builds; the award and every
// fetch here. All four run under the same fault policy and feed the same
// directory, so a negotiation and whatever executes its plan, through any
// entry point and over any Comm, treat a slow, draining or dead seller alike.
// One handle serves one negotiation or one run of executions of its plan.
type sellers struct {
	comm Comm
	self string               // the buyer: its own offers need no message
	pol  *trading.FaultPolicy // nil = every call direct
	dir  *trading.Directory   // nil = no health gate, no feedback

	mu     sync.Mutex
	failed map[string]error // first failed fetch per seller
}

// reach is the handle an execution of res uses over comm: the policy and
// directory are the negotiation's, whichever Comm the caller hands in.
func reach(comm Comm, res *Result) *sellers {
	return &sellers{comm: comm, self: res.BuyerID, pol: res.faults, dir: res.dir}
}

// round builds the negotiation's own seller view, with an empty record of
// what each seller has answered, leaving out the sellers exclude names.
// comm.Peers may hand out a map the caller keeps (PeerComm.PeerMap), so the
// exclusions are applied to a copy. The health gate spends no RFB round-trip
// on a peer known to be draining or left, or whose breaker is open; the
// directory is an exclusion list, unknown peers pass. empty counts RFB
// replies that carried no offers.
func (s *sellers) round(exclude map[string]bool, empty *atomic.Int64) trading.Sellers {
	all := s.comm.Peers()
	peers := make(map[string]trading.Peer, len(all))
	for id, p := range all {
		if !exclude[id] && s.dir.Eligible(id) {
			peers[id] = p
		}
	}
	return trading.Sellers{Peers: peers, Policy: s.pol, Answered: trading.Answered{},
		Observe: func(id, call string, offers int, err error) {
			// Only a draining node's refusal of an RFB is authoritative, so
			// only an answered RFB undrains: a draining seller still serves
			// improvement rounds (with an empty reply).
			if call == "rfb" && err == nil {
				s.dir.Seen(id)
				if offers == 0 {
					empty.Add(1)
				}
			}
			s.report(id, err)
		}}
}

// report feeds a failed call back to the directory: a drain rejection is
// membership news, so the next negotiation's health gate skips the peer
// instead of rediscovering the drain per call.
func (s *sellers) report(id string, err error) {
	if err != nil && trading.FailureReason(err) == "drain" {
		s.dir.MarkState(id, trading.StateDraining)
	}
}

// award notifies the seller of a purchased offer (B8). Failures are tolerable
// — sellers execute purchased SQL even without the courtesy notification —
// but the call is guarded so a dead winner cannot hang the buyer.
func (s *sellers) award(o trading.Offer) {
	if o.SellerID == s.self {
		return
	}
	aw := trading.Award{RFBID: o.RFBID, OfferID: o.OfferID, BuyerID: s.self}
	_, err := trading.GuardCall(s.pol, o.SellerID, func() (struct{}, error) { return struct{}{}, s.comm.Award(o.SellerID, aw) })
	s.report(o.SellerID, err)
}

// fetch is one delivery exchange: an opening fetch, a continuation or a
// cursor release. Continuations are idempotent per Seq, so the policy's
// retries are safe. The first failure per seller is kept so recovery can name
// who to substitute or exclude, and why.
func (s *sellers) fetch(id string, req trading.ExecReq) (trading.ExecResp, error) {
	resp, err := trading.GuardCall(s.pol, id, func() (trading.ExecResp, error) { return s.comm.Fetch(id, req) })
	if err != nil {
		s.report(id, err)
		s.mu.Lock()
		if s.failed == nil {
			s.failed = map[string]error{}
		}
		if s.failed[id] == nil {
			s.failed[id] = err
		}
		s.mu.Unlock()
	}
	return resp, err
}

// failures returns the first failed fetch of every seller that failed to
// deliver since the handle was made.
func (s *sellers) failures() map[string]error {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]error, len(s.failed))
	for id, err := range s.failed {
		out[id] = err
	}
	return out
}
