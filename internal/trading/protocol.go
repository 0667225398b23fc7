package trading

import (
	"sort"
	"sync/atomic"
	"time"

	"qtrade/internal/obs"
)

// Peer is the buyer's handle to one seller node. Implementations count
// messages and simulate transport (see the netsim package) or speak real
// RPC (see cmd/qtnode). Replies are BidReply envelopes so a sampled seller
// can piggyback its span subtree on the offers.
type Peer interface {
	RequestBids(RFB) (BidReply, error)
	ImproveBids(ImproveReq) (BidReply, error)
}

// Protocol is a negotiation protocol: it runs the message exchange of one
// nested negotiation (steps B2/B3/S3) and returns the standing offers. The
// returned round count feeds the experiments' network-time accounting.
// sp is the parent span for this negotiation (nil when tracing is off);
// protocols hang one child per round and one grandchild per seller off it.
type Protocol interface {
	Name() string
	Collect(rfb RFB, to Sellers, sp *obs.Span) (offers []Offer, rounds int, err error)
}

// Sellers is how a negotiation reaches its sellers: who they are and how each
// of them is called. The zero Policy, Workers and Observe are the unguarded
// full fan-out nobody listens to.
type Sellers struct {
	Peers map[string]Peer
	// Policy guards every call (breaker, per-call timeout, bounded retry) and
	// cuts each round at its RoundTimeout. Nil guards nothing and waits for
	// every peer.
	Policy *FaultPolicy
	// Workers bounds the calls in flight per round: 0 (or anything >=
	// len(Peers)) is one per peer, 1 is strictly serial in sorted peer-id
	// order.
	Workers int
	// Observe, when set, hears how each call ended: the peer, the kind of call
	// ("rfb" or "improve"), the offers the reply carried and the error. It is
	// told the final outcome, after the policy's retries, never an attempt. It
	// runs on the round's worker goroutines, possibly after a deadline-cut
	// round has returned.
	Observe func(id, call string, offers int, err error)
}

// gather sends one request to every peer and merges the replies. Each worker
// claims the next peer in sorted-id order and then guards, calls, observes:
// the call runs under to.Policy, and to.Observe hears the one outcome the
// guard settled on — the reply of the attempt that succeeded, or the error
// that ended the retries. Observing attempts instead would let one flaky call
// count as several empty replies, or undrain a peer on an attempt the policy
// went on to time out. Nothing else in the package calls a Peer.
//
// Replies are collected positionally into a per-peer slot table, so the
// merged pool is byte-identical whatever the interleaving — the serial path
// (Workers 1) and the full fan-out produce the same offers in the same order
// (pinned by core's TestBuyerFanoutMatchesSerial). Failing peers are skipped:
// autonomy means remote nodes may decline or die, and the negotiation must
// survive that.
//
// When the policy sets a RoundTimeout the round is cut at that deadline — the
// offers that already arrived are used, peers still in flight OR not yet
// dispatched are counted as stragglers (late replies are discarded through
// the buffered channel) and their spans annotated deadline_exceeded while
// still open (export renders them unfinished=true). With a nil policy (or no
// RoundTimeout) gather waits for every peer.
//
// Per-seller spans are created before the goroutines launch so the deadline
// branch can annotate stragglers; each call gets the span's ID as the remote
// parent, and a reply that carries a trace payload is grafted under that
// span. The guard returns at most one reply (abandoned timed-out attempts are
// discarded before they surface), so a retried call can never graft a
// duplicate subtree.
func gather(label string, to Sellers, round *obs.Span, call func(p Peer, parent uint64) (BidReply, error)) []Offer {
	ids := make([]string, 0, len(to.Peers))
	for id := range to.Peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	type reply struct {
		idx    int
		offers []Offer
		ok     bool
	}
	spans := make([]*obs.Span, len(ids))
	if round != nil {
		for i, id := range ids {
			spans[i] = round.Child(label + " " + id)
		}
	}
	workers := to.Workers
	if workers <= 0 || workers > len(ids) {
		workers = len(ids)
	}
	ch := make(chan reply, len(ids))
	var next atomic.Int64 // index of the next undispatched peer
	for w := 0; w < workers; w++ {
		go func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ids) {
					return
				}
				id, ss := ids[i], spans[i]
				sentAt := time.Now()
				rep, err := GuardCall(to.Policy, id, func() (BidReply, error) { return call(to.Peers[id], ss.ID()) })
				if to.Observe != nil {
					to.Observe(id, label, len(rep.Offers), err)
				}
				if err != nil {
					ss.Set("error", err)
					ss.End()
					ch <- reply{idx: i, ok: false}
					continue
				}
				ss.Set("offers", len(rep.Offers))
				ss.Graft(rep.Trace, sentAt, time.Now())
				ss.End()
				ch <- reply{idx: i, offers: rep.Offers, ok: true}
			}
		}()
	}
	pol := to.Policy
	var deadline <-chan time.Time
	if pol != nil && pol.RoundTimeout > 0 {
		t := time.NewTimer(pol.RoundTimeout)
		defer t.Stop()
		deadline = t.C
	}
	slots := make([][]Offer, len(ids))
	pending := make([]bool, len(ids))
	for i := range pending {
		pending[i] = true
	}
	received := 0
	for received < len(ids) {
		select {
		case r := <-ch:
			received++
			pending[r.idx] = false
			if r.ok {
				slots[r.idx] = r.offers
			}
		case <-deadline:
			next.Store(int64(len(ids))) // stop dispatching peers the round no longer wants
			stragglers := len(ids) - received
			pol.obs().stragglers.Add(int64(stragglers))
			pol.obs().roundCuts.Inc()
			round.Set("stragglers", stragglers)
			for i, p := range pending {
				if p {
					spans[i].Set("deadline_exceeded", true)
				}
			}
			received = len(ids)
		}
	}
	var all []Offer
	for _, offers := range slots {
		all = append(all, offers...)
	}
	sortOffers(all)
	return all
}

func fanOut(rfb RFB, to Sellers, round *obs.Span) []Offer {
	return gather("rfb", to, round, func(p Peer, parent uint64) (BidReply, error) {
		r := rfb
		if r.Trace.Sampled {
			r.Trace.Parent = parent
		}
		return p.RequestBids(r)
	})
}

func improveRound(req ImproveReq, to Sellers, round *obs.Span) []Offer {
	return gather("improve", to, round, func(p Peer, parent uint64) (BidReply, error) {
		r := req
		if r.Trace.Sampled {
			r.Trace.Parent = parent
		}
		return p.ImproveBids(r)
	})
}

// roundSpan opens the span for one protocol round; a no-op when sp is nil.
// The explicit nil guard keeps the disabled path free of the fmt allocation.
func roundSpan(sp *obs.Span, n int) *obs.Span {
	if sp == nil {
		return nil
	}
	r := sp.Child("round")
	r.Set("round", n)
	return r
}

func sortOffers(offers []Offer) {
	sort.Slice(offers, func(i, j int) bool {
		if offers[i].SellerID != offers[j].SellerID {
			return offers[i].SellerID < offers[j].SellerID
		}
		return offers[i].OfferID < offers[j].OfferID
	})
}

// mergeImproved replaces standing offers by improved versions of the same
// OfferID and appends new ones. It reports whether anything improved.
func mergeImproved(standing []Offer, improved []Offer) ([]Offer, bool) {
	if len(improved) == 0 {
		return standing, false
	}
	idx := map[string]int{}
	for i, o := range standing {
		idx[o.OfferID] = i
	}
	changed := false
	for _, o := range improved {
		if i, ok := idx[o.OfferID]; ok {
			if o.Price < standing[i].Price {
				standing[i] = o
				changed = true
			}
			continue
		}
		standing = append(standing, o)
		idx[o.OfferID] = len(standing) - 1
		changed = true
	}
	return standing, changed
}

// bestPrices computes the best standing price per query id.
func bestPrices(offers []Offer) map[string]float64 {
	best := map[string]float64{}
	for _, o := range offers {
		if b, ok := best[o.QID]; !ok || o.Price < b {
			best[o.QID] = o.Price
		}
	}
	return best
}

// SealedBid is the paper's default bidding protocol: one RFB round, sellers
// answer with offers, the buyer picks winners.
type SealedBid struct{}

// Name implements Protocol.
func (SealedBid) Name() string { return "sealed-bid" }

// Collect implements Protocol.
func (SealedBid) Collect(rfb RFB, to Sellers, sp *obs.Span) ([]Offer, int, error) {
	return collectRounds(rfb, to, sp, 1, nil)
}

// collectRounds is the round loop every protocol shares: one sealed RFB
// round, then improvement rounds — each announcing the best standing price
// per query and, when counter is set, the buyer's counter-offer below it — up
// to maxRounds (below 1 = 3) or until no price moves.
func collectRounds(rfb RFB, to Sellers, sp *obs.Span, maxRounds int,
	counter func(qid string, best float64) float64) ([]Offer, int, error) {

	if maxRounds < 1 {
		maxRounds = 3
	}
	round := roundSpan(sp, 1)
	offers := fanOut(rfb, to, round)
	round.End()
	used := 1
	for used < maxRounds && len(offers) > 0 {
		req := ImproveReq{RFBID: rfb.RFBID, BuyerID: rfb.BuyerID, Trace: rfb.Trace, BestPrice: bestPrices(offers)}
		if counter != nil {
			req.Target = make(map[string]float64, len(req.BestPrice))
			for qid, b := range req.BestPrice {
				req.Target[qid] = counter(qid, b)
			}
		}
		round = roundSpan(sp, used+1)
		improved := improveRound(req, to, round)
		round.End()
		var changed bool
		offers, changed = mergeImproved(offers, improved)
		used++
		if !changed {
			break
		}
	}
	return offers, used, nil
}

// IterativeBid announces the best standing price after each round and lets
// sellers undercut, up to MaxRounds or until prices stop moving (an open-cry
// descending auction).
type IterativeBid struct {
	MaxRounds int // total rounds including the initial sealed round
}

// Name implements Protocol.
func (p IterativeBid) Name() string { return "iterative-bid" }

// Collect implements Protocol.
func (p IterativeBid) Collect(rfb RFB, to Sellers, sp *obs.Span) ([]Offer, int, error) {
	return collectRounds(rfb, to, sp, p.MaxRounds, nil)
}

// Bargain has the buyer counter-offer a target price below the best standing
// offer each round; sellers that can meet it (per their strategy) undercut.
type Bargain struct {
	MaxRounds int
	Buyer     BuyerStrategy
}

// Name implements Protocol.
func (p Bargain) Name() string { return "bargain" }

// Collect implements Protocol.
func (p Bargain) Collect(rfb RFB, to Sellers, sp *obs.Span) ([]Offer, int, error) {
	buyer := p.Buyer
	if buyer == nil {
		buyer = AnchoredBuyer{}
	}
	return collectRounds(rfb, to, sp, p.MaxRounds, buyer.CounterOffer)
}
