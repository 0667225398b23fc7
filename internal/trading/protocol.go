package trading

import (
	"sort"
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
// of them is called. The zero Policy and Observe are the unguarded fan-out
// nobody listens to.
type Sellers struct {
	Peers map[string]Peer
	// Policy guards every call (breaker, per-call timeout, bounded retry) and
	// cuts each round at its RoundTimeout. Nil guards nothing and waits for
	// every peer.
	Policy *FaultPolicy
	// Observe, when set, hears how each call ended: the peer, the kind of call
	// ("rfb" or "improve"), the offers the reply carried and the error. It is
	// told the final outcome, after the policy's retries, never an attempt. It
	// runs on the round's per-peer goroutines, possibly after a deadline-cut
	// round has returned.
	Observe func(id, call string, offers int, err error)
	// Answered is what each peer has answered so far in this negotiation; an
	// RFB asks a peer only the rest. Nil is a negotiation with nothing
	// answered yet that keeps no record: every peer is asked all of Q.
	Answered Answered
}

// Answered is one negotiation's record of the queries each seller has
// answered, by seller id and then query id (a QID names one text for the
// whole negotiation). A seller's offers stand until the negotiation ends, so
// the buyer asks it each query of Q once (B5–B7). A query counts as answered
// only once the seller's reply was merged into its round: a seller whose call
// failed after the policy's retries, was skipped, or was cut by the round's
// deadline is asked its whole backlog again in the next iteration. The record
// is written by the goroutine that merges the round, never by the per-peer
// calls.
type Answered map[string]map[string]bool

// Owed returns the queries of q that seller id has not answered yet, in q's
// order: what the next RFB to it carries. It is q itself while the seller has
// answered nothing.
func (a Answered) Owed(id string, q []QueryRequest) []QueryRequest {
	done := a[id]
	if len(done) == 0 {
		return q
	}
	var owed []QueryRequest
	for _, qr := range q {
		if !done[qr.QID] {
			owed = append(owed, qr)
		}
	}
	return owed
}

// Owes reports whether seller id has some query of q still to answer.
func (a Answered) Owes(id string, q []QueryRequest) bool {
	done := a[id]
	for _, qr := range q {
		if !done[qr.QID] {
			return true
		}
	}
	return false
}

// Record notes that seller id's reply to q was merged. A nil record keeps
// nothing.
func (a Answered) Record(id string, q []QueryRequest) {
	if a == nil {
		return
	}
	done := a[id]
	if done == nil {
		done = make(map[string]bool, len(q))
		a[id] = done
	}
	for _, qr := range q {
		done[qr.QID] = true
	}
}

// Owing counts the peers of to that owe an answer to some query of q: the
// peers the next RFB of q goes to.
func (to Sellers) Owing(q []QueryRequest) int {
	n := 0
	for id := range to.Peers {
		if to.Answered.Owes(id, q) {
			n++
		}
	}
	return n
}

// gather sends one request to each of the peers ids names at once (B2: one
// goroutine per peer) and merges the replies; merged[i] reports whether the
// reply of ids[i] made it into the round. Each goroutine guards, calls,
// observes: the call runs under to.Policy, and to.Observe hears the one
// outcome the guard settled on — the reply of the attempt that succeeded, or
// the error that ended the retries. Observing attempts instead would let one
// flaky call count as several empty replies, or undrain a peer on an attempt
// the policy went on to time out. Nothing else in the package calls a Peer.
//
// Replies are collected positionally into a per-peer slot table in the order
// of ids, which fanOut sorts, so the merged pool is byte-identical whatever
// order the replies arrive in (pinned by core's TestBuyerFanoutIsOrderFree).
// Failing peers are skipped: autonomy means remote nodes may decline or die,
// and the negotiation must survive that.
//
// When the policy sets a RoundTimeout the round is cut at that deadline — the
// offers that already arrived are used, peers still in flight are counted as
// stragglers (late replies are discarded through the buffered channel) and
// their spans annotated deadline_exceeded while still open (export renders
// them unfinished=true). With a nil policy (or no RoundTimeout) gather waits
// for every peer.
//
// Per-seller spans are created before the goroutines launch so the deadline
// branch can annotate stragglers; each call gets the span's ID as the remote
// parent, and a reply that carries a trace payload is grafted under that
// span. The guard returns at most one reply (abandoned timed-out attempts are
// discarded before they surface), so a retried call can never graft a
// duplicate subtree.
func gather(label string, ids []string, to Sellers, round *obs.Span, call func(i int, p Peer, parent uint64) (BidReply, error)) (offers []Offer, merged []bool) {
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
	ch := make(chan reply, len(ids))
	for i, id := range ids {
		go func() {
			ss := spans[i]
			sentAt := time.Now()
			rep, err := GuardCall(to.Policy, id, func() (BidReply, error) { return call(i, to.Peers[id], ss.ID()) })
			if to.Observe != nil {
				to.Observe(id, label, len(rep.Offers), err)
			}
			if err != nil {
				ss.Set("error", err)
				ss.End()
				ch <- reply{idx: i, ok: false}
				return
			}
			ss.Set("offers", len(rep.Offers))
			ss.Graft(rep.Trace, sentAt, time.Now())
			ss.End()
			ch <- reply{idx: i, offers: rep.Offers, ok: true}
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
	merged = make([]bool, len(ids))
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
				slots[r.idx], merged[r.idx] = r.offers, true
			}
		case <-deadline:
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
	for _, o := range slots {
		offers = append(offers, o...)
	}
	sortOffers(offers)
	return offers, merged
}

// fanOut sends the RFB's queries to the peers that owe an answer to some of
// them, each peer only its own backlog, and records what each merged reply
// answered. A peer that owes nothing gets no message. It returns the offers
// and the peers it asked, in id order.
func fanOut(rfb RFB, to Sellers, round *obs.Span) ([]Offer, []string) {
	ids := make([]string, 0, len(to.Peers))
	for id := range to.Peers {
		if to.Answered.Owes(id, rfb.Queries) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	asks := make([][]QueryRequest, len(ids))
	for i, id := range ids {
		asks[i] = to.Answered.Owed(id, rfb.Queries)
	}
	offers, merged := gather("rfb", ids, to, round, func(i int, p Peer, parent uint64) (BidReply, error) {
		r := rfb
		r.Queries = asks[i]
		r.Trace = r.Trace.Under(parent)
		return p.RequestBids(r)
	})
	for i, ok := range merged {
		if ok {
			to.Answered.Record(ids[i], asks[i])
		}
	}
	return offers, ids
}

// improveRound sends req to the peers ids names: those the round's RFB went
// to, the only ones holding offers under its id.
func improveRound(req ImproveReq, ids []string, to Sellers, round *obs.Span) []Offer {
	offers, _ := gather("improve", ids, to, round, func(_ int, p Peer, parent uint64) (BidReply, error) {
		r := req
		r.Trace = r.Trace.Under(parent)
		return p.ImproveBids(r)
	})
	return offers
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

// bestPrices lists the best standing price of each query with offers, in QID
// order. When bargaining, each entry also carries the buyer's counter-offer:
// the anchored share of that price.
func bestPrices(offers []Offer, bargain bool) QueryPrices {
	best := map[string]float64{}
	for _, o := range offers {
		if b, ok := best[o.QID]; !ok || o.Price < b {
			best[o.QID] = o.Price
		}
	}
	ps := make(QueryPrices, 0, len(best))
	for qid, b := range best {
		p := QueryPrice{QID: qid, Best: b}
		if bargain {
			p.Target = b * AnchoredDiscount
		}
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].QID < ps[j].QID })
	return ps
}

// SealedBid is the paper's default bidding protocol: one RFB round, sellers
// answer with offers, the buyer picks winners.
type SealedBid struct{}

// Name implements Protocol.
func (SealedBid) Name() string { return "sealed-bid" }

// Collect implements Protocol.
func (SealedBid) Collect(rfb RFB, to Sellers, sp *obs.Span) ([]Offer, int, error) {
	return collectRounds(rfb, to, sp, 1, false)
}

// collectRounds is the round loop every protocol shares: one sealed RFB
// round to the peers that owe an answer, then improvement rounds among them —
// each announcing the best standing price per query and, when bargaining, the
// buyer's counter-offer below it — up to maxRounds (below 1 = 3) or until no
// price moves. With no peer to ask nothing is sent and no round is used.
func collectRounds(rfb RFB, to Sellers, sp *obs.Span, maxRounds int, bargain bool) ([]Offer, int, error) {

	if maxRounds < 1 {
		maxRounds = 3
	}
	if to.Owing(rfb.Queries) == 0 {
		return nil, 0, nil
	}
	round := roundSpan(sp, 1)
	offers, asked := fanOut(rfb, to, round)
	round.End()
	used := 1
	for used < maxRounds && len(offers) > 0 {
		req := ImproveReq{RFBID: rfb.RFBID, BuyerID: rfb.BuyerID, Trace: rfb.Trace,
			Bargain: bargain, Prices: bestPrices(offers, bargain)}
		round = roundSpan(sp, used+1)
		improved := improveRound(req, asked, to, round)
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
	return collectRounds(rfb, to, sp, p.MaxRounds, false)
}

// Bargain has the buyer counter-offer a target price below the best standing
// offer each round (AnchoredDiscount of it); sellers that can meet it (per
// their strategy) undercut.
type Bargain struct {
	MaxRounds int
}

// Name implements Protocol.
func (p Bargain) Name() string { return "bargain" }

// Collect implements Protocol.
func (p Bargain) Collect(rfb RFB, to Sellers, sp *obs.Span) ([]Offer, int, error) {
	return collectRounds(rfb, to, sp, p.MaxRounds, true)
}
