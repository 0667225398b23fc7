package trading

import "sync"

// SellerStrategy decides the asked price of an offer from its true valuation
// and reacts to competition, per the strategy-module role of Figure 1.
// Implementations must be safe for concurrent use (a seller negotiates with
// many buyers at once).
type SellerStrategy interface {
	// Price returns the asked price for an answer whose truthful valuation
	// (under the federation weighting) is truth.
	Price(qid string, truth float64) float64
	// Improve reacts to an improvement round: given the current ask, the
	// truthful valuation and the best competing price (or the buyer's
	// bargaining target), it returns a new ask and whether the offer is
	// re-submitted.
	Improve(qid string, current, truth, competing float64) (float64, bool)
	// Observe records the outcome of a negotiation for adaptation.
	Observe(qid string, won bool)
}

// Cooperative is the truthful strategy: asked price equals the true
// valuation, the behaviour of nodes that jointly minimize federation cost
// (the paper's cooperative setting, e.g. offices of one company).
type Cooperative struct{}

// Price implements SellerStrategy.
func (Cooperative) Price(_ string, truth float64) float64 { return truth }

// Improve implements SellerStrategy: a truthful ask cannot improve.
func (Cooperative) Improve(_ string, current, _, _ float64) (float64, bool) {
	return current, false
}

// Observe implements SellerStrategy.
func (Cooperative) Observe(string, bool) {}

// Competitive is the self-interested strategy: it asks the true valuation
// plus an adaptive margin, decays the margin after losses, grows it after
// wins, and undercuts competitors in improvement rounds while the margin
// stays above MinMargin. This is the classic adaptive markup used in
// automated trading (cf. the competitive equilibria literature the paper
// cites). NewCompetitive makes one.
type Competitive struct {
	mu     sync.Mutex
	margin float64
}

// The competitive margin: it starts at initMargin, shrinks by marginDecay
// after a loss and grows by marginGrowth after a win, and stays within
// [MinMargin, MaxMargin].
const (
	initMargin   = 0.3
	MinMargin    = 0.02
	MaxMargin    = 1.0
	marginDecay  = 0.8
	marginGrowth = 1.05
)

// NewCompetitive returns a Competitive strategy at its starting margin.
func NewCompetitive() *Competitive { return &Competitive{margin: initMargin} }

// Price implements SellerStrategy.
func (c *Competitive) Price(_ string, truth float64) float64 {
	return truth * (1 + c.Margin())
}

// Improve implements SellerStrategy: undercut the best competing price while
// staying above the minimum margin.
func (c *Competitive) Improve(_ string, current, truth, competing float64) (float64, bool) {
	floor := truth * (1 + MinMargin)
	if competing <= 0 || competing <= floor || current <= competing {
		return current, false
	}
	ask := competing * 0.95
	if ask < floor {
		ask = floor
	}
	if ask >= current {
		return current, false
	}
	return ask, true
}

// Observe implements SellerStrategy.
func (c *Competitive) Observe(_ string, won bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if won {
		c.margin = min(c.margin*marginGrowth, MaxMargin)
	} else {
		c.margin = max(c.margin*marginDecay, MinMargin)
	}
}

// Margin reports the current adaptive margin (for experiments).
func (c *Competitive) Margin() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.margin
}

// LoadAware wraps another strategy and scales prices by the node's current
// load factor, so busy sellers price themselves out of further work.
type LoadAware struct {
	Inner SellerStrategy
	Load  func() float64 // required: current load in [0, ∞), 0 = idle; a negative reading counts as idle
}

// Price implements SellerStrategy.
func (l *LoadAware) Price(qid string, truth float64) float64 {
	return l.Inner.Price(qid, truth) * (1 + l.load())
}

// Improve implements SellerStrategy.
func (l *LoadAware) Improve(qid string, current, truth, competing float64) (float64, bool) {
	return l.Inner.Improve(qid, current, truth*(1+l.load()), competing)
}

// Observe implements SellerStrategy.
func (l *LoadAware) Observe(qid string, won bool) { l.Inner.Observe(qid, won) }

func (l *LoadAware) load() float64 { return max(l.Load(), 0) }

// AnchoredDiscount is the buyer's one strategy: it anchors on the best price
// seen for a query and asks for this share of it as the bargaining
// counter-offer, pressuring sellers downward round over round.
const AnchoredDiscount = 0.9
