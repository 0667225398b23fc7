package trading

import (
	"sort"
	"sync"
	"time"

	"qtrade/internal/obs"
)

// This file is the federation's membership view and the only place a
// seller's health is kept: one record per peer holding its lifecycle mark,
// its last successful contact and its circuit breaker. The lifecycle mirrors
// the node side (a node announces it is draining by rejecting new RFBs with
// ErrDraining); the breaker is written by the fault policy's calls
// (GuardCall); the directory folds both into the health gate a buyer applies
// before spending a round-trip. Autonomy cuts both ways: nodes join and leave
// on their own schedule, and buyers must keep trading through the churn
// without hanging on peers that told them "not now".

// NodeState is a federation member's lifecycle position.
type NodeState int

// The lifecycle states. A node moves Active → Draining when it wants out
// (finishing in-flight work, accepting nothing new), Draining → Left once
// quiesced, and Draining → Active if the drain is cancelled. Left is
// terminal for a node identity; rejoining is a fresh AddNode.
const (
	StateActive NodeState = iota
	StateDraining
	StateLeft
)

func (s NodeState) String() string {
	switch s {
	case StateDraining:
		return "draining"
	case StateLeft:
		return "left"
	default:
		return "active"
	}
}

// BreakerState is a circuit breaker's position.
type BreakerState int

// The breaker states. The numeric values double as the gauge encoding
// exposed through metrics ("fault.breaker.<peer>"): 0 closed, 1 half-open,
// 2 open.
const (
	BreakerClosed BreakerState = iota
	BreakerHalfOpen
	BreakerOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerConfig parameterizes one circuit breaker.
type BreakerConfig struct {
	// Threshold is the number of consecutive failures that opens the
	// breaker (0 = 5).
	Threshold int
	// Cooldown is how long an open breaker rejects calls before allowing
	// half-open probes (0 = 500ms).
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 500 * time.Millisecond
	}
	return c
}

// Breaker is a per-peer circuit breaker: closed while the peer behaves, open
// after Threshold consecutive failures (rejecting calls without touching the
// network), half-open after Cooldown to let probe calls test the peer again;
// the first probe that succeeds closes it.
// A nil breaker is closed for good.
type Breaker struct {
	cfg BreakerConfig
	now func() time.Time // the one injectable clock; nil = time.Now

	state *obs.Gauge   // last state transition, 0/1/2 (nil-safe)
	opens *obs.Counter // closed→open transitions (nil-safe)

	mu       sync.Mutex
	st       BreakerState
	failures int // consecutive failures while closed
	openedAt time.Time
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

func (b *Breaker) clock() time.Time {
	if b.now != nil {
		return b.now()
	}
	return time.Now()
}

// position returns the breaker's state, moving open→half-open once the
// cooldown has elapsed; callers hold b.mu.
func (b *Breaker) position() BreakerState {
	if b.st == BreakerOpen && b.clock().Sub(b.openedAt) >= b.cfg.Cooldown {
		b.st = BreakerHalfOpen
		b.state.Set(float64(BreakerHalfOpen))
	}
	return b.st
}

// Allow reports whether a call may proceed.
func (b *Breaker) Allow() bool { return b.State() != BreakerOpen }

// State returns the breaker's position.
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.position()
}

// OnSuccess records a successful call.
func (b *Breaker) OnSuccess() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.st == BreakerHalfOpen {
		b.st = BreakerClosed
		b.state.Set(float64(BreakerClosed))
	}
	b.failures = 0
}

// OnFailure records a failed call, opening the breaker when the consecutive
// failure threshold is reached (or immediately from half-open: a failed
// probe means the peer is still sick).
func (b *Breaker) OnFailure() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.st {
	case BreakerHalfOpen:
		b.open()
	case BreakerClosed:
		b.failures++
		if b.failures >= b.cfg.Threshold {
			b.open()
		}
	}
}

// open transitions to the open state; callers hold b.mu.
func (b *Breaker) open() {
	b.st = BreakerOpen
	b.openedAt = b.clock()
	b.failures = 0
	b.state.Set(float64(BreakerOpen))
	b.opens.Inc()
}

// PeerHealth is one directory entry's exported view.
type PeerHealth struct {
	ID       string    `json:"id"`
	State    string    `json:"state"`
	Breaker  string    `json:"breaker,omitempty"`
	LastSeen time.Time `json:"last_seen,omitempty"`
}

// dirEntry is a peer's one health record.
type dirEntry struct {
	state   NodeState
	seen    time.Time
	breaker *Breaker // made by the first guarded call; nil = closed
}

// Directory tracks every known peer's lifecycle state, last successful
// contact and circuit breaker, and answers the question a buyer asks at the
// top of every negotiation: which peers are worth sending an RFB to right
// now? A fault policy whose Directory is this one keeps its breakers here,
// so whoever reads the directory reads them too. All methods are safe for
// concurrent use and nil-safe, so an ungated federation (nil directory)
// behaves exactly as before.
type Directory struct {
	mu    sync.RWMutex
	peers map[string]*dirEntry
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{peers: map[string]*dirEntry{}}
}

// entry returns id's record, creating it Active; callers hold d.mu.
func (d *Directory) entry(id string) *dirEntry {
	e := d.peers[id]
	if e == nil {
		e = &dirEntry{state: StateActive}
		d.peers[id] = e
	}
	return e
}

// breaker returns id's circuit breaker, made on first use under p's
// thresholds and reporting to p's metrics as the gauge
// "fault.breaker.<peer>" (0 closed, 1 half-open, 2 open) and the counter
// "fault.breaker_opens". A nil directory hands out nil breakers, which allow
// everything.
func (d *Directory) breaker(id string, p *FaultPolicy) *Breaker {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.entry(id)
	if e.breaker == nil {
		e.breaker = NewBreaker(p.Breaker)
		e.breaker.state = p.Metrics.Gauge("fault.breaker." + id)
		e.breaker.opens = p.Metrics.Counter("fault.breaker_opens")
	}
	return e.breaker
}

// MarkState records a peer's lifecycle state (e.g. on AddNode, on a drain
// command, or when a call came back ErrDraining). Nil-safe.
func (d *Directory) MarkState(id string, s NodeState) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.entry(id).state = s
}

// Seen records a successful contact with a peer, marking it Active again if
// it had been observed draining (a node that answers new RFBs has undrained).
// Nil-safe.
func (d *Directory) Seen(id string) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.entry(id)
	e.seen = time.Now()
	if e.state == StateDraining {
		e.state = StateActive
	}
}

// Forget drops a peer's record — lifecycle mark, last contact and breaker —
// entirely (RemoveNode), so a node rejoining under the same id starts as a
// stranger with a closed breaker. Nil-safe.
func (d *Directory) Forget(id string) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if e := d.peers[id]; e != nil && e.breaker != nil {
		e.breaker.state.Set(float64(BreakerClosed))
	}
	delete(d.peers, id)
}

// State reports a peer's recorded lifecycle state; unknown peers are Active
// (the directory is an exclusion list, not an allow list — a peer nobody has
// complained about is worth an RFB). Nil-safe.
func (d *Directory) State(id string) NodeState {
	if d == nil {
		return StateActive
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if e := d.peers[id]; e != nil {
		return e.state
	}
	return StateActive
}

// Eligible reports whether a negotiation should fan out to the peer: its
// lifecycle state is Active and its breaker is not open. This is the health
// gate buyers apply before spending a round-trip. Nil-safe: a nil directory
// gates nothing.
func (d *Directory) Eligible(id string) bool {
	if d == nil {
		return true
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	e := d.peers[id]
	return e == nil || e.state == StateActive && e.breaker.State() != BreakerOpen
}

// Snapshot returns every tracked peer's health, sorted by id, for /healthz
// and operator tooling. Breaker is empty for a peer no guarded call has
// reached. Nil-safe.
func (d *Directory) Snapshot() []PeerHealth {
	if d == nil {
		return nil
	}
	d.mu.RLock()
	out := make([]PeerHealth, 0, len(d.peers))
	for id, e := range d.peers {
		h := PeerHealth{ID: id, State: e.state.String(), LastSeen: e.seen}
		if e.breaker != nil {
			h.Breaker = e.breaker.State().String()
		}
		out = append(out, h)
	}
	d.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
