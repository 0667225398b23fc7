// Package pricecache memoizes everything about seller-side bid pricing that
// is a function of the query text and the state of the node. One negotiation
// asks a seller each query once, but negotiations repeat: a buyer asking the
// same query again asks the same subqueries too, since its predicates
// analyser derives them the same way every time, so a seller that keeps what
// it worked out for a query around answers the repeat at strategy-pricing
// cost only.
//
// An entry is keyed by the query text exactly as the RFB carried it, so a hit
// is found before anything is parsed: two formattings of one query are two
// entries, and the buyer, which prints every subquery the same way each
// negotiation, pays for that only once per formatting. An entry holds what a
// hit reads and nothing more: the drafts — one ready-made offer per optimal
// partial the modified DP retained, per matching view, and for the partial
// aggregate, each with its printed SQL, output columns, coverage, valuation
// and the physical plan that valuation was costed from — and, on a node that
// subcontracts, the gaps: per relation it holds only part of, the
// one-relation subquery and the partitions a nested negotiation would buy.
// The parsed query and its rewrite are not kept; nothing after the miss that
// built the entry reads them. A text whose parse, rewrite or DP failed is
// remembered as its error alone.
//
// Drafts are safe to share because nothing downstream writes them. Minting
// copies the offer by value and stamps the copy; Bindings, Parts and Cols are
// read by the buyer and never changed; no expression is written after it is
// built; and the executor compiles every predicate, projection and key it
// evaluates into a program of its own, keeps its actuals in a side
// table keyed by node, and stamps no estimate on a seller's plan — so one plan
// tree serves the entry, every book entry minted from it and any number of
// concurrent executions (node.TestPricedPlanIsSharedReadOnly runs that under
// the race detector). A book entry points at its draft's plan and nothing
// more, so what outlives a purged entry is the plans of offers still standing.
//
// Everything an entry was computed from besides the text — the store's data
// epoch, its statistics version, the node's cost-model constants — is the
// cache's one Generation, not part of each key. A lookup or a store under a
// newer generation empties the cache — both LRUs — first; one under an older
// generation misses, or is dropped. A stale price can never be returned, and
// entries no lookup can reach any more do not sit in an LRU holding plans. The
// seller stamps the same Generation on the offers it mints from an entry: a
// purchase opens the draft's plan only while the node is still in it. Offer
// prices themselves are NOT cached: strategies are adaptive (competitive
// margins move between rounds), so the seller re-prices the drafts through its
// strategy on every hit, and a subcontracted composite depends on what peers
// reply to the RFB at hand, so it is drafted per RFB.
//
// Priced and failed texts live in two LRUs, so a failure never evicts a
// priced entry nor a priced entry a failure. The priced one holds capacity
// entries, 256 by default; the failed one failedPerPriced times as many
// errors, since a seller asked about partitions it does not hold fails most
// of what it is asked — on the chain_parts workload 504 of the 668 texts a
// node is asked over the query list. That whole working set now fits: the
// hit ratio there went from 0.64 to 1.00 and live heap from 12.02 to
// 12.90 MiB (+7.3 %). Counting only priced entries while an entry still
// held its parse tree and rewrite had cost +38 % (29 to 40 MiB).
package pricecache

import (
	"container/list"
	"hash/fnv"
	"math"
	"sync"

	"qtrade/internal/cost"
	"qtrade/internal/plan"
	"qtrade/internal/sqlparse"
	"qtrade/internal/trading"
)

// Generation is the world state entries are computed under: the store
// counters at pricing time and a fingerprint of the cost-model constants.
type Generation struct {
	Epoch        int64
	StatsVersion int64
	CostHash     uint64
}

// before orders generations by the store's counters, which only grow.
func (g Generation) before(o Generation) bool {
	return g.Epoch < o.Epoch || g.Epoch == o.Epoch && g.StatsVersion < o.StatsVersion
}

// Draft is one offer the node can make for an entry's text, complete but for
// what belongs to a single RFB: the embedded offer carries the subquery as
// printed SQL, its output columns, what it covers (Bindings, Parts, Complete,
// the kind flags) and what it costs (Props); minting adds the ids and asks the
// strategy for the price. Plan is the physical plan Props was costed from, and
// the one a purchase of the offer opens.
type Draft struct {
	trading.Offer
	Kind string // offer-id kind: "o" partial, "v" view, "s" composite, "a" partial aggregate
	Plan plan.Node
}

// Entry is everything a hit on a query text reads under one generation: the
// ready-made drafts of every offer whose content is a function of the text
// and the generation alone — in minting order, one per optimal partial the
// modified DP retained, then one per matching view, and apart from them the
// partial aggregate, which is minted after whatever the RFB at hand adds
// (subcontracted composites) — and the gaps subcontracting assembles those
// from. All of it, plan trees included, is immutable to every reader: pricing
// workers, book entries and executions share it without copying. A failed
// text's entry carries Err alone: the parse, the rewrite or the DP failed,
// which for the same text in the same generation it always will.
type Entry struct {
	Drafts     []Draft
	PartialAgg *Draft // nil when the query has none to offer
	Gaps       []Gap  // nil unless the node subcontracts
	Err        error
}

// Gap is one relation of a query the node holds only part of, as
// subcontracting reads it: the relation's one-relation subquery, the
// partitions of it the query needs (Relevant), those the node holds (Held)
// and the rest (Missing), and whether the query aggregates, in which case a
// composite offer is stripped of it like every partial one.
type Gap struct {
	Table, Binding          string
	Sub                     *sqlparse.Select
	Held, Missing, Relevant []string
	Agg                     bool
}

// failedPerPriced sizes the failed LRU against the priced one.
const failedPerPriced = 4

// Cache holds priced and failed texts in two LRUs under one generation,
// behind one mutex. The zero value is not usable; call New.
type Cache struct {
	mu     sync.Mutex
	gen    Generation // of every entry held
	priced lru[Entry]
	failed lru[error]

	hits, misses, evictions int64
}

// New returns a cache of capacity priced entries (minimum 1) and
// failedPerPriced times as many failed ones.
func New(capacity int) *Cache {
	capacity = max(capacity, 1)
	return &Cache{priced: newLRU[Entry](capacity), failed: newLRU[error](failedPerPriced * capacity)}
}

// current reports whether g is the generation the cache holds, after moving
// the cache on — and emptying both LRUs — when g is newer. Callers hold c.mu.
func (c *Cache) current(g Generation) bool {
	if g != c.gen && !g.before(c.gen) {
		c.gen = g
		c.priced.clear()
		c.failed.clear()
	}
	return g == c.gen
}

// Get returns the entry for the query text sql under generation g, marking it
// most recently used in its LRU; a failed text's entry carries its error.
func (c *Cache) Get(g Generation, sql string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.current(g) {
		if e, ok := c.priced.get(sql); ok {
			c.hits++
			return e, true
		}
		if err, ok := c.failed.get(sql); ok {
			c.hits++
			return Entry{Err: err}, true
		}
	}
	c.misses++
	return Entry{}, false
}

// Put stores e under sql — its error alone in the failed LRU when it has one,
// in the priced LRU otherwise — evicting that LRU's least-recently-used
// entries over its capacity, and returns how many were evicted. An entry
// computed under a generation the cache has moved past is dropped.
func (c *Cache) Put(g Generation, sql string, e Entry) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.current(g) {
		return 0
	}
	var evicted int
	if e.Err != nil {
		evicted = c.failed.put(sql, e.Err)
	} else {
		evicted = c.priced.put(sql, e)
	}
	c.evictions += int64(evicted)
	return evicted
}

// Len reports the number of live entries, priced and failed.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.priced.order.Len() + c.failed.order.Len()
}

// Stats reports cumulative hit/miss/eviction counts over both LRUs.
func (c *Cache) Stats() (hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// lru is a bounded map from query text to V that forgets the least recently
// used key first.
type lru[V any] struct {
	cap   int
	order *list.List // front = most recently used; values are *slot[V]
	byKey map[string]*list.Element
}

type slot[V any] struct {
	key string
	v   V
}

func newLRU[V any](capacity int) lru[V] {
	return lru[V]{cap: capacity, order: list.New(), byKey: map[string]*list.Element{}}
}

func (l *lru[V]) get(key string) (V, bool) {
	el, ok := l.byKey[key]
	if !ok {
		var zero V
		return zero, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*slot[V]).v, true
}

// put stores v under key and returns how many keys it evicted.
func (l *lru[V]) put(key string, v V) int {
	if el, ok := l.byKey[key]; ok {
		el.Value.(*slot[V]).v = v
		l.order.MoveToFront(el)
		return 0
	}
	l.byKey[key] = l.order.PushFront(&slot[V]{key: key, v: v})
	evicted := 0
	for l.order.Len() > l.cap {
		oldest := l.order.Back()
		l.order.Remove(oldest)
		delete(l.byKey, oldest.Value.(*slot[V]).key)
		evicted++
	}
	return evicted
}

func (l *lru[V]) clear() {
	l.order.Init()
	clear(l.byKey)
}

// HashModel fingerprints a cost model's constants for Generation.CostHash.
// Nodes hold their model immutable after construction, so this is computed
// once per node.
func HashModel(m *cost.Model) uint64 {
	h := fnv.New64a()
	for _, f := range []float64{
		m.CPURow, m.IORow, m.HashBuildRow, m.HashProbeRow, m.SortRow,
		m.AggRow, m.NetLatency, m.BytesPerMS, m.StartupCost,
	} {
		b := math.Float64bits(f)
		var buf [8]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}
