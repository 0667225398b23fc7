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
// negotiation, pays for that only once per formatting. An entry holds the
// parsed, qualified query and its rewrite against the local fragments — what
// the one per-RFB offer source, subcontracting, still reads — and the drafts:
// one ready-made offer per optimal partial the modified DP retained, per
// matching view, and for the partial aggregate, each with its printed SQL,
// output columns, coverage, valuation and the physical plan that valuation was
// costed from. A text that does not parse is remembered like a rewrite that
// fails.
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
// newer generation empties the cache first; one under an older generation
// misses, or is dropped. A stale price can never be returned, and entries no
// lookup can reach any more do not sit in the LRU holding parse trees. The
// seller stamps the same Generation on the offers it mints from an entry: a
// purchase opens the draft's plan only while the node is still in it. Offer
// prices themselves are NOT cached: strategies are adaptive (competitive
// margins move between rounds), so the seller re-prices the drafts through its
// strategy on every hit, and a subcontracted composite depends on what peers
// reply to the RFB at hand, so it is drafted per RFB.
//
// Capacity stays a count of entries, positive and negative alike, 256 by
// default. Counting only priced entries was measured on the chain_parts
// workload: 256 real entries per node where a mostly-negative mix sat took
// live heap from 29 to 40 MiB (+38 %).
package pricecache

import (
	"container/list"
	"hash/fnv"
	"math"
	"sync"

	"qtrade/internal/cost"
	"qtrade/internal/plan"
	"qtrade/internal/rewrite"
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

// Entry is everything the seller knows about a query text under one
// generation: the query as parsed and qualified, its seller rewrite against
// local fragments, and the ready-made drafts of every offer whose content is a
// function of the text and the generation alone — in minting order, one per
// optimal partial the modified DP retained, then one per matching view, and
// apart from them the partial aggregate, which is minted after whatever the
// RFB at hand adds (subcontracted composites). All of it, plan trees included,
// is immutable to every reader: pricing workers, book entries and executions
// share it without copying. A negative entry carries Err instead: the parse,
// the rewrite or the DP failed, which for the same text in the same generation
// it always will.
type Entry struct {
	Sel        *sqlparse.Select
	Rewritten  *rewrite.Rewritten
	Drafts     []Draft
	PartialAgg *Draft // nil when the query has none to offer
	Err        error
}

// Cache is a mutex-guarded LRU of priced queries. The zero value is not
// usable; call New.
type Cache struct {
	mu    sync.Mutex
	cap   int
	gen   Generation // of every entry held
	order *list.List // front = most recently used; values are *slot
	byKey map[string]*list.Element

	hits, misses, evictions int64
}

type slot struct {
	sql string
	e   Entry
}

// New returns a cache bounded to capacity entries (minimum 1).
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{cap: capacity, order: list.New(), byKey: map[string]*list.Element{}}
}

// current reports whether g is the generation the cache holds, after moving
// the cache on — and emptying it — when g is newer. Callers hold c.mu.
func (c *Cache) current(g Generation) bool {
	if g != c.gen && !g.before(c.gen) {
		c.gen = g
		c.order.Init()
		clear(c.byKey)
	}
	return g == c.gen
}

// Get returns the entry for the query text sql under generation g, marking it
// most recently used.
func (c *Cache) Get(g Generation, sql string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.current(g) {
		c.misses++
		return Entry{}, false
	}
	el, ok := c.byKey[sql]
	if !ok {
		c.misses++
		return Entry{}, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*slot).e, true
}

// Put stores e under sql, evicting least-recently-used entries over capacity,
// and returns how many were evicted. An entry computed under a generation the
// cache has moved past is dropped.
func (c *Cache) Put(g Generation, sql string, e Entry) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.current(g) {
		return 0
	}
	if el, ok := c.byKey[sql]; ok {
		el.Value.(*slot).e = e
		c.order.MoveToFront(el)
		return 0
	}
	c.byKey[sql] = c.order.PushFront(&slot{sql: sql, e: e})
	evicted := 0
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*slot).sql)
		evicted++
	}
	c.evictions += int64(evicted)
	return evicted
}

// Len reports the number of live entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats reports cumulative hit/miss/eviction counts.
func (c *Cache) Stats() (hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
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
