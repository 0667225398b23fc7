// Package pricecache memoizes the expensive half of seller-side bid
// pricing. The QT buyer re-issues largely overlapping query sets across
// negotiation iterations (every iteration's RFB repeats the still-open
// queries of the previous one), so a seller that keeps the partition
// restriction rewrite and the modified-DP partials of a query around can
// answer the repeat RFB at strategy-pricing cost only.
//
// Entries are keyed by the canonical (qualified) SQL of the requested query
// *and* the versions of everything the cached computation read: the store's
// data epoch, its statistics version, and a hash of the node's cost-model
// constants. Any store mutation bumps an epoch, which changes the key, which
// makes every older entry unreachable — a stale price can never be returned,
// it can only age out of the LRU. Offer prices themselves are NOT cached:
// strategies are adaptive (competitive margins move between rounds), so the
// seller re-prices the cached partials through its strategy on every hit.
package pricecache

import (
	"container/list"
	"hash/fnv"
	"math"
	"sync"

	"qtrade/internal/cost"
	"qtrade/internal/localopt"
	"qtrade/internal/rewrite"
)

// Key identifies one priced query under one world state.
type Key struct {
	// SQL is the canonical text of the requested query after parsing and
	// schema qualification (so formatting differences collapse).
	SQL string
	// Epoch and StatsVersion are the store counters at pricing time.
	Epoch        int64
	StatsVersion int64
	// CostHash fingerprints the cost-model constants the DP priced under.
	CostHash uint64
}

// Entry is the cached computation: the seller rewrite of the query against
// local fragments plus the modified-DP result holding every optimal partial.
// Both are treated as immutable by all readers; concurrent pricing workers
// share them without copying. A negative entry carries Err instead: the
// rewrite or the DP failed, which under the same key it always will.
type Entry struct {
	Rewritten *rewrite.Rewritten
	Result    *localopt.Result
	Err       error
}

// Cache is a mutex-guarded LRU of priced queries. The zero value is not
// usable; call New.
type Cache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *slot
	byKey map[Key]*list.Element

	hits, misses, evictions int64
}

type slot struct {
	key Key
	e   Entry
}

// New returns a cache bounded to capacity entries (minimum 1).
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{cap: capacity, order: list.New(), byKey: map[Key]*list.Element{}}
}

// Get returns the entry for k, marking it most recently used.
func (c *Cache) Get(k Key) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[k]
	if !ok {
		c.misses++
		return Entry{}, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*slot).e, true
}

// Put stores e under k, evicting least-recently-used entries over capacity.
// It returns how many entries were evicted.
func (c *Cache) Put(k Key, e Entry) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		el.Value.(*slot).e = e
		c.order.MoveToFront(el)
		return 0
	}
	c.byKey[k] = c.order.PushFront(&slot{key: k, e: e})
	evicted := 0
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*slot).key)
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

// HashModel fingerprints a cost model's constants for use in Key.CostHash.
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
