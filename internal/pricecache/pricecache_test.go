package pricecache

import (
	"errors"
	"fmt"
	"testing"

	"qtrade/internal/cost"
)

func gen(epoch, statsV int64) Generation {
	return Generation{Epoch: epoch, StatsVersion: statsV, CostHash: 42}
}

func entry() Entry { return Entry{PartialAgg: &Draft{}} }

func TestGetPutAndStats(t *testing.T) {
	c := New(4)
	g, k := gen(1, 1), "SELECT 1"
	if _, ok := c.Get(g, k); ok {
		t.Fatal("hit on empty cache")
	}
	e := entry()
	c.Put(g, k, e)
	got, ok := c.Get(g, k)
	if !ok || got.PartialAgg != e.PartialAgg {
		t.Fatal("stored entry not returned")
	}
	hits, misses, evictions := c.Stats()
	if hits != 1 || misses != 1 || evictions != 0 {
		t.Fatalf("stats = %d/%d/%d, want 1/1/0", hits, misses, evictions)
	}
}

// TestNewerGenerationEmpties: the cache holds one generation. A lookup or a
// store under a newer one (either store counter moved, or another cost model)
// empties it; a lookup under an older one misses and its late Put is dropped,
// leaving what the newer generation stored.
func TestNewerGenerationEmpties(t *testing.T) {
	for _, newer := range []Generation{
		gen(2, 1),                                // data epoch moved
		gen(1, 2),                                // stats version moved
		{Epoch: 1, StatsVersion: 1, CostHash: 7}, // different cost model
	} {
		c := New(4)
		c.Put(gen(1, 1), "q", entry())
		c.Put(gen(1, 1), "r", entry())
		if _, ok := c.Get(newer, "q"); ok {
			t.Fatalf("stale hit under %+v", newer)
		}
		if c.Len() != 0 {
			t.Fatalf("%d entries survive a lookup under %+v", c.Len(), newer)
		}
		if newer.CostHash != 42 {
			continue // another model under the same counters is not older
		}
		fresh := entry()
		c.Put(newer, "q", fresh)
		if _, ok := c.Get(gen(1, 1), "q"); ok {
			t.Fatal("a lookup under the older generation hit the newer entry")
		}
		c.Put(gen(1, 1), "q", entry())
		c.Put(gen(1, 1), "late", entry())
		if got, ok := c.Get(newer, "q"); !ok || got.PartialAgg != fresh.PartialAgg || c.Len() != 1 {
			t.Fatalf("a late Put of the older generation was kept: hit %v, %d entries", ok, c.Len())
		}
	}
	c := New(4)
	c.Put(gen(1, 1), "q", entry())
	if c.Put(gen(3, 0), "q", entry()); c.Len() != 1 {
		t.Fatalf("a Put under a newer generation left %d entries, want its own", c.Len())
	}
	if _, ok := c.Get(gen(1, 1), "q"); ok {
		t.Fatal("the entry of the generation moved past is still served")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	g, k0, k1, k2 := gen(1, 1), "q0", "q1", "q2"
	c.Put(g, k0, entry())
	c.Put(g, k1, entry())
	c.Get(g, k0) // touch k0 so k1 is now the LRU victim
	if ev := c.Put(g, k2, entry()); ev != 1 {
		t.Fatalf("evicted %d, want 1", ev)
	}
	if _, ok := c.Get(g, k1); ok {
		t.Fatal("LRU entry k1 survived eviction")
	}
	if _, ok := c.Get(g, k0); !ok {
		t.Fatal("recently used k0 was evicted")
	}
	if _, ok := c.Get(g, k2); !ok {
		t.Fatal("new entry k2 missing")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

// TestFailedTextsKeptApart: a failed text is stored as its error in an LRU of
// its own, failedPerPriced times the priced capacity, so neither kind ever
// evicts the other; a hit on a failed text returns the error it failed with;
// Len, hits, misses and evictions count both.
func TestFailedTextsKeptApart(t *testing.T) {
	c := New(2)
	g := gen(1, 1)
	priced := []string{"p0", "p1"}
	for _, k := range priced {
		c.Put(g, k, entry())
	}
	failed := map[string]error{}
	for i := range failedPerPriced * 2 {
		k := fmt.Sprintf("f%d", i)
		failed[k] = fmt.Errorf("%s: local partitions contradict the query predicate", k)
		if ev := c.Put(g, k, Entry{Err: failed[k]}); ev != 0 {
			t.Fatalf("failed text %s evicted %d entries below its own bound", k, ev)
		}
	}
	if c.Len() != 10 {
		t.Fatalf("len = %d, want 2 priced + 8 failed", c.Len())
	}
	for _, k := range priced {
		if e, ok := c.Get(g, k); !ok || e.Err != nil || e.PartialAgg == nil {
			t.Fatalf("priced %s lost to failures: hit %v, %+v", k, ok, e)
		}
	}
	for k, err := range failed {
		if e, ok := c.Get(g, k); !ok || !errors.Is(e.Err, err) || e.Drafts != nil || e.PartialAgg != nil {
			t.Fatalf("failed %s: hit %v, entry %+v, want its error alone", k, ok, e)
		}
	}
	// Over each bound, each LRU evicts its own.
	if ev := c.Put(g, "f-more", Entry{Err: errors.New("nothing local")}); ev != 1 {
		t.Fatalf("a failure over the failed bound evicted %d, want 1", ev)
	}
	if ev := c.Put(g, "p-more", entry()); ev != 1 {
		t.Fatalf("a priced entry over the priced bound evicted %d, want 1", ev)
	}
	held := 0
	for k := range failed {
		if _, ok := c.Get(g, k); ok {
			held++
		}
	}
	if held != 7 || c.Len() != 10 {
		t.Fatalf("%d of the first failures held, %d entries; want 7 (one evicted by a failure), 10", held, c.Len())
	}
	if _, ok := c.Get(g, "zz"); ok {
		t.Fatal("hit on a text never stored")
	}
	// Hits: 2 + 8 in the first reads, 7 of the failures again; misses: the
	// evicted failure and "zz"; evictions: one of each kind.
	if hits, misses, evictions := c.Stats(); hits != 17 || misses != 2 || evictions != 2 {
		t.Fatalf("stats = %d/%d/%d, want 17/2/2", hits, misses, evictions)
	}
}

// TestFailedLRUEviction: the failed LRU forgets its least recently used
// error first.
func TestFailedLRUEviction(t *testing.T) {
	c := New(1)
	g := gen(1, 1)
	for i := range failedPerPriced {
		c.Put(g, fmt.Sprintf("f%d", i), Entry{Err: errors.New("nothing local")})
	}
	c.Get(g, "f0") // touch f0 so f1 is now the LRU victim
	if ev := c.Put(g, "f-new", Entry{Err: errors.New("nothing local")}); ev != 1 {
		t.Fatalf("evicted %d, want 1", ev)
	}
	for k, want := range map[string]bool{"f0": true, "f1": false, "f2": true, "f3": true, "f-new": true} {
		if _, ok := c.Get(g, k); ok != want {
			t.Fatalf("%s held %v, want %v", k, ok, want)
		}
	}
}

// TestNewerGenerationEmptiesBoth: a newer generation empties the failed LRU
// with the priced one, and a late Put of an older generation is dropped from
// either.
func TestNewerGenerationEmptiesBoth(t *testing.T) {
	c := New(4)
	old, newer := gen(1, 1), gen(2, 1)
	c.Put(old, "p", entry())
	c.Put(old, "f", Entry{Err: errors.New("nothing local")})
	if _, ok := c.Get(newer, "f"); ok || c.Len() != 0 {
		t.Fatalf("after a lookup under a newer generation: hit %v, %d entries; want a miss, 0", ok, c.Len())
	}
	c.Put(newer, "f", Entry{Err: errors.New("contradiction")})
	c.Put(old, "late-p", entry())
	c.Put(old, "late-f", Entry{Err: errors.New("nothing local")})
	if c.Len() != 1 {
		t.Fatalf("%d entries, want the newer generation's one: a late Put was kept", c.Len())
	}
	if e, ok := c.Get(newer, "f"); !ok || e.Err.Error() != "contradiction" {
		t.Fatalf("newer failure: hit %v, %v", ok, e.Err)
	}
}

func TestPutExistingUpdates(t *testing.T) {
	c := New(2)
	g, k := gen(1, 1), "q"
	c.Put(g, k, entry())
	e2 := entry()
	if ev := c.Put(g, k, e2); ev != 0 {
		t.Fatalf("update evicted %d entries", ev)
	}
	got, _ := c.Get(g, k)
	if got.PartialAgg != e2.PartialAgg {
		t.Fatal("update did not replace entry")
	}
}

func TestHashModelDistinguishesModels(t *testing.T) {
	a, b := cost.Default(), cost.Default()
	if HashModel(a) != HashModel(b) {
		t.Fatal("equal models hash differently")
	}
	b.NetLatency *= 2
	if HashModel(a) == HashModel(b) {
		t.Fatal("different models collide")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(8)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			// The store ticks under the workers: some still price under the
			// generation the cache has moved past.
			for i := 0; i < 200; i++ {
				at, k := gen(int64((g+i)/100), 1), fmt.Sprintf("q%d", (g+i)%16)
				if _, ok := c.Get(at, k); !ok {
					c.Put(at, k, entry())
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}
