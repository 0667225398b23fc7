package pricecache

import (
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
