package serve

import (
	"fmt"
	"sync"
	"testing"
)

// TestLRUEviction: capacity bounds the cache and evicts least recently
// used first.
func TestLRUEviction(t *testing.T) {
	c := newLRUCache(2)
	c.Add("a", QueryResponse{MeanONITemp: 1})
	c.Add("b", QueryResponse{MeanONITemp: 2})
	if _, ok := c.Get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Add("c", QueryResponse{MeanONITemp: 3}) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted wrongly", k)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}

// TestLRURefresh: re-adding a key updates in place without growing.
func TestLRURefresh(t *testing.T) {
	c := newLRUCache(2)
	c.Add("a", QueryResponse{MeanONITemp: 1})
	c.Add("a", QueryResponse{MeanONITemp: 9})
	v, ok := c.Get("a")
	if !ok || v.MeanONITemp != 9 {
		t.Fatalf("refresh lost: %+v ok=%v", v, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d after refresh", c.Len())
	}
}

// TestLRUConcurrent hammers the cache from many goroutines (-race).
func TestLRUConcurrent(t *testing.T) {
	c := newLRUCache(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (w*7+i)%32)
				if i%3 == 0 {
					c.Add(k, QueryResponse{MeanONITemp: float64(i)})
				} else {
					c.Get(k)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Fatalf("cache grew past capacity: %d", c.Len())
	}
}

// TestCacheKeyCanonicalisation: the driver default and float spellings
// collapse; distinct scenarios stay distinct.
func TestCacheKeyCanonicalisation(t *testing.T) {
	base := Scenario{Chip: 25, PVCSEL: 2e-3, PHeater: 6e-4}
	explicit := base
	d := 2e-3
	explicit.PDriver = &d
	if base.cacheKey() != explicit.cacheKey() {
		t.Fatal("defaulted and explicit driver produce different keys")
	}
	uniform := base
	uniform.Activity = "uniform"
	if base.cacheKey() != uniform.cacheKey() {
		t.Fatal("empty and explicit uniform activity produce different keys")
	}
	seeded := uniform
	seeded.Seed = 7 // uniform ignores the seed
	if uniform.cacheKey() != seeded.cacheKey() {
		t.Fatal("stray seed on a non-random activity splits the key")
	}
	distinct := []Scenario{
		{Chip: 25, PVCSEL: 2e-3},
		{Chip: 25, PVCSEL: 3e-3},
		{Chip: 25, PVCSEL: 2e-3, PHeater: 1e-3},
		{Chip: 25, PVCSEL: 2e-3, Activity: "diagonal"},
		{Chip: 25, PVCSEL: 2e-3, Activity: "random", Seed: 7},
		{Chip: 25, PVCSEL: 2e-3, Spec: "other"},
	}
	seen := map[string]int{}
	for i, sc := range distinct {
		k := sc.cacheKey()
		if j, dup := seen[k]; dup {
			t.Fatalf("scenarios %d and %d collide on %q", i, j, k)
		}
		seen[k] = i
	}
}
