package server

import (
	"sync"
	"testing"
)

func TestCacheGetPutEvict(t *testing.T) {
	c := newResultCache(4, 1) // one shard, capacity 4: LRU order is exact
	key := func(i int) cacheKey { return cacheKey{s: int32(i), t: int32(i + 1), fhash: 42} }
	for i := 0; i < 4; i++ {
		c.Put(key(i), Answer{S: i, Dist: int64(i)})
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
	// Touch key(0) so key(1) is now the LRU victim.
	if a, ok := c.Get(key(0)); !ok || a.Dist != 0 {
		t.Fatalf("Get(0) = %v %v", a, ok)
	}
	c.Put(key(4), Answer{S: 4, Dist: 4})
	if _, ok := c.Get(key(1)); ok {
		t.Error("key(1) should have been evicted")
	}
	if _, ok := c.Get(key(0)); !ok {
		t.Error("key(0) was recently used and should survive")
	}
	// Same (s,t), different fault hash: distinct entries.
	c.Put(cacheKey{s: 0, t: 1, fhash: 99}, Answer{Dist: 77})
	if a, ok := c.Get(cacheKey{s: 0, t: 1, fhash: 99}); !ok || a.Dist != 77 {
		t.Errorf("fault-hash variant lost: %v %v", a, ok)
	}
	c.Flush()
	if c.Len() != 0 {
		t.Errorf("Len after Flush = %d", c.Len())
	}
	if _, ok := c.Get(key(0)); ok {
		t.Error("Get after Flush should miss")
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newResultCache(-1, 4)
	c.Put(cacheKey{s: 1, t: 2}, Answer{Dist: 9})
	if _, ok := c.Get(cacheKey{s: 1, t: 2}); ok {
		t.Error("disabled cache must always miss")
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestCachePutUpdatesExisting(t *testing.T) {
	c := newResultCache(2, 1)
	k := cacheKey{s: 1, t: 2, fhash: 3}
	c.Put(k, Answer{Dist: 1})
	c.Put(k, Answer{Dist: 2})
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if a, _ := c.Get(k); a.Dist != 2 {
		t.Errorf("Dist = %d, want updated 2", a.Dist)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := newResultCache(256, 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := cacheKey{s: int32(i % 64), t: int32(w), fhash: uint64(i % 16)}
				if i%3 == 0 {
					c.Put(k, Answer{Dist: int64(i)})
				} else {
					c.Get(k)
				}
				if i%100 == 99 {
					c.Flush()
				}
			}
		}(w)
	}
	wg.Wait()
	// Sanity only: no panic, no race; contents depend on interleaving.
	if c.Len() > 256+8 {
		t.Errorf("Len = %d exceeds capacity", c.Len())
	}
}

func TestCacheShardSpread(t *testing.T) {
	c := newResultCache(1024, 8)
	for i := 0; i < 512; i++ {
		c.Put(cacheKey{s: int32(i), t: int32(i + 1), fhash: uint64(i)}, Answer{})
	}
	used := 0
	for _, n := range c.ShardLens() {
		if n > 0 {
			used++
		}
	}
	if used < 4 {
		t.Errorf("only %d/8 shards used — bad key mixing", used)
	}
}
