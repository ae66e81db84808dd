// Package lru provides a sharded least-recently-used cache: a fixed
// total capacity spread over independently locked shards, so concurrent
// readers on different shards never contend. It backs the hot-path
// caches of the repo — extracted labels in core.Scheme, decoded labels
// in labelstore.Store, and query answers in the server — which all share
// the same shape: small fixed-size maps hammered by many goroutines.
//
// The zero-capacity cache is valid and caches nothing. Hit/miss
// accounting is left to callers (they own the metrics lifecycle); the
// cache itself only moves entries.
package lru

import "sync"

// Cache is a sharded LRU from K to V. The shard of a key is chosen by
// the caller-supplied hash function, so callers control how their key
// distribution spreads (e.g. mixing both endpoints of a query pair).
type Cache[K comparable, V any] struct {
	shards []shard[K, V]
	perCap int // capacity per shard; 0 disables caching
	hash   func(K) uint64
}

type shard[K comparable, V any] struct {
	mu    sync.Mutex
	byKey map[K]*node[K, V]
	// Intrusive doubly-linked LRU list: head is most recent, tail least.
	head, tail *node[K, V]
}

type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next *node[K, V]
}

// New builds a cache with the given total capacity spread over nshards
// shards. capacity <= 0 disables caching (every Get misses, every Put is
// dropped).
func New[K comparable, V any](capacity, nshards int, hash func(K) uint64) *Cache[K, V] {
	if nshards < 1 {
		nshards = 1
	}
	perCap := 0
	if capacity > 0 {
		perCap = (capacity + nshards - 1) / nshards
	}
	c := &Cache[K, V]{shards: make([]shard[K, V], nshards), perCap: perCap, hash: hash}
	for i := range c.shards {
		c.shards[i].byKey = make(map[K]*node[K, V])
	}
	return c
}

func (c *Cache[K, V]) shard(k K) *shard[K, V] {
	return &c.shards[c.hash(k)%uint64(len(c.shards))]
}

// Get returns the cached value for k, if present, and marks it most
// recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	var zero V
	if c == nil || c.perCap == 0 {
		return zero, false
	}
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	nd, ok := sh.byKey[k]
	if !ok {
		return zero, false
	}
	sh.moveToFront(nd)
	return nd.val, true
}

// Put stores the value for k, evicting the least recently used entry of
// the shard when it is full.
func (c *Cache[K, V]) Put(k K, v V) {
	if c == nil || c.perCap == 0 {
		return
	}
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if nd, ok := sh.byKey[k]; ok {
		nd.val = v
		sh.moveToFront(nd)
		return
	}
	for len(sh.byKey) >= c.perCap {
		last := sh.tail
		sh.unlink(last)
		delete(sh.byKey, last.key)
	}
	nd := &node[K, V]{key: k, val: v}
	sh.pushFront(nd)
	sh.byKey[k] = nd
}

// Flush drops every entry.
func (c *Cache[K, V]) Flush() {
	if c == nil {
		return
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.byKey = make(map[K]*node[K, V])
		sh.head, sh.tail = nil, nil
		sh.mu.Unlock()
	}
}

// ShardLens returns the entry count of each shard — observability for
// tests and dashboards that want to see whether the key hash spreads.
func (c *Cache[K, V]) ShardLens() []int {
	if c == nil {
		return nil
	}
	out := make([]int, len(c.shards))
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		out[i] = len(sh.byKey)
		sh.mu.Unlock()
	}
	return out
}

// Len returns the number of cached entries across all shards.
func (c *Cache[K, V]) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.byKey)
		sh.mu.Unlock()
	}
	return n
}

func (sh *shard[K, V]) pushFront(nd *node[K, V]) {
	nd.prev = nil
	nd.next = sh.head
	if sh.head != nil {
		sh.head.prev = nd
	}
	sh.head = nd
	if sh.tail == nil {
		sh.tail = nd
	}
}

func (sh *shard[K, V]) unlink(nd *node[K, V]) {
	if nd.prev != nil {
		nd.prev.next = nd.next
	} else {
		sh.head = nd.next
	}
	if nd.next != nil {
		nd.next.prev = nd.prev
	} else {
		sh.tail = nd.prev
	}
	nd.prev, nd.next = nil, nil
}

func (sh *shard[K, V]) moveToFront(nd *node[K, V]) {
	if sh.head == nd {
		return
	}
	sh.unlink(nd)
	sh.pushFront(nd)
}

// HashU32 is a ready-made shard hash for 32-bit integer keys
// (Fibonacci multiplicative hashing).
func HashU32(k uint32) uint64 { return uint64(k) * 0x9E3779B97F4A7C15 >> 32 }
