package server

import (
	"slices"
	"sync"

	"fsdl/internal/core"
	"fsdl/internal/lru"
)

// cacheKey identifies one answered query: the endpoint pair, a hash of
// the canonical (sorted) effective fault set and work budget, and
// whether the answer carries a witness path — path and distance-only
// answers for the same (s,t,F) are distinct entries, never substituted
// for one another. Keys never outlive a fail/recover — the server
// flushes the cache on every overlay change — so hash collisions within
// one overlay generation are the only way to serve a wrong entry, and a
// 64-bit FNV over the sorted fault set makes that astronomically
// unlikely.
type cacheKey struct {
	s, t  int32
	fhash uint64
	path  bool
}

// newResultCache builds the sharded LRU over query answers, with the
// given total capacity spread over nshards shards. capacity <= 0
// disables caching (every Get misses, every Put is dropped). The shard
// hash mixes the pair ids into the fault hash so grids of sequential
// queries spread across shards.
func newResultCache(capacity, nshards int) *lru.Cache[cacheKey, Answer] {
	return lru.New[cacheKey, Answer](capacity, nshards, func(k cacheKey) uint64 {
		h := k.fhash ^ (uint64(uint32(k.s)) * 0x9e3779b97f4a7c15) ^ (uint64(uint32(k.t)) * 0xc2b2ae3d27d4eb4f)
		if k.path {
			h ^= 0xa24baed4963ee407
		}
		return h
	})
}

// The shared fault frames kept beside the result cache: how many, and how
// many of the fault-set keys asked last a second sighting is looked for
// among. Constants, not options: the frame cache does not follow
// CacheCapacity, so a server with its result cache off still shares.
const (
	maxSharedFrames = 16
	frameSightings  = 16
)

// frameCache holds the shared fault frames (core.Frame) of recurring fault
// sets, keyed by faultHash — which folds in a live delta's pending
// deletions — the most recently used first. A fault set earns one when
// its key is already among the last frameSightings keys that found none —
// second-touch admission, as the decoded-label LRU's — so fault sets drawn
// at random (almost) never build one. A frame that does not match the
// batch's fault and patch labels pointer for pointer (core.Frame.Matches:
// another generation's, re-fetched, or other pending inserts) is dropped,
// never used.
type frameCache struct {
	mu       sync.Mutex
	frames   []keyedFrame
	sighted  [frameSightings]uint64
	nSighted int // keys recorded; sighted is a ring of the last frameSightings
}

type keyedFrame struct {
	key uint64
	f   *core.Frame
}

// get returns the shared frame of q's fault side and these patches,
// building it when key is sighted a second time, and whether this call
// built it; nil when there is none (yet). A build holds the lock: it is
// rare by construction.
func (c *frameCache) get(key uint64, q *core.Query, patches []core.PatchEdge) (f *core.Frame, built bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i := slices.IndexFunc(c.frames, func(kf keyedFrame) bool { return kf.key == key }); i >= 0 {
		kf := c.frames[i]
		c.frames = slices.Delete(c.frames, i, i+1)
		if kf.f.Matches(q, patches) {
			c.frames = slices.Insert(c.frames, 0, kf)
			return kf.f, false
		}
	}
	if !slices.Contains(c.sighted[:min(c.nSighted, frameSightings)], key) {
		c.sighted[c.nSighted%frameSightings] = key
		c.nSighted++
		return nil, false
	}
	if f = core.NewFrame(q, patches); f == nil {
		return nil, false
	}
	c.frames = slices.Insert(c.frames, 0, keyedFrame{key, f})
	if len(c.frames) > maxSharedFrames {
		c.frames[maxSharedFrames] = keyedFrame{}
		c.frames = c.frames[:maxSharedFrames]
	}
	return f, true
}

// flush drops every frame, with the labels they pin.
func (c *frameCache) flush() {
	c.mu.Lock()
	clear(c.frames)
	c.frames = c.frames[:0]
	c.mu.Unlock()
}
