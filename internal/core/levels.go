package core

import (
	"math/bits"
	"slices"
	"sync"
)

// LevelTable interns level edge lists. H_ℓ(v) is the one global level-ℓ
// net graph induced on B(v, r_ℓ), so wherever two balls hold the same net
// points their labels carry the same (XI, YI, D) list — on a graph no
// wider than the lowest radii, every label at every level. The table
// keeps one copy of each such list and points every label that passes
// through it at that copy (Parse for a label being read from bytes,
// Intern for one already built): the labels stay self-contained values (Encode,
// Validate and the canonical record are unchanged), they just stop
// owning n copies of one array, and the decoder recognises a list it has
// already scanned by its address (scanOwners).
//
// A serving table is bounded by the label cache it feeds and holds
// nothing that cache could not: a list becomes canonical on its second
// sighting only (the first leaves a fingerprint), at most
// cache capacity × levels lists are held — past that nothing is admitted
// and nothing evicted; a label that was not interned is merely scanned
// the old way — and Reset empties it wherever the cache is emptied. A
// census table (NewLevelCensus) admits everything at first sight and is
// read back with Lists; it measures a store, it does not serve one.
//
// Safe for concurrent use. A label goes through the table before any
// other goroutine can see it; canonical lists are immutable.
type LevelTable struct {
	labels int // capacity of the served cache, in labels; 0 for a census

	mu sync.Mutex
	// lists maps a content hash to the canonical lists carrying it,
	// chained through next: a substitution is made only after a full
	// compare, so a hash collision can never alias two lists.
	lists map[uint64]*levelList
	n     int
	// sighted holds the hash of the last list seen once per slot.
	sighted  [1 << sightedBits]uint64
	interned int64
}

const sightedBits = 12

type levelList struct {
	k     int
	xs    []int32 // Points[].X of the level the list was first seen in
	edges []EdgeEntry
	next  *levelList
}

// NewLevelTable returns the table serving a decoded-label cache of the
// given capacity (in labels).
func NewLevelTable(cacheLabels int) *LevelTable {
	return &LevelTable{labels: max(cacheLabels, 1), lists: make(map[uint64]*levelList)}
}

// NewLevelCensus returns an unbounded table that admits every list the
// first time it sees it — the measuring instrument behind
// `fsdl stats -levels`.
func NewLevelCensus() *LevelTable {
	return &LevelTable{lists: make(map[uint64]*levelList)}
}

// Intern replaces every level edge list of l the table already holds —
// same level index, same Points[].X, equal Edges — by the canonical
// copy, and considers the others for admission. l must have passed
// Validate and not yet be shared.
func (t *LevelTable) Intern(l *Label) { t.internLevels(l, false) }

// DecodeLabel is core.DecodeLabel interning what it returns, without the
// label ever owning a private copy of a list the table holds: the decoder
// takes the slice for each level's edges out of one staging buffer reused
// from decode to decode, and the label ends up with the canonical list
// where there is one and an exact copy where there is not. A record that
// fails to decode never reaches the table.
func (t *LevelTable) DecodeLabel(buf []byte, nbits int) (*Label, error) {
	stage := stagePool.Get().(*[]EdgeEntry)
	defer func() {
		*stage = (*stage)[:0]
		stagePool.Put(stage)
	}()
	l, err := decodeLabel(buf, nbits, func(n int) []EdgeEntry {
		if n == 0 {
			return []EdgeEntry{} // never a zero-length window pinning the stage
		}
		off := len(*stage)
		*stage = slices.Grow(*stage, n)[:off+n]
		return (*stage)[off : off+n : off+n]
	})
	if err != nil {
		return nil, err
	}
	t.internLevels(l, true)
	return l, nil
}

var stagePool = sync.Pool{New: func() any { return new([]EdgeEntry) }}

// internLevels is Intern; staged says l's edge lists are windows of a
// staging buffer, to be copied out where they are not replaced.
func (t *LevelTable) internLevels(l *Label, staged bool) {
	for k := range l.Levels {
		lv := &l.Levels[k]
		if len(lv.Edges) == 0 {
			continue
		}
		h := hashLevel(k, lv.Points, lv.Edges)
		lv.Edges = t.intern(h, k, len(l.Levels), lv.Points, lv.Edges, staged)
	}
}

func (t *LevelTable) intern(h uint64, k, numLevels int, pts []PointEntry, edges []EdgeEntry, staged bool) []EdgeEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	for c := t.lists[h]; c != nil; c = c.next {
		if c.k == k && len(c.xs) == len(pts) && slices.Equal(c.edges, edges) && sameXs(c.xs, pts) {
			t.interned++
			return c.edges
		}
	}
	if staged {
		edges = exactCopy(edges)
	}
	if t.labels > 0 {
		if slot := &t.sighted[h>>(64-sightedBits)]; *slot != h {
			*slot = h
			return edges
		}
		if t.n >= t.labels*numLevels {
			return edges
		}
	}
	xs := make([]int32, len(pts))
	for i, p := range pts {
		xs[i] = p.X
	}
	t.lists[h] = &levelList{k: k, xs: xs, edges: edges, next: t.lists[h]}
	t.n++
	return edges
}

func sameXs(xs []int32, pts []PointEntry) bool {
	for i, x := range xs {
		if pts[i].X != x {
			return false
		}
	}
	return true
}

// hashLevel hashes (level index, Points[].X, Edges). The edges — all but
// a few hundred of the words — go through four independent
// rotate-xor-multiply lanes, so the multiplier latency of one edge hides
// behind the next three; a parse pays for this on every label it does
// not find cached.
func hashLevel(k int, pts []PointEntry, edges []EdgeEntry) uint64 {
	const m1, m2 = 0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F
	mix := func(h uint64, e EdgeEntry) uint64 {
		w := uint64(uint32(e.XI))<<32 | uint64(uint32(e.YI))
		return (bits.RotateLeft64(h, 5) ^ w ^ uint64(uint32(e.D))*m2) * m1
	}
	h := (uint64(k) + 1) * m1
	for _, p := range pts {
		h = (bits.RotateLeft64(h, 5) ^ uint64(uint32(p.X))) * m1
	}
	h0, h1, h2, h3 := h^uint64(len(pts)), h^m2, h+m1, h+m2
	for ; len(edges) >= 4; edges = edges[4:] {
		h0, h1, h2, h3 = mix(h0, edges[0]), mix(h1, edges[1]), mix(h2, edges[2]), mix(h3, edges[3])
	}
	for _, e := range edges {
		h0 = mix(h0, e)
	}
	return (bits.RotateLeft64(h0, 7)^h1)*m1 ^ (bits.RotateLeft64(h2, 29)^h3)*m2
}

// Reset forgets every list and every sighting. Labels already interned
// keep the lists they point at; the counter behind Stats keeps counting.
func (t *LevelTable) Reset() {
	t.mu.Lock()
	clear(t.lists)
	t.n = 0
	t.sighted = [1 << sightedBits]uint64{}
	t.mu.Unlock()
}

// Stats reports how many level lists Intern has replaced by a canonical
// copy since the table was made, and how many canonical lists it holds.
func (t *LevelTable) Stats() (interned int64, lists int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.interned, t.n
}

// Lists calls fn for every canonical list held, in no particular order:
// its level index, the vertex ids its edge indices refer to, and the
// edges. The slices are the table's own and must not be modified.
func (t *LevelTable) Lists(fn func(k int, xs []int32, edges []EdgeEntry)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.lists {
		for ; c != nil; c = c.next {
			fn(c.k, c.xs, c.edges)
		}
	}
}
