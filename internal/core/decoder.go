package core

import (
	"sync"
	"sync/atomic"

	"fsdl/internal/graph"
)

// This file holds the pooled decode scratch: every transient structure a
// Query decode needs — dedup sets, sorted forbidden lists, the flat
// candidate accumulator and its radix-sort buffers, the bit-parallel
// protected-ball masks, the dense-id remap and the sketch Dijkstra
// state — owned by one reusable object instead of allocated per call.
// Steady-state decodes are allocation-free: each container grows to the
// largest query seen and is reset with a memclr (or simply
// re-truncated).

// --- open-addressing containers -------------------------------------------

// i32set is an insert-only set of nonnegative int32 keys (vertex ids).
// Slots store key+1 so the zero slot means empty.
type i32set struct {
	slots []int32
	n     int
}

func i32hash(k int32) uint32 { return uint32(uint64(uint32(k)) * 0x9E3779B97F4A7C15 >> 32) }

func (s *i32set) reset() {
	if s.n > 0 {
		clear(s.slots)
		s.n = 0
	}
}

// add inserts k, reporting whether it was absent.
func (s *i32set) add(k int32) bool {
	if 4*(s.n+1) > 3*len(s.slots) {
		s.grow()
	}
	mask := uint32(len(s.slots) - 1)
	i := i32hash(k) & mask
	for {
		v := s.slots[i]
		if v == 0 {
			s.slots[i] = k + 1
			s.n++
			return true
		}
		if v == k+1 {
			return false
		}
		i = (i + 1) & mask
	}
}

func (s *i32set) has(k int32) bool {
	if s.n == 0 {
		return false
	}
	mask := uint32(len(s.slots) - 1)
	i := i32hash(k) & mask
	for {
		v := s.slots[i]
		if v == 0 {
			return false
		}
		if v == k+1 {
			return true
		}
		i = (i + 1) & mask
	}
}

func (s *i32set) grow() {
	old := s.slots
	s.slots = make([]int32, max(16, 2*len(old)))
	s.n = 0
	for _, v := range old {
		if v != 0 {
			s.add(v - 1)
		}
	}
}

// i32map maps nonnegative int32 keys to int32 values (the dense-id
// remap). Keys store key+1, zero means empty.
type i32map struct {
	keys []int32
	vals []int32
	n    int
}

func (m *i32map) reset() {
	if m.n > 0 {
		clear(m.keys)
		m.n = 0
	}
}

// getOrPut returns the value of k, inserting v when absent.
func (m *i32map) getOrPut(k, v int32) (int32, bool) {
	if 4*(m.n+1) > 3*len(m.keys) {
		m.grow()
	}
	mask := uint32(len(m.keys) - 1)
	i := i32hash(k) & mask
	for {
		kk := m.keys[i]
		if kk == 0 {
			m.keys[i] = k + 1
			m.vals[i] = v
			m.n++
			return v, false
		}
		if kk == k+1 {
			return m.vals[i], true
		}
		i = (i + 1) & mask
	}
}

// lookup returns the value of k and whether it is present.
func (m *i32map) lookup(k int32) (int32, bool) {
	if m.n == 0 {
		return 0, false
	}
	mask := uint32(len(m.keys) - 1)
	i := i32hash(k) & mask
	for {
		kk := m.keys[i]
		if kk == 0 {
			return 0, false
		}
		if kk == k+1 {
			return m.vals[i], true
		}
		i = (i + 1) & mask
	}
}

// get returns the value of k; k must be present.
func (m *i32map) get(k int32) int32 {
	mask := uint32(len(m.keys) - 1)
	i := i32hash(k) & mask
	for {
		if m.keys[i] == k+1 {
			return m.vals[i]
		}
		i = (i + 1) & mask
	}
}

func (m *i32map) grow() {
	oldK, oldV := m.keys, m.vals
	size := max(16, 2*len(oldK))
	m.keys = make([]int32, size)
	m.vals = make([]int32, size)
	m.n = 0
	for i, kk := range oldK {
		if kk != 0 {
			m.getOrPut(kk-1, oldV[i])
		}
	}
}

// --- flat sketch-edge candidates ------------------------------------------

// sketchCand is one admitted sketch-edge candidate: the unordered
// endpoint key (min id in the high word, max in the low word), the edge
// weight and the contributing level. Candidates are appended flat during
// the admission scan and deduplicated afterwards by a stable radix sort
// on the key — stability is what preserves the historical
// first-insertion-wins tie-break among equal-weight parallel edges.
type sketchCand struct {
	key uint64
	w   int32
	lv  int32
}

// sortCandsByKey stably sorts sc.cand by key with LSD counting-sort
// passes, skipping the key bytes that are constant across the whole
// list (for an n-vertex graph only ~2·⌈log256 n⌉ of the 8 bytes vary).
// Both buffers are scratch-owned, so steady-state sorts allocate
// nothing. The sorted list ends up back in sc.cand.
func (sc *decodeScratch) sortCandsByKey() {
	a := sc.cand
	if len(a) < 2 {
		return
	}
	if cap(sc.candTmp) < len(a) {
		sc.candTmp = make([]sketchCand, cap(a))
	}
	b := sc.candTmp[:len(a)]
	var diff uint64
	k0 := a[0].key
	for i := range a {
		diff |= a[i].key ^ k0
	}
	var cnt [256]int32
	for shift := 0; shift < 64; shift += 8 {
		if (diff>>shift)&0xff == 0 {
			continue
		}
		clear(cnt[:])
		for i := range a {
			cnt[(a[i].key>>shift)&0xff]++
		}
		var sum int32
		for d := range cnt {
			c := cnt[d]
			cnt[d] = sum
			sum += c
		}
		for i := range a {
			d := (a[i].key >> shift) & 0xff
			b[cnt[d]] = a[i]
			cnt[d]++
		}
		a, b = b, a
	}
	sc.cand, sc.candTmp = a[:len(sc.cand)], b[:0]
}

// sortPairs stably sorts sc.pairs — packed (x<<32 | centerIdx)
// ball-membership pairs — with the same constant-byte-skipping LSD radix
// passes as sortCandsByKey. Only the x half ever varies meaningfully,
// so at most four byte passes run.
func (sc *decodeScratch) sortPairs() {
	a := sc.pairs
	if len(a) < 2 {
		return
	}
	if cap(sc.pairsTmp) < len(a) {
		sc.pairsTmp = make([]uint64, cap(a))
	}
	b := sc.pairsTmp[:len(a)]
	var diff uint64
	k0 := a[0]
	for _, k := range a {
		diff |= k ^ k0
	}
	var cnt [256]int32
	for shift := 0; shift < 64; shift += 8 {
		if (diff>>shift)&0xff == 0 {
			continue
		}
		clear(cnt[:])
		for _, k := range a {
			cnt[(k>>shift)&0xff]++
		}
		var sum int32
		for d := range cnt {
			c := cnt[d]
			cnt[d] = sum
			sum += c
		}
		for _, k := range a {
			d := (k >> shift) & 0xff
			b[cnt[d]] = k
			cnt[d]++
		}
		a, b = b, a
	}
	sc.pairs, sc.pairsTmp = a[:len(sc.pairs)], b[:0]
}

// --- the pooled scratch ----------------------------------------------------

// decodeScratch owns every reusable structure of one decode. It is
// checked out of decodePool for the duration of a query (or held across
// a batch by a Decoder) and reset piecemeal as decode runs.
type decodeScratch struct {
	owners     []*Label
	centers    []*Label
	seenOwner  i32set
	seenCenter i32set
	// fvList / feList are the sorted forbidden vertex ids and forbidden
	// edge keys (labeled and degraded faults together). The admission
	// scan joins them against the sorted label point/edge lists with
	// monotone merge cursors instead of per-candidate hash probes.
	fvList []int32
	feList []uint64
	// forb[i] flags the i-th point of the owner level currently being
	// scanned as a forbidden vertex (filled by merging the level's sorted
	// point list against fvList, cleared after each level).
	forb []bool
	// mask holds the bit-parallel protected-ball membership of the
	// current owner level: mask[i*W+w] has bit b set iff point i lies in
	// PB_ℓ(center 64w+b), with W = ⌈centers/64⌉ words per point. An edge
	// dies iff some center covers both endpoints — one AND per word pair
	// replaces a per-center hash-probe loop.
	mask []uint64
	// ompbW[(oi*numLevels+k)*W+w] is the matching center-bitmask of
	// mayBeInPB(owner oi, center, level lowest+k) certificates: an owner
	// edge to point i dies iff mask[i]&ompbW[row] has a set bit.
	ompbW []uint64
	// maskL/maskR are the single-word fused admission masks of the
	// current owner level (built only when the centers plus two sentinel
	// bits fit one word): maskL[x]&maskR[y] != 0 iff the edge (x,y) must
	// be rejected — some center's ball covers both endpoints, or either
	// endpoint is a forbidden vertex (encoded by the two asymmetric
	// sentinel bits, see fillLR). Collapses the hot net-tier check to one
	// load + AND per edge.
	maskL []uint64
	maskR []uint64
	// nearest[fi*numLevels+k] is center fi's nearest net point of level
	// index k (nearestNetPoint), the pivot of mayBeInPB's certificate.
	nearest []PointEntry
	// scanned[k] lists the distinct edge lists walked so far at level
	// index k in this decode (see seenBefore).
	scanned [][]scannedList
	// cmbX/cmbM/cmbOff hold the per-level combined protected-ball lists:
	// for level index k, cmbX[cmbOff[k]:cmbOff[k+1]] is the sorted set of
	// vertices inside any center's PB, with cmbM[j*W:…] the W-word center
	// bitmask of vertex cmbX[j]. Built once per decode from the sorted
	// pair list (pairs/pairsTmp are the radix buffers), so filling an
	// owner level's masks is a single sorted merge against the combined
	// list instead of one merge per center.
	cmbX     []int32
	cmbM     []uint64
	cmbOff   []int32
	pairs    []uint64
	pairsTmp []uint64
	// cand/candTmp are the flat candidate accumulator and its radix
	// ping-pong buffer.
	cand    []sketchCand
	candTmp []sketchCand
	// idOf/ids densely remap the touched global vertex ids.
	idOf i32map
	ids  []int32
	// edges is the deduplicated sketch edge list in deterministic
	// (ascending unordered-key) order.
	edges []SketchEdge
	// hpath is path-reconstruction scratch for traced/path queries.
	hpath  []int32
	solver graph.SketchSolver

	// robust-path scratch (slow path of DistanceRobust).
	vf []*Label
	ef [][2]*Label
}

var (
	decodePoolGets atomic.Int64
	decodePoolNews atomic.Int64

	decodePool = sync.Pool{New: func() any {
		decodePoolNews.Add(1)
		return new(decodeScratch)
	}}
)

func getScratch() *decodeScratch {
	decodePoolGets.Add(1)
	return decodePool.Get().(*decodeScratch)
}

func putScratch(sc *decodeScratch) {
	sc.dropRefs()
	decodePool.Put(sc)
}

// dropRefs clears the label pointers a decode left behind so a pooled
// scratch never pins the previous query's labels in memory. Slices are
// cleared to capacity: some are stored truncated, with stale pointers
// still live in the backing array.
func (sc *decodeScratch) dropRefs() {
	clear(sc.owners[:cap(sc.owners)])
	sc.owners = sc.owners[:0]
	clear(sc.centers[:cap(sc.centers)])
	sc.centers = sc.centers[:0]
	clear(sc.vf[:cap(sc.vf)])
	sc.vf = sc.vf[:0]
	clear(sc.ef[:cap(sc.ef)])
	sc.ef = sc.ef[:0]
	for k := range sc.scanned {
		clear(sc.scanned[k][:cap(sc.scanned[k])])
		sc.scanned[k] = sc.scanned[k][:0]
	}
}

// DecoderPoolStats reports the global decode-scratch pool counters. Gets
// counts scratch checkouts, News counts checkouts that had to allocate a
// fresh scratch; Gets − News is the number of reuses. Exposed so serving
// layers can report pool effectiveness on their metrics endpoints.
type DecoderPoolStats struct {
	Gets, News int64
}

// DecoderPool returns the current pool counters.
func DecoderPool() DecoderPoolStats {
	return DecoderPoolStats{Gets: decodePoolGets.Load(), News: decodePoolNews.Load()}
}

// Decoder is a reusable query decoder. It checks one scratch out of the
// pool and holds it for its lifetime, so a batch of queries decoded
// through the same Decoder shares a single warmed-up scratch with no
// per-query pool traffic. The zero Decoder is ready to use (it checks
// out lazily). A Decoder is not safe for concurrent use; call Release
// to return the scratch to the pool when the batch is done.
type Decoder struct {
	sc *decodeScratch
}

// NewDecoder checks a scratch out of the pool.
func NewDecoder() *Decoder { return &Decoder{sc: getScratch()} }

// Release returns the scratch to the pool. The Decoder remains usable —
// the next call checks a scratch out again.
func (d *Decoder) Release() {
	if d.sc != nil {
		putScratch(d.sc)
		d.sc = nil
	}
}

func (d *Decoder) scratch() *decodeScratch {
	if d.sc == nil {
		d.sc = getScratch()
	}
	return d.sc
}

// Distance is Query.Distance on this decoder's scratch.
func (d *Decoder) Distance(q *Query) (int64, bool) { return d.DistanceWithTrace(q, nil) }

// DistanceWithTrace is Query.DistanceWithTrace on this decoder's scratch.
func (d *Decoder) DistanceWithTrace(q *Query, tr *Trace) (int64, bool) {
	dist, _, err := d.scratch().decode(q, nil, tr)
	if err != nil || dist < 0 {
		return 0, false
	}
	return dist, true
}

// DecodePath is Distance, additionally reporting the witness path: the
// winning s..t chain of the sketch graph H as global vertex ids
// (net points, plus original-graph vertices at the lowest level). The
// path is appended to buf — callers that reuse a buffer across queries
// decode paths allocation-free. The walk's edge weights sum exactly to
// the returned distance; each hop is realizable in G\F at its weight,
// so the chain is a (1+ε)-approximate corridor, not necessarily an
// exact shortest path of G\F.
func (d *Decoder) DecodePath(q *Query, buf []int32) (int64, []int32, bool) {
	sc := d.scratch()
	dist, _, err := sc.decode(q, nil, nil)
	if err != nil || dist < 0 {
		return 0, buf, false
	}
	return dist, sc.appendHPath(q, buf), true
}

// DistanceRobust is Query.DistanceRobust on this decoder's scratch.
func (d *Decoder) DistanceRobust(q *Query) Result {
	res, _ := d.scratch().distanceRobust(q, nil, nil, false)
	return res
}

// DistanceRobustPath is DistanceRobust, additionally reporting the
// witness path (appended to buf) when the query connects. Degraded
// decodes report the degraded sketch's walk — still a real walk of the
// surviving graph whose length equals Result.Dist.
func (d *Decoder) DistanceRobustPath(q *Query, buf []int32) (Result, []int32) {
	return d.scratch().distanceRobust(q, nil, buf, true)
}
