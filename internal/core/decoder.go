package core

import (
	"slices"
	"sync"
	"sync/atomic"

	"fsdl/internal/graph"
)

// This file holds the pooled decode scratch: every transient structure a
// Query decode needs — dedup sets, sorted forbidden lists, the scanned
// candidate lists and their dense-id remap, the bit-parallel
// protected-ball masks, the run's packed arcs, the sketch Dijkstra state,
// and the radix-sort buffers a reported sketch is derived with — owned by
// one reusable object instead of allocated per call.
// Steady-state decodes are allocation-free: each container grows to the
// largest query seen and is reset with a memclr (or simply
// re-truncated).

// --- open-addressing containers -------------------------------------------

func i32hash(k int32) uint32 { return uint32(uint64(uint32(k)) * 0x9E3779B97F4A7C15 >> 32) }

// i32map maps nonnegative int32 keys to int32 values: the dense-id remap,
// the numbering of a level's protected-ball vertices, and — the values
// unused — the vertex sets of a fault frame. Keys store key+1, zero means
// empty.
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

// add inserts k into a map used as a set, reporting whether it was absent.
func (m *i32map) add(k int32) bool {
	_, ok := m.getOrPut(k, 0)
	return !ok
}

func (m *i32map) has(k int32) bool {
	_, ok := m.lookup(k)
	return ok
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

// sketchCand is one admitted candidate as the reported sketch is derived
// from it (sketchEdges; never on an untraced decode's path): the unordered
// endpoint key (min id in the high word, max in the low word), the edge
// weight and the contributing level.
type sketchCand struct {
	key uint64
	w   int32
	lv  int32
}

// sortCandsByKey sorts sc.byKey by key with LSD counting-sort passes,
// skipping the key bytes that are constant across the whole list (for an
// n-vertex graph only ~2·⌈log256 n⌉ of the 8 bytes vary). Both buffers
// are scratch-owned, so steady-state sorts allocate nothing. The sorted
// list ends up back in sc.byKey.
func (sc *decodeScratch) sortCandsByKey() {
	a := sc.byKey
	if len(a) < 2 {
		return
	}
	if cap(sc.byKeyTmp) < len(a) {
		sc.byKeyTmp = make([]sketchCand, cap(a))
	}
	b := sc.byKeyTmp[:len(a)]
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
	sc.byKey, sc.byKeyTmp = a[:len(sc.byKey)], b[:0]
}

// --- the pooled scratch ----------------------------------------------------

// scanPass is what one scanOwners pass leaves behind: the admitted
// candidates as the solver takes them — in scan order, parallel edges and
// all — and what a later pass, or the trace, needs to know about them.
type scanPass struct {
	// cands are the candidates under dense endpoint ids, and levels cuts
	// them into stretches admitted at one level.
	cands  []graph.DenseEdge
	levels []levelRun
	// ids[id] is the vertex of a dense id and idOf the inverse — of all of
	// ids in the frame's run; in a decode that runs beside one, ids starts
	// with the run's and idOf holds the ids past them.
	ids  []int32
	idOf i32map
	// scanned[k] lists the distinct edge lists the pass walked at level
	// index k (see seenBefore), and tally is what it counted.
	scanned [][]scannedList
	tally   scanTally
}

// levelRun says that the candidates of a pass up to index end, from where
// the run before it ended, were admitted at level lv.
type levelRun struct {
	end int
	lv  int32
}

// reset empties the pass for a decode of numLevels levels.
func (p *scanPass) reset(numLevels int) {
	p.cands, p.levels, p.ids = p.cands[:0], p.levels[:0], p.ids[:0]
	p.idOf.reset()
	for len(p.scanned) < numLevels {
		p.scanned = append(p.scanned, nil)
	}
	for k := range p.scanned {
		p.scanned[k] = p.scanned[k][:0]
	}
	t := &p.tally
	t.admitted = slices.Grow(t.admitted[:0], numLevels)[:numLevels]
	t.rejected = slices.Grow(t.rejected[:0], numLevels)[:numLevels]
	clear(t.admitted)
	clear(t.rejected)
	t.skipped = 0
}

// scanTally is what scanOwners counted: candidates admitted and rejected
// per level index, and owner levels not walked because their edge list
// had been (seenBefore).
type scanTally struct {
	admitted, rejected []int
	skipped            int
}

// addTo adds the tally to a trace whose per-level slices are sized.
func (t *scanTally) addTo(tr *Trace) {
	for k := range t.admitted {
		tr.AdmittedPerLevel[k] += t.admitted[k]
		tr.RejectedPerLevel[k] += t.rejected[k]
	}
	tr.SharedLevelsSkipped += t.skipped
}

// decodeScratch owns every reusable structure of one decode. It is
// checked out of decodePool for the duration of a query (or held across
// a batch by a Decoder) and reset piecemeal as decode runs — all but the
// fault frame, which stands until a decode brings other fault labels.
type decodeScratch struct {
	// faultFrame is the frame the decode runs under: the shared one when
	// the decode's fault side matches it, else own, built in place. Only
	// own is ever written.
	*faultFrame
	own faultFrame

	// owners are the labels this decode scans itself: s and t unless the
	// frame's run holds them, and under a Budget that ends before the run
	// does the frame owners after them.
	owners []*Label
	// ompbW[(oi*numLevels+k)*W+w] is the center-bitmask of
	// mayBeInPB(owner oi of the pass, center, level lowest+k) certificates:
	// an owner edge to point i dies iff mask[i]&ompbW[row] has a set bit.
	ompbW []uint64
	// forb[i] flags the i-th point of the owner level currently being
	// scanned as a forbidden vertex (filled by merging the level's sorted
	// point list against fvList, cleared after each level).
	forb []bool
	// pid[i] is the dense id of the i-th point of the owner level whose
	// edge list is being walked, -1 until an admitted edge needs it.
	pid []int32
	// ball and rowEdges read the edges of an owner level the label leaves
	// to its level graphs (Label.levelEdges): the ball's position map and
	// the list, off the level graph's rows. ball grows to one int32 per
	// vertex of the graph on the first such level and stays that size.
	ball     ballIndex
	rowEdges []EdgeEntry
	// ballPos numbers the distinct vertices of one level's protected
	// balls as buildBallMasks meets them: sized to the balls, not to the
	// graph.
	ballPos i32map
	// mask holds the bit-parallel protected-ball membership of the
	// current owner level: mask[i*W+w] has bit b set iff point i lies in
	// PB_ℓ(center 64w+b), with W = ⌈centers/64⌉ words per point. An edge
	// dies iff some center covers both endpoints — one AND per word pair
	// replaces a per-center hash-probe loop; buildBallMasks stages in it.
	mask []uint64
	// maskL/maskR are the single-word fused admission masks of the
	// current owner level (built only when the centers plus two sentinel
	// bits fit one word): maskL[x]&maskR[y] != 0 iff the edge (x,y) must
	// be rejected — some center's ball covers both endpoints, or either
	// endpoint is a forbidden vertex (encoded by the two asymmetric
	// sentinel bits, see fillLR). Collapses the hot net-tier check to one
	// load + AND per edge.
	maskL []uint64
	maskR []uint64
	// scanPass is the decode's own pass, and beside the run it solved
	// beside (nil: none) — together the multigraph the answer was read
	// from. src and dst are the dense ids of s and t.
	scanPass
	beside   *scanPass
	src, dst int
	// byKey/byKeyTmp and edges are what sketchEdges derives the reported
	// sketch with: the candidates under their vertex keys, the radix
	// ping-pong buffer, and H.
	byKey    []sketchCand
	byKeyTmp []sketchCand
	edges    []SketchEdge
	// hpath is path-reconstruction scratch for traced/path queries.
	hpath  []int32
	solver graph.SketchSolver

	// vf and ef hold the usable fault labels demote keeps.
	vf []*Label
	ef [][2]*Label

	// ends are s and t of the decode, and endRows their mayBeInPB rows,
	// level by level as endRow fills them (endRowsDone). tight are the
	// shared points of their labels closest to both (boundMerge), and
	// certHalf those the certificate found one self edge to (certified).
	ends        [2]*Label
	endRows     []uint64
	endRowsDone [2]uint64
	tight       []tightPoint
	certHalf    []int64
}

var (
	decodePoolGets   atomic.Int64
	decodePoolNews   atomic.Int64
	framesBuilt      atomic.Int64
	framesReused     atomic.Int64
	boundStops       atomic.Int64
	targetRescans    atomic.Int64
	certifiedDecodes atomic.Int64

	decodePool = sync.Pool{New: func() any {
		decodePoolNews.Add(1)
		sc := new(decodeScratch)
		sc.faultFrame = &sc.own
		return sc
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

// dropRefs clears the label pointers a decode left behind — its own fault
// frame with them, after pointing the scratch back at it — so a pooled
// scratch never pins the previous query's labels (or a shared frame) in
// memory. Slices are cleared to capacity: some are stored truncated, with
// stale pointers still live in the backing array.
func (sc *decodeScratch) dropRefs() {
	sc.faultFrame = &sc.own
	sc.ends = [2]*Label{}
	dropAll(&sc.owners)
	dropAll(&sc.frameOwners)
	dropAll(&sc.centers)
	dropAll(&sc.vf)
	dropAll(&sc.ef)
	dropAll(&sc.vfKey)
	dropAll(&sc.efKey)
	dropAll(&sc.patchKey)
	for _, p := range []*scanPass{&sc.scanPass, &sc.run} {
		for k := range p.scanned {
			dropAll(&p.scanned[k])
		}
	}
	sc.keyed, sc.runBuilt, sc.beside = false, false, nil
}

// dropAll empties *s and zeroes its backing array.
func dropAll[T any](s *[]T) {
	clear((*s)[:cap(*s)])
	*s = (*s)[:0]
}

// DecoderPoolStats reports the global decode-scratch counters. Gets
// counts scratch checkouts, News counts checkouts that had to allocate a
// fresh scratch; Gets − News is the number of reuses. FramesBuilt counts
// the decodes that scanned a fault set's owners into a frame's run — the
// first under a fault set, a lone query's included — and FramesReused
// those that took them from the run an earlier decode on the same Decoder
// had built: reused/built is the number of further pairs answered per
// fault frame. BoundStops counts the decodes whose answer is the lower
// bound their endpoint labels give (decode), found without settling t,
// and TargetRescans those whose first solve, without t's own level lists,
// missed it and scanned them. Certified counts the decodes the endpoint
// labels answered alone — an s–t walk of H as short as their lower bound
// — before any edge was scanned: no frame run built or reused, no bound
// stop. Exposed so serving layers can report them on their metrics
// endpoints.
type DecoderPoolStats struct {
	Gets, News                int64
	FramesBuilt, FramesReused int64
	BoundStops, TargetRescans int64
	Certified                 int64
}

// DecoderPool returns the current counters.
func DecoderPool() DecoderPoolStats {
	return DecoderPoolStats{
		Gets: decodePoolGets.Load(), News: decodePoolNews.Load(),
		FramesBuilt: framesBuilt.Load(), FramesReused: framesReused.Load(),
		BoundStops: boundStops.Load(), TargetRescans: targetRescans.Load(),
		Certified: certifiedDecodes.Load(),
	}
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

// Decode answers q: demote sets its unusable fault labels aside, the
// sketch graph H is assembled from the rest — and from o.Patches —
// keeping only safe edges, and the Result is the s-t distance in H with
// how far to trust it. o says what else to report. Every decode name of
// Decoder and Query is this call.
func (d *Decoder) Decode(q *Query, o Opts) Result {
	sc := d.scratch()
	rq, res, ok := sc.demote(q)
	if !ok {
		if o.Trace != nil {
			*o.Trace = Trace{}
		}
		return res
	}
	dist, exhausted, err := sc.decode(&rq, o)
	res.BudgetExhausted = exhausted
	res.Degraded = exhausted || len(rq.DegradedVertexFaults) > 0 || len(rq.DegradedEdgeFaults) > 0
	if err != nil || dist < 0 {
		return res
	}
	res.Dist, res.OK = dist, true
	if o.Path != nil {
		*o.Path = sc.appendHPath(&rq, *o.Path)
	}
	return res
}

// The names below are Decode with their arguments as Opts; the benchmark
// harness (bench/) calls them.

// DistanceWithTrace is Query.DistanceWithTrace on this decoder's scratch.
func (d *Decoder) DistanceWithTrace(q *Query, tr *Trace) (int64, bool) {
	if q.Validate() != nil {
		return 0, false
	}
	res := d.Decode(q, Opts{Trace: tr})
	return res.Dist, res.OK
}

// DistanceRobust is Query.DistanceRobust on this decoder's scratch.
func (d *Decoder) DistanceRobust(q *Query) Result { return d.Decode(q, Opts{}) }

// DistanceRobustPath is DistanceRobust, additionally appending the walk
// (Opts.Path) to buf when the query connects.
func (d *Decoder) DistanceRobustPath(q *Query, buf []int32) (Result, []int32) {
	res := d.Decode(q, Opts{Path: &buf})
	return res, buf
}

// DistanceRobustPatched is DistanceRobust over the sketch extended by the
// given patch edges (Opts.Patches).
func (d *Decoder) DistanceRobustPatched(q *Query, patches []PatchEdge) Result {
	return d.Decode(q, Opts{Patches: patches})
}

// DistanceRobustPatchedPath is DistanceRobustPatched, additionally
// appending the walk to buf when the query connects.
func (d *Decoder) DistanceRobustPatchedPath(q *Query, patches []PatchEdge, buf []int32) (Result, []int32) {
	res := d.Decode(q, Opts{Patches: patches, Path: &buf})
	return res, buf
}
