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

// faultFrame is the half of a decode that is a function of the fault set
// alone: of the fault labels, the degraded ids, the patch labels, the
// ablation flag and the scheme parameters — and of nothing of s or t.
// Admission of a stored edge reads (ℓ, x, y, F), never the owner
// (scanOwners), and H is a set, so what the fault and patch owners
// contribute to the sketch is the same for every pair asked under one F,
// and a Decoder that is handed the same fault labels pair after pair — a
// batch — scans it once. The frame is rebuilt whenever a decode's labels
// differ from the key's pointer for pointer (labels are immutable once
// validated, so equal pointers mean an equal frame), never patched, and
// dropped with the labels it points to when the scratch goes back to the
// pool.
type faultFrame struct {
	// The key: what the frame was built from.
	keyed     bool
	ablate    bool
	keyParams [3]int // C, MaxLevel, RShrink of the endpoint labels
	vfKey     []*Label
	efKey     [][2]*Label
	dvKey     []int32
	deKey     [][2]int32
	patchKey  []PatchEdge
	// lowest is the lowest level, c+1, and numLevels how many levels a
	// label of the key's parameters has.
	lowest, numLevels int

	// frameOwners are the fault owners, then the patch owners, each
	// vertex once (seenOwner holds their ids); centers the protected-ball
	// centers.
	frameOwners []*Label
	centers     []*Label
	seenOwner   i32set
	seenCenter  i32set
	// fvList / feList are the sorted forbidden vertex ids and forbidden
	// edge keys (labeled and degraded faults together). The admission
	// scan joins them against the sorted label point/edge lists with
	// monotone merge cursors instead of per-candidate hash probes.
	fvList []int32
	feList []uint64
	// rule is the admission rule F selects and maskWords the words per
	// center bitmask, W = ⌈centers/64⌉.
	rule      admission
	maskWords int
	// nearest[fi*numLevels+k] is center fi's nearest net point of level
	// index k (nearestNetPoint), the pivot of mayBeInPB's certificate.
	nearest []PointEntry
	// cmbX/cmbM/cmbOff hold the per-level combined protected-ball lists:
	// for level index k, cmbX[cmbOff[k]:cmbOff[k+1]] is the sorted set of
	// vertices inside any center's PB, with cmbM[j*W:…] the W-word center
	// bitmask of vertex cmbX[j]. Built once per frame from the sorted
	// pair list (pairs/pairsTmp are the radix buffers), so filling an
	// owner level's masks is a single sorted merge against the combined
	// list instead of one merge per center.
	cmbX     []int32
	cmbM     []uint64
	cmbOff   []int32
	pairs    []uint64
	pairsTmp []uint64
	// patchKeys are the admitted patch edges' endpoint keys: unit edges of
	// the lowest level, free of budget.
	patchKeys []uint64
	// frameCost is what scanning the frame owners charges a Budget
	// (-1 until a budgeted decode asks).
	frameCost int

	// The run: the patch edges and the frame owners' admitted candidates,
	// scanned once under a dense numbering of their own, and runArcs the
	// same packed, which every decode under this key hands to the solver
	// beside its pair's. Built (runBuilt) by the first decode whose Budget
	// covers it, see decode.
	runBuilt bool
	run      scanPass
	runArcs  graph.Arcs
}

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
	own    faultFrame
	shared *Frame

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
	// mask holds the bit-parallel protected-ball membership of the
	// current owner level: mask[i*W+w] has bit b set iff point i lies in
	// PB_ℓ(center 64w+b), with W = ⌈centers/64⌉ words per point. An edge
	// dies iff some center covers both endpoints — one AND per word pair
	// replaces a per-center hash-probe loop.
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

	// robust-path scratch (slow path of DistanceRobust).
	vf []*Label
	ef [][2]*Label
}

var (
	decodePoolGets atomic.Int64
	decodePoolNews atomic.Int64
	framesBuilt    atomic.Int64
	framesReused   atomic.Int64
	boundStops     atomic.Int64
	targetRescans  atomic.Int64

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
// frame with them, after pointing the scratch back at it, and the shared
// one — so a pooled scratch never pins the previous query's labels in
// memory. Slices are cleared to capacity: some are stored truncated, with
// stale pointers still live in the backing array.
func (sc *decodeScratch) dropRefs() {
	sc.faultFrame, sc.shared = &sc.own, nil
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
// missed it and scanned them. Exposed so serving layers can report them
// on their metrics endpoints.
type DecoderPoolStats struct {
	Gets, News                int64
	FramesBuilt, FramesReused int64
	BoundStops, TargetRescans int64
}

// DecoderPool returns the current counters.
func DecoderPool() DecoderPoolStats {
	return DecoderPoolStats{
		Gets: decodePoolGets.Load(), News: decodePoolNews.Load(),
		FramesBuilt: framesBuilt.Load(), FramesReused: framesReused.Load(),
		BoundStops: boundStops.Load(), TargetRescans: targetRescans.Load(),
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

// UseFrame has the decodes that follow, until Release, run beside f
// wherever their fault side matches it (Frame.Matches); any other
// decode builds a frame of its own as it would without f. A nil f
// stops the sharing.
func (d *Decoder) UseFrame(f *Frame) { d.scratch().shared = f }

// Frame is the fault frame of one fault side, built once and frozen: its
// run scanned, packed and collapsed, its budget cost counted. Nothing
// writes to it after NewFrame, so any number of Decoders on any
// goroutines may decode beside it (UseFrame). A frame is a function of
// its fault labels alone — admission reads nothing of s or t — so every
// pair asked under them gets the answer a fresh decode gives.
type Frame struct {
	fr faultFrame
}

// NewFrame builds the frame of q's fault side — its fault labels,
// degraded ids and ablation flag, the scheme parameters of q.S — and
// these patches. It returns nil when a decode of q would not run beside
// it: q fails Validate or one of its fault labels is unusable (a robust
// decode demotes that one, so its fault side is another).
func NewFrame(q *Query, patches []PatchEdge) *Frame {
	ok := q.Validate() == nil
	for _, l := range q.VertexFaults {
		ok = ok && usableWith(l, q.S)
	}
	for _, ef := range q.EdgeFaults {
		ok = ok && usableWith(ef[0], q.S) && usableWith(ef[1], q.S)
	}
	if !ok {
		return nil
	}
	f := new(Frame)
	sc := &decodeScratch{faultFrame: &f.fr}
	sc.buildFrame(q, patches)
	sc.buildFrameRun()
	sc.runArcs.Collapse()
	sc.frameScanCost()
	f.fr.pairs, f.fr.pairsTmp = nil, nil
	return f
}

// Matches reports whether a decode of q with these patches runs beside f:
// the same fault labels pointer for pointer in the same order, the same
// degraded ids, ablation flag and scheme parameters, the same patches.
func (f *Frame) Matches(q *Query, patches []PatchEdge) bool {
	return f.fr.matches(q, patches)
}

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
	dist, _, err := d.scratch().decode(q, nil, tr, true)
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
	dist, _, err := sc.decode(q, nil, nil, false)
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
