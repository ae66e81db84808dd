package core

import (
	"math"
	"slices"
	"sync"

	"fsdl/internal/graph"
)

// This file holds the fault frame: what a decode derives from the fault
// side alone, built by a Decoder or once and frozen as a shared Frame.

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
	seenOwner   i32map
	seenCenter  i32map
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
	// bitmask of vertex cmbX[j] (buildBallMasks).
	cmbX   []int32
	cmbM   []uint64
	cmbOff []int32
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
	// covers it, see decode; composed when composeRun built it (its tallies
	// are short of a scan's: a traced or budgeted decode rebuilds it).
	runBuilt bool
	composed bool
	run      scanPass
	runArcs  graph.Arcs

	// index is a shared frame's run as composeRun reads it (indexOf).
	indexOnce sync.Once
	index     []sketchCand
}

// Frame is the fault frame of one fault side, built once and frozen: its
// run scanned, packed and collapsed, its budget cost counted. Nothing
// writes to it after NewFrame, so any number of Decoders on any
// goroutines may decode beside it (Opts.Frame). A frame is a function of
// its fault labels alone — admission reads nothing of s or t — so every
// pair asked under them gets the answer a fresh decode gives.
// A decode whose fault side holds the frame's composes its run from it.
type Frame struct {
	// fr is a pointer so that a decode running under it stores what
	// Opts.Frame points at, not an address derived from Opts: that would
	// send Opts — and Opts.Path's buffer with it — to the heap.
	fr *faultFrame
}

// NewFrame builds the frame of q's fault side — its fault labels,
// degraded ids and ablation flag, the scheme parameters of q.S — and
// these patches. It returns nil when a decode of q would not run beside
// it: q fails Validate, or demote would move one of its fault labels to
// the degraded tier, which makes the fault side another.
func NewFrame(q *Query, patches []PatchEdge) *Frame {
	if q.Validate() != nil {
		return nil
	}
	f := &Frame{fr: new(faultFrame)}
	sc := &decodeScratch{faultFrame: f.fr}
	rq, _, ok := sc.demote(q)
	if !ok || len(rq.VertexFaults) < len(q.VertexFaults) || len(rq.EdgeFaults) < len(q.EdgeFaults) {
		return nil
	}
	sc.buildFrame(&rq, patches)
	sc.buildFrameRun()
	sc.runArcs.Collapse()
	sc.frameScanCost()
	return f
}

// Matches reports whether a decode of q with these patches runs beside f:
// the same fault labels pointer for pointer in the same order, the same
// degraded ids, ablation flag and scheme parameters, the same patches.
func (f *Frame) Matches(q *Query, patches []PatchEdge) bool {
	return f.fr.matches(q, patches)
}

// matches reports whether the frame was built from exactly the fault
// side of q and these patches: the same labels pointer for pointer in the
// same order, the same degraded ids, the same flag and scheme parameters.
func (f *faultFrame) matches(q *Query, patches []PatchEdge) bool {
	return f.keyed &&
		f.ablate == q.UnsafeIgnoreProtectedBalls &&
		f.keyParams == [3]int{q.S.C, q.S.MaxLevel, q.S.RShrink} &&
		f.numLevels == len(q.S.Levels) &&
		slices.Equal(f.vfKey, q.VertexFaults) &&
		slices.Equal(f.efKey, q.EdgeFaults) &&
		slices.Equal(f.dvKey, q.DegradedVertexFaults) &&
		slices.Equal(f.deKey, q.DegradedEdgeFaults) &&
		slices.Equal(f.patchKey, patches)
}

// buildFrame rebuilds the frame for the fault side of q: key, owners,
// centers, sorted fault lists, patch edges, admission rule and — when the
// rule tests protected balls — the masks. The run waits for the first
// decode whose budget covers it (buildFrameRun).
func (sc *decodeScratch) buildFrame(q *Query, patches []PatchEdge) {
	sc.keyed, sc.runBuilt, sc.composed, sc.frameCost = true, false, false, -1
	sc.ablate = q.UnsafeIgnoreProtectedBalls
	sc.keyParams = [3]int{q.S.C, q.S.MaxLevel, q.S.RShrink}
	sc.lowest, sc.numLevels = q.S.C+1, len(q.S.Levels)
	sc.vfKey = append(sc.vfKey[:0], q.VertexFaults...)
	sc.efKey = append(sc.efKey[:0], q.EdgeFaults...)
	sc.dvKey = append(sc.dvKey[:0], q.DegradedVertexFaults...)
	sc.deKey = append(sc.deKey[:0], q.DegradedEdgeFaults...)
	sc.patchKey = append(sc.patchKey[:0], patches...)

	sc.collectFaults(q)
	sc.admitPatches(q, patches)
	sc.rule = sc.admissionRule(q)
	sc.maskWords = (len(sc.centers) + 63) >> 6
	if sc.rule >= admitFused {
		sc.buildBallMasks()
	}
}

// collectFaults gathers the fault owners (for edge faults, both endpoint
// labels), the protected-ball centers — the faulty vertices and the
// endpoints of faulty edges: an edge of H survives level ℓ only if at
// least one of its endpoints is outside PB_ℓ(f) for every center f — and
// the sorted forbidden vertex and edge lists, labeled and degraded faults
// together.
func (sc *decodeScratch) collectFaults(q *Query) {
	sc.frameOwners = sc.frameOwners[:0]
	sc.centers = sc.centers[:0]
	sc.seenOwner.reset()
	sc.seenCenter.reset()
	sc.fvList = sc.fvList[:0]
	sc.feList = sc.feList[:0]
	for _, f := range q.VertexFaults {
		sc.addOwner(f)
		sc.fvList = append(sc.fvList, f.V)
		if sc.seenCenter.add(f.V) {
			sc.centers = append(sc.centers, f)
		}
	}
	for _, ef := range q.EdgeFaults {
		sc.feList = append(sc.feList, unorderedKey(ef[0].V, ef[1].V))
		for _, l := range ef {
			sc.addOwner(l)
			if sc.seenCenter.add(l.V) {
				sc.centers = append(sc.centers, l)
			}
		}
	}
	sc.fvList = append(sc.fvList, q.DegradedVertexFaults...)
	for _, ef := range q.DegradedEdgeFaults {
		sc.feList = append(sc.feList, unorderedKey(ef[0], ef[1]))
	}
	slices.Sort(sc.fvList)
	sc.fvList = slices.Compact(sc.fvList)
	slices.Sort(sc.feList)
	sc.feList = slices.Compact(sc.feList)
}

// buildFrameRun scans the patch edges and the frame owners under no
// budget — or composes them from sc.compose's run, when the plan set it —
// leaves the pass, its dense numbering with it, as the run, and packs its
// candidates into arcs, which the first decode to reuse them collapses (a
// lone query does not pay for that pass).
func (sc *decodeScratch) buildFrameRun() {
	sc.scanPass.reset(sc.numLevels)
	if sc.composed = sc.compose != nil; sc.composed {
		framesComposed.Add(1)
		sc.composeRun(sc.compose)
	} else {
		framesBuilt.Add(1)
		sc.emitPatches()
		sc.scanOwners(sc.frameOwners, math.MaxInt)
	}
	sc.run, sc.scanPass = sc.scanPass, sc.run
	sc.runArcs.Pack(len(sc.run.ids), sc.run.cands)
	sc.runBuilt = true
}

// emitPatches starts the pass with the admitted patch edges: one unit
// edge of the lowest level each, free of budget (see patched.go).
func (sc *decodeScratch) emitPatches() {
	for _, key := range sc.patchKeys {
		sc.cands = append(sc.cands, graph.DenseEdge{U: sc.vertexID(int32(key >> 32)), V: sc.vertexID(int32(key)), W: 1})
	}
	sc.levels = append(sc.levels, levelRun{end: len(sc.cands), lv: int32(sc.lowest)})
}

// scanCost is what scanOwners charges a Budget for owner o when nothing
// is cut: every stored edge, and — unless o is itself forbidden — every
// point its self edges are drawn from. A level left to the level graphs
// is counted off their rows, not read into a list.
func (sc *decodeScratch) scanCost(o *Label) (n int) {
	oForbidden := containsSorted(sc.fvList, o.V)
	for k := 0; k < sc.numLevels; k++ {
		lv := &o.Levels[k]
		n += o.levelEdgeCount(k, &sc.ball)
		if oForbidden {
			continue
		}
		lambda := lambdaOf(sc.lowest + k)
		for _, pe := range lv.Points {
			if selfEdgePoint(pe, lambda, o.V) {
				n++
			}
		}
	}
	return n
}

// frameScanCost is scanCost over the frame owners, found once per frame.
func (sc *decodeScratch) frameScanCost() int {
	if sc.frameCost < 0 {
		sc.frameCost = 0
		for _, o := range sc.frameOwners {
			sc.frameCost += sc.scanCost(o)
		}
	}
	return sc.frameCost
}

// admission names the rule deciding which net-level edges of an owner's
// H_ℓ join the sketch. One rule serves a whole decode, and each has
// exactly one edge loop in scanOwners. Lowest-level unit edges have a
// rule of their own (no ball test: they exist verbatim in G).
type admission uint8

const (
	// admitNone: a degraded fault has no label, so its protected balls
	// cannot be tested — treat them as maximal. No net-level edge
	// survives, and an owner-ball edge only as an unforbidden graph edge
	// (see Query.DegradedVertexFaults for the safety argument).
	admitNone admission = iota
	// admitUnforbidden: the ablation knob is on, or there are no centers
	// at all; only a forbidden endpoint rejects an edge.
	admitUnforbidden
	// admitFused: at most 62 centers — the ball bits and two sentinel
	// bits for the forbidden flags share one word, so a single load + AND
	// per edge decides the whole rejection predicate (see fillLR).
	admitFused
	// admitWord: 63 or 64 centers. Still one mask word per point, but no
	// room for the sentinels. 64 vertex faults are 64 centers, so this is
	// what |F| = 64 runs; folding it into admitWords costs that query a
	// third (7.6 → 10.1 ms on grid24), hence a rule of its own.
	admitWord
	// admitWords: more than 64 centers, W ≥ 2 words per point.
	admitWords
)

func (sc *decodeScratch) admissionRule(q *Query) admission {
	switch n := len(sc.centers); {
	case len(q.DegradedVertexFaults) > 0 || len(q.DegradedEdgeFaults) > 0:
		return admitNone
	case q.UnsafeIgnoreProtectedBalls || n == 0:
		return admitUnforbidden
	case n <= 62:
		return admitFused
	case n <= 64:
		return admitWord
	}
	return admitWords
}

// buildBallMasks fills what the bit-parallel tests read of F, level by
// level: each center's nearest net point (the pivot of mayBeInPB) and
// the combined ball list (cmbX/cmbM). PB_ℓ(f) is f itself and its
// level-ℓ points within λ_ℓ — exact, as absence from f's list means
// d > r_ℓ > λ_ℓ. One walk of each center's level list finds both. A
// vertex is numbered on its first sighting in the level by the position
// map ballPos, reset for each level, and its centers' bits are ORed into
// staging words (mask), so only the distinct vertices are sorted.
func (sc *decodeScratch) buildBallMasks() {
	W, numLevels := sc.maskWords, sc.numLevels
	sc.nearest = slices.Grow(sc.nearest[:0], len(sc.centers)*numLevels)[:len(sc.centers)*numLevels]
	sc.cmbX, sc.cmbM = sc.cmbX[:0], sc.cmbM[:0]
	sc.cmbOff = append(sc.cmbOff[:0], 0)
	for k := 0; k < numLevels; k++ {
		lambda := lambdaOf(sc.lowest + k)
		base := len(sc.cmbX)
		sc.mask = sc.mask[:0]
		sc.ballPos.reset()
		for fi, f := range sc.centers {
			w, bit := fi>>6, uint64(1)<<(fi&63)
			sc.ballSlot(f.V, base)[w] |= bit
			m := PointEntry{X: -1}
			for _, pe := range f.Levels[k].Points {
				if m.X < 0 || pe.D < m.D {
					m = pe
				}
				if pe.D > lambda {
					continue
				}
				// Most points were seen in the level already: a lookup,
				// which inlines, serves them.
				if i, seen := sc.ballPos.lookup(pe.X); seen {
					sc.mask[int(i)*W+w] |= bit
				} else {
					sc.ballSlot(pe.X, base)[w] |= bit
				}
			}
			sc.nearest[fi*numLevels+k] = m
		}
		xs := sc.cmbX[base:]
		slices.Sort(xs)
		for _, x := range xs {
			i, _ := sc.ballPos.lookup(x)
			sc.cmbM = append(sc.cmbM, sc.mask[int(i)*W:][:W]...)
		}
		sc.cmbOff = append(sc.cmbOff, int32(len(sc.cmbX)))
	}
}

// ballSlot returns the staging words of vertex x in the level whose
// combined list starts at cmbX[base], numbering x on its first sighting.
func (sc *decodeScratch) ballSlot(x int32, base int) []uint64 {
	W, next := sc.maskWords, int32(len(sc.cmbX)-base)
	if i, seen := sc.ballPos.getOrPut(x, next); seen {
		return sc.mask[int(i)*W:][:W]
	}
	sc.cmbX = append(sc.cmbX, x)
	for range W {
		sc.mask = append(sc.mask, 0)
	}
	return sc.mask[int(next)*W:][:W]
}

// --- a run composed from a shared frame's ---------------------------------

// indexOf returns f's run as composeRun reads it, built by the first
// caller, not NewFrame: keys k<<58 | self<<57 | a<<28 | b (level index,
// self edge or not, the ends' dense ids, a self edge's owner first, else
// the lower), sorted, each once at its lightest weight — the owners'
// balls overlap, so the run holds a stored edge about three times.
func (f *faultFrame) indexOf(sc *decodeScratch) []sketchCand {
	f.indexOnce.Do(func() {
		sc.byKey = sc.byKey[:0]
		from := 0
		for _, r := range f.run.levels {
			for _, c := range f.run.cands[from:r.end] {
				a, b, self := min(c.U, c.V), max(c.U, c.V), uint64(0)
				if r.self {
					a, b, self = c.U, c.V, 1
				}
				sc.byKey = append(sc.byKey, sketchCand{key: uint64(r.lv-int32(f.lowest))<<58 | self<<57 | uint64(a)<<28 | uint64(b), w: c.W})
			}
			from = r.end
		}
		sc.sortCandsByKey()
		for _, c := range sc.byKey {
			if n := len(f.index); n > 0 && f.index[n-1].key == c.key {
				f.index[n-1].w = min(f.index[n-1].w, c.w)
			} else {
				f.index = append(f.index, c)
			}
		}
		f.index = slices.Clip(f.index)
	})
	return f.index
}

// composesFrom reports whether the decode's own frame, keyed to q, may
// compose its run from base's: the fused rule; base's fault labels among
// q's and no degraded fault; the same patches, admitted alike, flag and
// scheme parameters; for every vertex base scanned, the decode's label.
func (sc *decodeScratch) composesFrom(base *faultFrame, q *Query, patches []PatchEdge) bool {
	if sc.rule != admitFused || len(base.dvKey) > 0 || len(base.deKey) > 0 ||
		base.ablate != sc.ablate || base.keyParams != sc.keyParams || base.numLevels != sc.numLevels ||
		!slices.Equal(base.patchKey, patches) || !slices.Equal(base.patchKeys, sc.patchKeys) ||
		len(base.run.ids) >= 1<<28 {
		return false
	}
	for _, f := range base.vfKey {
		if !slices.Contains(q.VertexFaults, f) {
			return false
		}
	}
	for _, ef := range base.efKey {
		if !slices.Contains(q.EdgeFaults, ef) {
			return false
		}
	}
	for _, o := range sc.frameOwners {
		if base.seenOwner.has(o.V) && !slices.Contains(base.frameOwners, o) {
			return false
		}
	}
	return true
}

// composeRun fills the pass with the run of the decode's own frame, under
// base's numbering: base's candidates that the decode's faults leave, then
// what the owners base lacks admit. Admission is an AND over the faults
// reading (ℓ, x, y, F), and the owner only through its mayBeInPB row, so
// a candidate base admitted survives unless an end is forbidden, it is a
// forbidden edge of the lowest level, or one center's ball holds both
// ends (a self edge: the point, and the owner's row — fillRow's — has the
// center). The lists base's run walked count as walked.
func (sc *decodeScratch) composeRun(base *faultFrame) {
	idx := base.indexOf(sc)
	sc.ids = append(sc.ids, base.run.ids...)
	sc.idOf.keys = append(sc.idOf.keys[:0], base.run.idOf.keys...)
	sc.idOf.vals, sc.idOf.n = append(sc.idOf.vals[:0], base.run.idOf.vals...), base.run.idOf.n
	for k, lists := range base.run.scanned {
		for _, l := range lists {
			l.cover = coverWord{} // in base's center bits; none only skips a shortcut
			sc.scanned[k] = append(sc.scanned[k], l)
		}
	}
	if n := len(base.run.ids); len(sc.marks) < n {
		sc.marks = make([]uint64, n)
	}
	const idMask = 1<<28 - 1
	marks, ids := sc.marks, base.run.ids
	k, owner := -1, int32(-1)
	var row [1]uint64
	for _, c := range idx {
		u, v, self := int32(c.key>>28&idMask), int32(c.key&idMask), c.key>>57&1 == 1
		if ck := int(c.key >> 58); ck != k {
			k, owner = ck, -1
			sc.markLevel(&base.run.idOf, k)
		}
		if self && u != owner {
			owner = u
			sc.fillRow(row[:], base.frameOwners[slices.IndexFunc(base.frameOwners, func(o *Label) bool { return o.V == ids[u] })], k)
		}
		a, b := marks[u], marks[v]
		switch {
		case (a|b)&maskBitG != 0:
			continue
		case self:
			b &= row[0]
		case k == 0:
			if len(sc.feList) > 0 && containsSorted(sc.feList, unorderedKey(ids[u], ids[v])) {
				continue
			}
			b = 0
		default:
			b &= a
		}
		if b != 0 {
			continue
		}
		sc.cands = append(sc.cands, graph.DenseEdge{U: u, V: v, W: c.w})
		if lv, n := int32(sc.lowest+k), len(sc.levels); n > 0 && sc.levels[n-1].lv == lv && sc.levels[n-1].self == self {
			sc.levels[n-1].end++
		} else {
			sc.levels = append(sc.levels, levelRun{end: len(sc.cands), lv: lv, self: self})
		}
	}
	sc.markLevel(nil, 0)
	sc.owners = sc.owners[:0]
	for _, o := range sc.frameOwners {
		if !base.seenOwner.has(o.V) {
			sc.owners = append(sc.owners, o)
		}
	}
	sc.scanOwners(sc.owners, math.MaxInt)
}

// markLevel clears the marks and, unless idOf is nil, sets those of level
// index k on the vertices idOf numbers (see decodeScratch.marks).
func (sc *decodeScratch) markLevel(idOf *i32map, k int) {
	for _, id := range sc.touched {
		sc.marks[id] = 0
	}
	sc.touched = sc.touched[:0]
	if idOf == nil {
		return
	}
	for j := sc.cmbOff[k]; j < sc.cmbOff[k+1]; j++ {
		if id, ok := idOf.lookup(sc.cmbX[j]); ok {
			sc.marks[id] = sc.cmbM[j]
			sc.touched = append(sc.touched, id)
		}
	}
	for _, v := range sc.fvList {
		if id, ok := idOf.lookup(v); ok {
			sc.marks[id] |= maskBitG
			sc.touched = append(sc.touched, id)
		}
	}
}
