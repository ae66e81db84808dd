package core

import (
	"math"
	"slices"

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

// Frame is the fault frame of one fault side, built once and frozen: its
// run scanned, packed and collapsed, its budget cost counted. Nothing
// writes to it after NewFrame, so any number of Decoders on any
// goroutines may decode beside it (Opts.Frame). A frame is a function of
// its fault labels alone — admission reads nothing of s or t — so every
// pair asked under them gets the answer a fresh decode gives.
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
	f.fr.pairs, f.fr.pairsTmp = nil, nil
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
	sc.keyed, sc.runBuilt, sc.frameCost = true, false, -1
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
// budget, leaves the pass — its dense numbering with it — as the run, and
// packs its candidates into arcs, which the first decode to reuse them
// collapses (a lone query does not pay for that pass).
func (sc *decodeScratch) buildFrameRun() {
	framesBuilt.Add(1)
	sc.scanPass.reset(sc.numLevels)
	sc.emitPatches()
	sc.scanOwners(sc.frameOwners, math.MaxInt, nil, true)
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

// buildBallMasks fills what the bit-parallel tests read of F: each
// center's nearest net point per level, and the per-level combined ball
// lists the point masks are filled from.
func (sc *decodeScratch) buildBallMasks() {
	// A center's nearest net point depends on (center, level) only: found
	// once here, not once per owner inside mayBeInPB.
	sc.nearest = sc.nearest[:0]
	for _, f := range sc.centers {
		for k := 0; k < sc.numLevels; k++ {
			sc.nearest = append(sc.nearest, nearestNetPoint(f, sc.lowest+k))
		}
	}
	sc.buildCombinedBalls(sc.numLevels, sc.lowest, sc.maskWords)
}

// buildCombinedBalls precomputes, for every level, the union of all
// centers' protected balls as one sorted vertex list with a per-vertex
// center bitmask: PB_ℓ(f) is the center's ball entries within λ_ℓ plus
// the center vertex itself, and membership is decided exactly (absence
// from a center's level list means d > r_ℓ > λ_ℓ) with int32 distances
// throughout — so the masks are exact even at levels where λ_ℓ would
// overflow a uint8 truncation. Each (vertex, center) membership becomes
// a packed pair, radix-sorted by vertex and OR-compacted; the per-level
// runs land in cmbX/cmbM/cmbOff. Filling one owner level's point masks
// is then a single sorted merge against the combined list, instead of
// one merge per center per owner level.
func (sc *decodeScratch) buildCombinedBalls(numLevels, lowest, W int) {
	sc.cmbX = sc.cmbX[:0]
	sc.cmbM = sc.cmbM[:0]
	sc.cmbOff = append(sc.cmbOff[:0], 0)
	for k := 0; k < numLevels; k++ {
		lambda := lambdaOf(lowest + k)
		sc.pairs = sc.pairs[:0]
		for fi, f := range sc.centers {
			sc.pairs = append(sc.pairs, uint64(uint32(f.V))<<32|uint64(uint32(fi)))
			if k >= len(f.Levels) {
				continue
			}
			for _, ce := range f.Levels[k].Points {
				if ce.D <= lambda {
					sc.pairs = append(sc.pairs, uint64(uint32(ce.X))<<32|uint64(uint32(fi)))
				}
			}
		}
		sc.sortPairs()
		for i := 0; i < len(sc.pairs); {
			x := int32(sc.pairs[i] >> 32)
			base := len(sc.cmbM)
			for w := 0; w < W; w++ {
				sc.cmbM = append(sc.cmbM, 0)
			}
			sc.cmbX = append(sc.cmbX, x)
			for ; i < len(sc.pairs) && int32(sc.pairs[i]>>32) == x; i++ {
				fi := uint32(sc.pairs[i])
				sc.cmbM[base+int(fi>>6)] |= 1 << (fi & 63)
			}
		}
		sc.cmbOff = append(sc.cmbOff, int32(len(sc.cmbX)))
	}
}
