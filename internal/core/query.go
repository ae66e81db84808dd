package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"fsdl/internal/graph"
)

// Query is a forbidden-set distance query (s, t, F), holding nothing but
// labels — decoding reads no global state, which is the distributed
// data-structure contract of the paper: the answer is computed from
// L(s), L(t) and {L(f) : f ∈ F} alone.
type Query struct {
	// S and T are the labels of the query endpoints.
	S, T *Label
	// VertexFaults are the labels of forbidden vertices.
	VertexFaults []*Label
	// EdgeFaults are the label pairs (L(a), L(b)) of forbidden edges
	// (a,b); per the paper, a forbidden edge is specified by the labels of
	// its two endpoints.
	EdgeFaults [][2]*Label
	// UnsafeIgnoreProtectedBalls is an ablation knob: it disables the
	// protected-ball filter of Lemma 2.3, admitting every stored edge
	// whose endpoints are not themselves forbidden. The resulting sketch
	// can contain edges whose underlying shortest paths run through
	// faults, so estimates may drop below the true surviving distance —
	// the ablation experiment measures exactly how often. Never set this
	// outside experiments.
	UnsafeIgnoreProtectedBalls bool

	// Budget caps the number of candidate sketch edges decode examines
	// (≤ 0 means unlimited): every stored edge and every owner-ball point
	// of every owner level costs one unit, admitted or not, in scan order
	// — so an owner level's edge list is simply cut to what the budget
	// still has room for. When the budget runs out the remaining
	// candidates are simply not admitted, so H shrinks: the estimate stays
	// an upper bound on d_{G\F} (safety is one-sided — omitting edges can
	// only lengthen paths), but it may exceed (1+ε)·d or report
	// disconnection spuriously. DistanceRobust surfaces the truncation via
	// Result.BudgetExhausted; Distance simply reports ok=false when the
	// truncated sketch disconnects s from t. A patched query (patched.go)
	// builds one sketch and spends one budget on it: the stored edges of
	// s, t and F first, those of the patch endpoints last — so a tight
	// budget gives up the shortcuts' surroundings before the base answer
	// — and nothing for the patch edges themselves.
	Budget int
	// DegradedVertexFaults are forbidden vertices for which no usable
	// label is available (missing from the store, failed Validate, or
	// corrupt on the wire), identified by vertex id alone. The decoder
	// treats each one's protected balls as maximal: every net-level and
	// owner-ball edge is rejected, and only lowest-level unit edges whose
	// endpoints avoid all forbidden vertices survive — each such edge
	// exists verbatim in G\F, so the estimate remains an upper bound on
	// d_{G\F} (the paper's safety direction) at the cost of stretch.
	DegradedVertexFaults []int32
	// DegradedEdgeFaults are forbidden edges (a,b) with at least one
	// unusable endpoint label, identified by the endpoint vertex ids. Same
	// maximal-protected-ball treatment as DegradedVertexFaults; the edge
	// itself is additionally excluded from the unit-edge tier.
	DegradedEdgeFaults [][2]int32
}

// LabelLookup fetches the label of one vertex for ResolveQuery — from a
// scheme, a label table, a store, or a cluster of them.
type LabelLookup func(v int) (*Label, error)

// ErrNoLabel is authoritative absence: whoever returns an error wrapping
// it vouches that the vertex has no label, as opposed to one that could
// not be reached or read just now. Stores and cluster frontends wrap it;
// callers test with errors.Is, never by message.
var ErrNoLabel = errors.New("no label for vertex")

// ResolveQuery assembles the query (src, dst, F) from looked-up labels.
// A nil query with a nil error means an endpoint is itself forbidden: no
// distance exists, exactly. A missing endpoint label is always an error;
// see ResolveFaults for a missing fault label.
func ResolveQuery(src, dst int, faults *graph.FaultSet, lookup LabelLookup, demote bool) (*Query, error) {
	if faults.HasVertex(src) || faults.HasVertex(dst) {
		return nil, nil
	}
	ls, err := lookup(src)
	if err != nil {
		return nil, err
	}
	lt, err := lookup(dst)
	if err != nil {
		return nil, err
	}
	q := &Query{S: ls, T: lt}
	if err := q.ResolveFaults(faults, lookup, demote); err != nil {
		return nil, err
	}
	return q, nil
}

// ResolveFaults appends the labels of F to q's fault tiers in the fault
// set's canonical (Sorted) order, which keeps traces deterministic. A
// fault whose label cannot be looked up is an error, unless demote is
// set: then it joins the degraded tier by id, and decoding yields a
// conservative upper bound (Result.Degraded) instead of failing.
func (q *Query) ResolveFaults(faults *graph.FaultSet, lookup LabelLookup, demote bool) error {
	fv, edges := faults.Sorted()
	for _, f := range fv {
		lf, err := lookup(f)
		switch {
		case err == nil:
			q.VertexFaults = append(q.VertexFaults, lf)
		case demote:
			q.DegradedVertexFaults = append(q.DegradedVertexFaults, int32(f))
		default:
			return err
		}
	}
	for _, e := range edges {
		la, err := lookup(e[0])
		lb, errB := lookup(e[1])
		if err == nil {
			err = errB
		}
		switch {
		case err == nil:
			q.EdgeFaults = append(q.EdgeFaults, [2]*Label{la, lb})
		case demote:
			q.DegradedEdgeFaults = append(q.DegradedEdgeFaults, [2]int32{int32(e[0]), int32(e[1])})
		default:
			return err
		}
	}
	return nil
}

// Result is the outcome of a robust (degradation-tolerant) query.
type Result struct {
	// Dist is an upper bound on d_{G\F}(s,t); exact to within the scheme's
	// (1+ε) stretch when Degraded is false. Meaningful only when OK.
	Dist int64
	// OK reports whether a finite bound was produced. False means the
	// (possibly degraded or truncated) sketch disconnects s from t — under
	// degradation this no longer certifies true disconnection.
	OK bool
	// Degraded is true when the answer was computed conservatively: some
	// fault labels were unusable or the work budget was exhausted. The
	// safety direction δ ≥ d_{G\F} still holds; the stretch bound may not.
	Degraded bool
	// MissingFaultLabels lists the forbidden vertices whose labels were
	// missing or failed validation (sorted).
	MissingFaultLabels []int32
	// BudgetExhausted is true when Query.Budget truncated the sketch.
	BudgetExhausted bool
}

// SketchEdge is one edge of the query-time sketch graph H, reported by
// Sketch for tests and traces. X, Y are global vertex ids; W is the edge
// weight (an exact G-distance); Level is the scheme level that contributed
// the edge.
type SketchEdge struct {
	X, Y  int32
	W     int64
	Level int
}

// Trace records how a query was answered, used by the Figure-1/Claim-2
// experiment (E8) and for debugging.
type Trace struct {
	// NumHVertices and NumHEdges are the sketch graph dimensions (after
	// deduplication).
	NumHVertices, NumHEdges int
	// AdmittedPerLevel and RejectedPerLevel count candidate edges per
	// scheme level (index 0 ↔ level c+1): admitted is what a level added
	// to the sketch before deduplication (patch edges count at index 0),
	// rejected the rest of what was examined there. Candidates a Budget
	// kept from being examined are in neither.
	AdmittedPerLevel, RejectedPerLevel []int
	// Path is the winning sketch path as global vertex ids (s..t), with
	// PathWeights the corresponding edge weights. Empty when disconnected.
	Path        []int32
	PathWeights []int64
	// SharedLevelsSkipped counts the owner levels whose edge list the
	// decoder did not walk because an identical list — the same interned
	// array over the same net points (LevelTable), or the same level
	// graphs over the same points for a list a label leaves to them — had
	// been scanned for an earlier owner. Their candidates are tallied above as if scanned:
	// this is the only field that tells shared labels from private ones.
	SharedLevelsSkipped int
	// FrameReused reports that the fault and patch owners were not scanned
	// for this decode: their candidates came from the fault frame an
	// earlier decode on the same Decoder had built from the same fault
	// labels (see faultFrame), or from the shared Frame of those labels
	// it was handed (Opts.Frame). The tallies above include the
	// frame's, as if scanned now: this is the only field that tells a
	// batch's later pairs from its first.
	FrameReused bool
}

// Opts is what a decode reports and admits besides δ: the arguments of
// the decode names, one field each. None of it names a search shortcut;
// which ones a decode takes follows from these (see plan).
type Opts struct {
	// Patches are pending inserted edges the sketch admits (patched.go).
	Patches []PatchEdge
	// Path, when non-nil, has the winning s..t walk of H appended to the
	// slice it points at when the query connects: global vertex ids (net
	// points, plus original-graph vertices at the lowest level) whose
	// edge weights sum exactly to Result.Dist. Each hop is realizable in
	// the surviving graph at its weight, so the walk is a
	// (1+ε)-approximate corridor, not necessarily a shortest path; a
	// degraded or patched decode reports its own sketch's walk. A reused
	// buffer keeps path decodes allocation-free.
	Path *[]int32
	// Trace, when non-nil, is reset and filled with the sketch
	// construction details and the walk.
	Trace *Trace
	// Frame is a shared fault frame (NewFrame). The decode runs beside it
	// when its fault side matches (Frame.Matches), and under a frame of
	// the Decoder's own, as without it, otherwise.
	Frame *Frame
}

// Distance decodes the query: it assembles the sketch graph H from the
// labels, keeping only safe edges, and returns the s-t distance in H.
// ok is false when no path exists, which (by the scheme's safety and
// stretch guarantees) happens exactly when s and t are disconnected in
// G\F — and for a query that fails Validate, which DistanceRobust would
// answer by demoting labels. Like every decode method on Query it runs
// on a Decoder borrowed for the call, so steady-state calls are
// allocation-free; batch callers that want to pin one scratch across
// many queries should hold a Decoder instead.
func (q *Query) Distance() (int64, bool) { return q.DistanceWithTrace(nil) }

// DistanceWithTrace is Distance, additionally filling tr with the sketch
// construction details and the winning path.
func (q *Query) DistanceWithTrace(tr *Trace) (int64, bool) {
	if q.Validate() != nil {
		return 0, false
	}
	res := q.decode(Opts{Trace: tr}, nil)
	return res.Dist, res.OK
}

// DistanceRobust decodes the query tolerating unusable fault labels: any
// vertex-fault label that is nil is rejected outright (its identity is
// unknown, so no sound answer exists — callers that know the vertex id
// should list it in DegradedVertexFaults instead), while a label that
// fails Validate or mismatches the endpoint parameters is demoted to the
// degraded tier by its id. Degraded decoding treats those faults'
// protected balls as maximal, preserving the safety direction
// δ ≥ d_{G\F} at the cost of the stretch bound; the Result says exactly
// how much trust the number deserves.
func (q *Query) DistanceRobust() Result { return q.decode(Opts{}, nil) }

// Sketch returns H — the sketch a traced decode derives: one edge per
// pair of vertices some owner's label admits an edge between, in
// ascending (X, Y) order, at the lightest admitted weight and the lowest
// admitting level. Exposed so tests can verify the safety invariant:
// every sketch edge is realizable in G\F at exactly its weight.
func (q *Query) Sketch() ([]SketchEdge, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	var edges []SketchEdge
	q.decode(Opts{Trace: new(Trace)}, &edges)
	return edges, nil
}

// decode is Decode on a Decoder borrowed from the pool for this one call.
// When sketch is non-nil, a traced decode that built H (s ≠ t) copies it
// there.
func (q *Query) decode(o Opts, sketch *[]SketchEdge) Result {
	var d Decoder
	defer d.Release()
	res := d.Decode(q, o)
	if sketch != nil && o.Trace.NumHVertices > 0 {
		*sketch = slices.Clone(d.sc.edges)
	}
	return res
}

// demote is the front of every decode: it keeps the fault labels a
// decode can use and moves the rest to the degraded tier by id. ok is
// false when nothing sound can be answered: an endpoint label is missing
// or fails Validate, or a fault label is nil (its vertex is unknown).
// rq keeps its usable fault labels on the scratch. Only a demotion
// allocates (it is rare by construction: it means labels went missing).
func (sc *decodeScratch) demote(q *Query) (rq Query, res Result, ok bool) {
	if q.S == nil || q.T == nil || q.S.Validate() != nil || q.T.Validate() != nil {
		return rq, res, false
	}
	// rq shares q's degraded tiers until a demotion appends to them; the
	// clip makes that append copy instead of writing into q's arrays.
	rq = *q
	rq.VertexFaults, rq.EdgeFaults = sc.vf[:0], sc.ef[:0]
	rq.DegradedVertexFaults = slices.Clip(q.DegradedVertexFaults)
	rq.DegradedEdgeFaults = slices.Clip(q.DegradedEdgeFaults)
	res.MissingFaultLabels = append([]int32(nil), q.DegradedVertexFaults...)
	usable := func(l *Label) bool { return usableWith(l, q.S) }
	for _, f := range q.VertexFaults {
		switch {
		case usable(f):
			rq.VertexFaults = append(rq.VertexFaults, f)
		case f == nil:
			return rq, res, false
		default:
			rq.DegradedVertexFaults = append(rq.DegradedVertexFaults, f.V)
			res.MissingFaultLabels = append(res.MissingFaultLabels, f.V)
		}
	}
	for _, ef := range q.EdgeFaults {
		switch {
		case usable(ef[0]) && usable(ef[1]):
			rq.EdgeFaults = append(rq.EdgeFaults, ef)
		case ef[0] == nil || ef[1] == nil:
			return rq, res, false
		default:
			rq.DegradedEdgeFaults = append(rq.DegradedEdgeFaults, [2]int32{ef[0].V, ef[1].V})
			for _, l := range ef {
				if !usable(l) {
					res.MissingFaultLabels = append(res.MissingFaultLabels, l.V)
				}
			}
		}
	}
	sc.vf, sc.ef = rq.VertexFaults[:0], rq.EdgeFaults[:0]
	slices.Sort(res.MissingFaultLabels)
	return rq, res, true
}

// usableWith reports whether l can join a decode anchored at ref: it is
// present, passes Validate and was cut with ref's scheme parameters.
func usableWith(l, ref *Label) bool {
	return l != nil && l.Validate() == nil &&
		l.C == ref.C && l.MaxLevel == ref.MaxLevel && l.RShrink == ref.RShrink
}

// Validate checks that all labels of the query are present and mutually
// compatible (same scheme parameters).
func (q *Query) Validate() error {
	if q.S == nil || q.T == nil {
		return fmt.Errorf("core: query missing endpoint label")
	}
	check := func(l *Label) error {
		if l == nil {
			return fmt.Errorf("core: query contains nil fault label")
		}
		if l.C != q.S.C || l.MaxLevel != q.S.MaxLevel || l.RShrink != q.S.RShrink {
			return fmt.Errorf("core: label of %d has params (c=%d,L=%d,rs=%d), want (c=%d,L=%d,rs=%d)",
				l.V, l.C, l.MaxLevel, l.RShrink, q.S.C, q.S.MaxLevel, q.S.RShrink)
		}
		return nil
	}
	if err := check(q.T); err != nil {
		return err
	}
	for _, f := range q.VertexFaults {
		if err := check(f); err != nil {
			return err
		}
		if f.V == q.S.V || f.V == q.T.V {
			return fmt.Errorf("core: endpoint %d is itself forbidden", f.V)
		}
	}
	for _, ef := range q.EdgeFaults {
		if err := check(ef[0]); err != nil {
			return err
		}
		if err := check(ef[1]); err != nil {
			return err
		}
	}
	for _, v := range q.DegradedVertexFaults {
		if v == q.S.V || v == q.T.V {
			return fmt.Errorf("core: endpoint %d is itself forbidden (degraded)", v)
		}
	}
	return nil
}

// plan is how one decode runs: under Opts.Frame (shared) or the
// Decoder's own frame, beside the frame's run (framed) or scanning its
// owners itself, keeping no parent tree (lean), stopping at the labels'
// bound L (bound), holding t's own level lists back (rescan), and
// answering from the labels alone when they prove it (certify). plan
// derives it; decode reads nothing else.
type plan struct {
	shared, framed, lean, bound, rescan, certify bool
}

// plan puts the decode of q under the right frame — o.Frame when it
// matches, else the Decoder's own, rebuilt unless it was built from q's
// fault side — and derives the rest from what o asks and the frame.
//
// A Budget is charged in scan order — s, t, then the frame's owners — so
// one that ends before the last frame owner does cannot use a run scanned
// in full: that decode scans the frame owners itself, after s and t, in
// one pass cut where the budget ends.
//
// A decode that reports δ alone — no walk, no trace — is lean, and
// without an admitted patch edge it takes two shortcuts off labelBound's
// L ≤ d_H. The solve stops once t's tentative distance reaches L. And
// t's own level lists — unless the frame's run holds them or a Budget
// counts scan order — wait until a first solve without them, t keeping
// its self edges (its one way into H), misses L: a subset of H that
// reaches L has answered d_H, and after a miss the search goes on from
// where it ended, through what t's lists make shorter. Labels that pass
// Validate but contradict each other (L > d_H) get the length of a walk
// of H between d_H and L; δ never drops below d_H.
//
// Such a decode — unless a Budget counts scan order or a degraded fault
// leaves no protected ball to test a self edge against — first looks for
// the certificate U = L (certify): a net point both labels hold, as far
// from s and t together as L says s and t are at least apart, that s and
// t each reach by a self edge the frame admits. That walk of H is as
// short as any, so its length is d_H, and the decode is over before
// anything is scanned.
func (sc *decodeScratch) plan(q *Query, o Opts) plan {
	var p plan
	sc.faultFrame = &sc.own
	if f := o.Frame; f != nil && f.Matches(q, o.Patches) {
		sc.faultFrame, p.shared = f.fr, true
	} else if !sc.matches(q, o.Patches) {
		sc.buildFrame(q, o.Patches)
	}
	p.framed = true
	if q.Budget > 0 {
		cost := sc.frameScanCost()
		for _, l := range [2]*Label{q.S, q.T} {
			if !sc.seenOwner.has(l.V) {
				cost += sc.scanCost(l)
			}
		}
		p.framed = cost <= q.Budget
	}
	p.lean = o.Path == nil && o.Trace == nil
	p.bound = p.lean && len(sc.patchKeys) == 0
	p.rescan = p.bound && q.Budget <= 0 && !sc.seenOwner.has(q.T.V)
	p.certify = p.bound && q.Budget <= 0 && sc.rule != admitNone
	return p
}

// decode scans the sketch graph H onto the scratch and runs Dijkstra. It
// returns the s-t distance (-1 when unreachable) and whether
// Query.Budget truncated the sketch; the admitted candidates and the
// dense vertex remap remain on the scratch until the next decode.
// Steady-state decodes allocate nothing: every transient structure lives
// on the scratch and is reset, not reallocated.
//
// H is a set — one edge per pair {x, y} some owner's label admits, at the
// lightest weight admitted — and an untraced decode never materialises
// it: every stored edge carries the exact d_G of its endpoints whatever
// level or owner it came from (a pending insert's unit edge is the one
// lighter parallel), so the candidates go to the solver as scanned,
// parallels and all, and the solver's answer is a function of the set
// (graph.SketchSolver). The sorted, de-duplicated edge list is derived
// from them when someone asks to see it (sketchEdges).
//
// The stages. Frame: what depends on F alone (faultFrame) — centers,
// sorted fault lists, admission rule, protected-ball masks, and the patch
// edges and the fault and patch owners' admitted candidates as one run;
// kept from the previous decode when this one brings the same fault
// labels, or a shared Frame's when those are its labels. Pair: scan the
// levels of s and t against the frame's masks, skipping every level list
// the run has walked. Solve: the run's arcs and the pair's candidates
// together. Which frame, and which shortcuts, is the plan's.
//
// The admission scan relies on the ordering invariants Label.Validate
// enforces (Points strictly ascending by X, Edges ascending by (XI,YI)
// with XI < YI): forbidden vertices and edges are joined against the
// label lists with sorted-merge cursors, and per-center protected-ball
// membership is precomputed into per-point bitmasks — 64 centers per
// uint64 word — so each candidate edge is cleared against every
// protected ball with one AND per word instead of a hash probe per
// center (Lemma 2.6's membership test, batched). What comes out is held
// to referenceDecode in the tests, which tests every membership with a
// hash probe: same budget accounting, same sketch, same walk.
func (sc *decodeScratch) decode(q *Query, o Opts) (int64, bool, error) {
	tr := o.Trace
	if tr != nil {
		*tr = Trace{}
	}
	sc.beside = nil
	if err := q.Validate(); err != nil {
		return 0, false, err
	}
	if q.S.V == q.T.V {
		sc.scanPass.reset(0)
		if tr != nil {
			tr.Path = sc.appendHPath(q, nil)
		}
		return 0, false, nil
	}
	p := sc.plan(q, o)
	sc.setEnds(q)
	bound := int64(-1)
	if p.bound {
		var u int64
		bound, u = sc.boundMerge(q.S, q.T)
		if p.certify && u == bound && sc.certified(q) {
			certifiedDecodes.Add(1)
			sc.scanPass.reset(0)
			return bound, false, nil
		}
	}
	reused := p.framed && sc.runBuilt
	switch {
	case reused:
		framesReused.Add(1)
		sc.runArcs.Collapse() // once per frame, see buildFrameRun
	case p.framed:
		sc.buildFrameRun()
	}

	sc.scanPass.reset(sc.numLevels)
	sc.owners = sc.owners[:0]
	if p.framed {
		// The run stands for s or t when the frame owns it.
		sc.beside = &sc.run
		sc.ids = append(sc.ids, sc.run.ids...)
		for _, l := range [2]*Label{q.S, q.T} {
			if !sc.seenOwner.has(l.V) {
				sc.owners = append(sc.owners, l)
			}
		}
	} else {
		sc.emitPatches()
		sc.owners = append(sc.owners, q.S, q.T)
		for _, o := range sc.frameOwners {
			if o.V != q.S.V && o.V != q.T.V {
				sc.owners = append(sc.owners, o)
			}
		}
	}
	room, late := math.MaxInt, (*Label)(nil)
	if q.Budget > 0 {
		room = q.Budget
	}
	if p.rescan {
		late = q.T
	}
	exhausted := sc.scanOwners(sc.owners, room, late, true)
	sc.src, sc.dst = int(sc.vertexID(q.S.V)), int(sc.vertexID(q.T.V))
	sc.solver.DistanceOnly = p.lean
	d := sc.solve(bound, 0)
	if late != nil && (d < 0 || d > bound) {
		// Missed: the rest of H is t's lists. The search goes on from
		// where it stopped, through what their edges make shorter.
		targetRescans.Add(1)
		n := len(sc.cands)
		sc.owners = append(sc.owners[:0], late)
		if sc.scanOwners(sc.owners, room, nil, false); len(sc.cands) > n {
			d = sc.solve(bound, n)
		}
	}
	if d >= 0 && d <= bound {
		boundStops.Add(1)
	}
	if tr != nil {
		tr.FrameReused = reused
		tr.AdmittedPerLevel = make([]int, sc.numLevels)
		tr.RejectedPerLevel = make([]int, sc.numLevels)
		tr.AdmittedPerLevel[0] = len(sc.patchKeys)
		sc.tally.addTo(tr)
		if p.framed {
			sc.run.tally.addTo(tr)
		}
		tr.NumHVertices, tr.NumHEdges = len(sc.ids), len(sc.sketchEdges())
		if d >= 0 {
			// Each hop of the walk is tight in the search that found it.
			tr.Path = sc.appendHPath(q, nil)
			for i := 1; i < len(sc.hpath); i++ {
				tr.PathWeights = append(tr.PathWeights, sc.solver.Dist(sc.hpath[i])-sc.solver.Dist(sc.hpath[i-1]))
			}
		}
	}
	return d, exhausted, nil
}

// tightPoint is a net point x both endpoint labels hold at level index k
// and draw a self edge to (or are).
type tightPoint struct{ x, k int32 }

// boundMerge is L = max |d(s,x) − d(t,x)| over the net points x that
// L(s) and L(t) hold at one level. Every edge of H weighs the d_G of its
// ends, so by the triangle inequality no s–t walk of H is shorter: a
// lower bound on d_H(s,t) read off the two labels, and d_G(s,t) itself
// when a shortest path from s to some shared x runs through t (t is such
// an x when it is a net point in s's ball). The nets nest and the radii
// grow, so a point the two labels hold at different levels both hold at
// the higher one, and one merge per level of the id-sorted point lists
// finds every shared point.
//
// The merge also finds u, the least d(s,x) + d(t,x) over the shared
// points of a level that s and t each draw a self edge to at that level
// (or are) — never below L on labels that agree — and keeps the points
// that reach it on the scratch (sc.tight), a point once for every such
// level; u is -1 when there is none.
func (sc *decodeScratch) boundMerge(s, t *Label) (l, u int64) {
	var lo int32
	hi := int32(math.MaxInt32)
	sc.tight = sc.tight[:0]
	for k := range s.Levels {
		a, b := s.Levels[k].Points, t.Levels[k].Points
		lambda := lambdaOf(s.Level(k))
		for i, j := 0, 0; i < len(a) && j < len(b); {
			switch x, y := a[i].X, b[j].X; {
			case x < y:
				i++
			case x > y:
				j++
			default:
				ds, dt := a[i].D, b[j].D
				lo = max(lo, ds-dt, dt-ds)
				if ds+dt <= hi && ds <= lambda && dt <= lambda {
					if ds+dt < hi {
						hi, sc.tight = ds+dt, sc.tight[:0]
					}
					sc.tight = append(sc.tight, tightPoint{x, int32(k)})
				}
				i, j = i+1, j+1
			}
		}
	}
	if len(sc.tight) == 0 {
		return int64(lo), -1
	}
	return int64(lo), int64(hi)
}

// certified reports whether one of the tight points x (boundMerge) makes
// a walk s–x–t of H: x is not forbidden, and s and t each reach it by a
// self edge the frame admits — or are x. The two edges may come from two
// levels x is tight at. Such a walk is U = d(s,x) + d(t,x) long; the
// caller has U = L, and L ≤ d_H ≤ U, so its length is d_H.
//
// A tight point is tested at its level as scanOwners' self-edge loop
// would test it there, and nothing else is read: its mask (ballMask)
// against the mayBeInPB rows of s and t at the level (endRow, which the
// pair's scan takes over should the certificate fail), and the forbidden
// list.
func (sc *decodeScratch) certified(q *Query) bool {
	masks := sc.rule >= admitFused
	// certHalf holds the points only one endpoint reaches, as x<<1 | side.
	half := sc.certHalf[:0]
	k, j, end := int32(-1), 0, 0
	var rowS, rowT []uint64
	for _, tp := range sc.tight {
		sOK, tOK := true, true
		if masks {
			if tp.k != k {
				k, j, end = tp.k, int(sc.cmbOff[tp.k]), int(sc.cmbOff[tp.k+1])
				rowS, rowT = sc.endRow(0, int(k)), sc.endRow(1, int(k))
			}
			m := sc.ballMask(&j, end, tp.x)
			sOK = tp.x == q.S.V || !wordsMeet(m, rowS)
			tOK = tp.x == q.T.V || !wordsMeet(m, rowT)
		}
		switch {
		case !sOK && !tOK || containsSorted(sc.fvList, tp.x):
		case sOK && tOK:
			sc.certHalf = half
			return true
		case sOK:
			half = append(half, int64(tp.x)<<1)
		default:
			half = append(half, int64(tp.x)<<1|1)
		}
	}
	sc.certHalf = half
	// One endpoint's edge at one level and the other's at another.
	slices.Sort(half)
	for i := 1; i < len(half); i++ {
		if half[i] == half[i-1]|1 && half[i-1]&1 == 0 {
			return true
		}
	}
	return false
}

// ballMask returns the W-word center mask of vertex x at the level whose
// combined ball list ends at cmbX[end] — nil, which meets no row, when x
// is in no center's ball — by a galloping search from cursor *j, which
// it leaves at x's place: the points of a level ask in ascending order.
func (sc *decodeScratch) ballMask(j *int, end int, x int32) []uint64 {
	if *j = gallop(sc.cmbX, *j, end, x); *j < end && sc.cmbX[*j] == x {
		return sc.cmbM[*j*sc.maskWords:][:sc.maskWords]
	}
	return nil
}

// gallop returns the first index in [j, end) of the ascending xs whose
// value is not below x (end if none): a doubling probe from j, then a
// binary search of the last step. The points of a level ask in ascending
// order, each a short way past the one before.
func gallop(xs []int32, j, end int, x int32) int {
	step := 1
	for j+step < end && xs[j+step] < x {
		j, step = j+step, step<<1
	}
	i, _ := slices.BinarySearch(xs[j:min(j+step, end)], x)
	return j + i
}

// selfEdgePoint reports whether owner v's label draws a self edge to the
// ball point pe at a level of protected radius lambda.
func selfEdgePoint(pe PointEntry, lambda int32, v int32) bool {
	return pe.D <= lambda && pe.X != v
}

// ompbRows fills ompbW — for every (owner, level), the bitmask over
// centers of mayBeInPB certificates: the triangle-inequality test
// deciding whether the owner vertex itself could sit inside a protected
// ball. An owner-ball edge to point i then dies iff mask(i) AND
// row(owner,level) has any bit set.
//
// The rows of s and t are endRow's, found once per decode.
func (sc *decodeScratch) ompbRows(owners []*Label) {
	numLevels, W := sc.numLevels, sc.maskWords
	n := len(owners) * numLevels * W
	if cap(sc.ompbW) < n {
		sc.ompbW = make([]uint64, n)
	}
	rows := sc.ompbW[:n]
	for oi, o := range owners {
		for k := 0; k < numLevels; k++ {
			row := rows[(oi*numLevels+k)*W:][:W]
			switch o {
			case sc.ends[0]:
				copy(row, sc.endRow(0, k))
			case sc.ends[1]:
				copy(row, sc.endRow(1, k))
			default:
				sc.fillRow(row, o, k)
			}
		}
	}
}

// fillRow sets row to owner o's mayBeInPB row at level index k: bit fi
// for every center fi whose protected ball o may lie in. Whether o is a
// net point of the level is asked once, not once per center: if it is,
// membership is exact and the row is o's own combined-ball mask.
func (sc *decodeScratch) fillRow(row []uint64, o *Label, k int) {
	clear(row)
	level := sc.lowest + k
	if d, ok := o.DistTo(level, o.V); ok && d == 0 {
		j := int(sc.cmbOff[k])
		copy(row, sc.ballMask(&j, int(sc.cmbOff[k+1]), o.V))
		return
	}
	for fi, f := range sc.centers {
		if mayBeInPBVia(o, f, level, sc.nearest[fi*sc.numLevels+k]) {
			row[fi>>6] |= 1 << (fi & 63)
		}
	}
}

// setEnds makes s and t of q the decode's ends, their rows not yet found.
func (sc *decodeScratch) setEnds(q *Query) {
	sc.ends, sc.endRowsDone = [2]*Label{q.S, q.T}, [2]uint64{}
	if n := 2 * sc.numLevels * sc.maskWords; sc.rule >= admitFused {
		sc.endRows = slices.Grow(sc.endRows[:0], n)[:n]
	}
}

// endRow is the mayBeInPB row at level index k of s (side 0) or t (side
// 1) of the decode, ends: filled on first use — by the certificate or the
// pair's scan — and kept until the next decode.
func (sc *decodeScratch) endRow(side, k int) []uint64 {
	W := sc.maskWords
	row := sc.endRows[(side*sc.numLevels+k)*W:][:W]
	if bit := uint64(1) << k; sc.endRowsDone[side]&bit == 0 {
		sc.fillRow(row, sc.ends[side], k)
		sc.endRowsDone[side] |= bit
	}
	return row
}

// scanOwners walks the given owners' levels in order, appending each
// admissible stored edge to the pass's candidates under dense endpoint
// ids, and reports whether the budget — room candidates — cut the walk
// short.
//
// Budget and trace are accounted around the edge loops, not inside them:
// an owner level may scan as many candidates as the budget has room
// left, so its edge list is truncated to that bound up front (exhausted
// iff something was cut off), and the tallies are differences — admitted
// is the growth of the candidate list across the level, rejected the
// rest of what was scanned. A budgeted or traced decode therefore runs
// the same loops as the serving path.
//
// Admission of a stored edge {x,y} at level ℓ reads (ℓ, x, y, F) and
// nothing of the owner, so an edge list that was already walked — in
// this pass or in the run the decode solves beside; the same array, cut
// to the same length, over the same net points — can only re-emit
// candidates H already has. Such a list is charged and tallied as if
// scanned (seenBefore) and not walked; the sketch, the walk, exhausted
// and the trace come out the same.
//
// A level the owner's label leaves to its level graphs (a label
// materialised from its balls) is read off the level graph's rows
// (levelEdges) in the stored (XI, YI) order and walked like any other
// list. It has no array to be recognised by: the same level graphs over
// the same point ids are the same list (seenInduced), so an earlier full
// walk of it is found before it is read at all.
//
// The level edge lists of owner late are not walked, nor recorded as
// walked; the owners' self edges are walked only with selfEdges.
func (sc *decodeScratch) scanOwners(owners []*Label, room int, late *Label, selfEdges bool) (exhausted bool) {
	lowest, numLevels, rule, W := sc.lowest, sc.numLevels, sc.rule, sc.maskWords
	if rule >= admitFused && selfEdges {
		sc.ompbRows(owners)
	}
	tally := &sc.tally
	cands := sc.cands
	for oi, o := range owners {
		oForbidden := containsSorted(sc.fvList, o.V)
		for k := 0; k < numLevels; k++ {
			lv := &o.Levels[k]
			pts := lv.Points
			before := len(cands)
			// first is an earlier scan of this very list; one the label
			// leaves to its level graphs is looked for before it is read
			// off their rows.
			var edges []EdgeEntry
			var first *scannedList
			induced, cut := o != late && !o.HoldsEdges(k), false
			switch {
			case o == late:
			case !induced:
				edges = lv.Edges
			default:
				if first = sc.seenInduced(k, o.graphs, pts, room); first == nil {
					edges = o.levelEdges(k, &sc.ball, &sc.rowEdges)
				}
			}
			if len(edges) > room {
				edges, exhausted, cut = edges[:room], true, true
			}
			if !induced {
				first = sc.seenBefore(k, pts, edges)
			}
			scanned := len(edges)
			if first != nil {
				scanned = first.n
			}
			// reused counts the candidates an earlier scan of this very
			// list admitted; a list walked now numbers its points in pid.
			// A list whose edges are walked now has its masks merged in
			// whole; otherwise only self-edge points are tested, each
			// looked up (ballMask).
			reused := 0
			self := selfEdges && !oForbidden
			forb := sc.fillForb(pts)
			var msk []uint64
			if rule >= admitFused && first == nil && len(edges) > 0 {
				msk = sc.fillMasks(pts, k, W)
			}
			if first == nil {
				sc.pid = slices.Grow(sc.pid[:0], len(pts))[:len(pts)]
				for i := range sc.pid {
					sc.pid[i] = -1
				}
			}
			pid := sc.pid

			switch {
			case first != nil:
				reused = first.admitted
				tally.skipped++
			case k == 0:
				// Unit-weight original graph edges: admitted when neither
				// endpoint nor the edge itself is forbidden. Forbidden-edge
				// keys ascend along the (XI,YI)-sorted edge list, so one
				// merge cursor joins them against the sorted feList.
				fe := sc.feList
				fj := 0
				var prevKey uint64
				for _, e := range edges {
					if forb[e.XI] || forb[e.YI] {
						continue
					}
					if len(fe) > 0 {
						key := uint64(uint32(pts[e.XI].X))<<32 | uint64(uint32(pts[e.YI].X))
						hit := false
						if key >= prevKey {
							for fj < len(fe) && fe[fj] < key {
								fj++
							}
							hit = fj < len(fe) && fe[fj] == key
							prevKey = key
						} else {
							hit = containsSorted(fe, key)
						}
						if hit {
							continue
						}
					}
					cands = append(cands, graph.DenseEdge{U: sc.pointID(pid, pts, e.XI), V: sc.pointID(pid, pts, e.YI), W: e.D})
				}
			case rule == admitNone:
				// Nothing survives; the edges were only counted.
			case rule == admitUnforbidden:
				for _, e := range edges {
					if forb[e.XI] || forb[e.YI] {
						continue
					}
					cands = append(cands, graph.DenseEdge{U: sc.pointID(pid, pts, e.XI), V: sc.pointID(pid, pts, e.YI), W: e.D})
				}
			case rule == admitFused:
				// The edge list is sorted by (XI,YI), so consecutive edges
				// share XI in long runs and the left word is hoisted out of
				// the run.
				sc.fillLR(msk, forb)
				cands = sc.admitFused(cands, edges, pts, pid)
			case rule == admitWord:
				// The edge dies iff some center's ball covers both
				// endpoints — one AND of the two per-point masks.
				for _, e := range edges {
					if forb[e.XI] || forb[e.YI] || msk[e.XI]&msk[e.YI] != 0 {
						continue
					}
					cands = append(cands, graph.DenseEdge{U: sc.pointID(pid, pts, e.XI), V: sc.pointID(pid, pts, e.YI), W: e.D})
				}
			default:
				for _, e := range edges {
					if forb[e.XI] || forb[e.YI] || wordsMeet(msk[int(e.XI)*W:][:W], msk[int(e.YI)*W:][:W]) {
						continue
					}
					cands = append(cands, graph.DenseEdge{U: sc.pointID(pid, pts, e.XI), V: sc.pointID(pid, pts, e.YI), W: e.D})
				}
			}
			switch {
			case first != nil || len(edges) == 0:
			case !induced:
				sc.scanned[k] = append(sc.scanned[k], scannedList{pts: pts, edges: edges, n: len(edges), admitted: len(cands) - before})
			case !cut:
				sc.scanned[k] = append(sc.scanned[k], scannedList{pts: pts, graphs: o.graphs, n: len(edges), admitted: len(cands) - before})
			}

			// Edges from the labeled vertex itself to nearby points
			// ("between v and the net-points"), protected-ball checked at
			// every level. A forbidden owner's self edges always fail the
			// check (the owner sits at the center of its own protected
			// ball), so skip them outright. Which points qualify is only
			// known point by point, so this loop counts what it scans.
			// The owner's own id is looked up on its first admitted self
			// edge, so an owner without one adds no vertex to H.
			if self {
				// row stays nil, and no mask is read, when no center's
				// ball may hold the owner.
				oid := int32(-1)
				var row []uint64
				var j, end int
				if rule >= admitFused {
					if row = sc.ompbW[(oi*numLevels+k)*W:][:W]; !wordsMeet(row, row) {
						row = nil
					}
					j, end = int(sc.cmbOff[k]), int(sc.cmbOff[k+1])
				}
				lambda := lambdaOf(lowest + k)
				left, n := room-scanned, 0
				for i, pe := range pts {
					if !selfEdgePoint(pe, lambda, o.V) {
						continue
					}
					if n == left {
						exhausted = true
						break
					}
					n++
					switch {
					case forb[i]:
						continue
					case rule == admitNone:
						// Only an actual graph edge (weight 1) that is not
						// itself forbidden survives verbatim in G\F.
						if pe.D != 1 || containsSorted(sc.feList, unorderedKey(o.V, pe.X)) {
							continue
						}
					case row != nil:
						m := msk
						if m != nil {
							m = m[i*W:][:W]
						} else {
							m = sc.ballMask(&j, end, pe.X)
						}
						if wordsMeet(m, row) {
							continue
						}
					}
					if oid < 0 {
						oid = sc.vertexID(o.V)
					}
					y := int32(0)
					if first == nil {
						y = sc.pointID(pid, pts, int32(i))
					} else {
						y = sc.vertexID(pe.X)
					}
					cands = append(cands, graph.DenseEdge{U: oid, V: y, W: pe.D})
				}
				scanned += n
			}

			room -= scanned
			if len(cands) > before {
				sc.levels = append(sc.levels, levelRun{end: len(cands), lv: int32(lowest + k)})
			}
			admitted := len(cands) - before + reused
			tally.admitted[k] += admitted
			tally.rejected[k] += scanned - admitted
		}
	}
	sc.cands = cands
	return exhausted
}

// admitFused is scanOwners' edge loop under the admitFused rule, a call
// of its own so that it keeps its values in registers. Edges share XI in
// long runs: the left word and id are hoisted out of the run.
func (sc *decodeScratch) admitFused(cands []graph.DenseEdge, edges []EdgeEntry, pts []PointEntry, pid []int32) []graph.DenseEdge {
	mL, mR := sc.maskL, sc.maskR
	for a := 0; a < len(edges); {
		xi := edges[a].XI
		lx, u := mL[xi], int32(-1)
		for ; a < len(edges) && edges[a].XI == xi; a++ {
			yi := edges[a].YI
			if lx&mR[yi] != 0 {
				continue
			}
			if u < 0 {
				u = sc.pointID(pid, pts, xi)
			}
			cands = append(cands, graph.DenseEdge{U: u, V: sc.pointID(pid, pts, yi), W: edges[a].D})
		}
	}
	return cands
}

// pointID returns the dense id of point i of the owner level pid
// numbers: one array read after the point's first admitted edge.
func (sc *decodeScratch) pointID(pid []int32, pts []PointEntry, i int32) int32 {
	if id := pid[i]; id >= 0 {
		return id
	}
	return sc.firstPointID(pid, pts, i)
}

// firstPointID is pointID's lookup, out of line so that pointID inlines.
//
//go:noinline
func (sc *decodeScratch) firstPointID(pid []int32, pts []PointEntry, i int32) int32 {
	id := sc.vertexID(pts[i].X)
	pid[i] = id
	return id
}

// vertexID returns the dense id of vertex v in the decode's sketch: the
// one the run it solves beside gave it, else the one this pass did or now
// does.
func (sc *decodeScratch) vertexID(v int32) int32 {
	if sc.beside != nil {
		if id, ok := sc.beside.idOf.lookup(v); ok {
			return id
		}
	}
	id, ok := sc.idOf.getOrPut(v, int32(len(sc.ids)))
	if !ok {
		sc.ids = append(sc.ids, v)
	}
	return id
}

// scannedList is an owner level's edge list as scanOwners walked it —
// after the budget cut, so a truncated walk only ever matches the same
// truncation — with the points its indices refer to, its n edges and the
// number of candidates the walk admitted. A list a label holds is known
// by its array (edges); one read off the rows of level graphs, walked in
// full, by those level graphs (graphs) and its points.
type scannedList struct {
	pts         []PointEntry
	edges       []EdgeEntry
	graphs      *LevelGraphs
	n, admitted int
}

// seenBefore returns the earlier scan at level index k of this same held
// edge list, by this pass or by the run beside it: the same backing array
// and length, over points with the same ids. Identity, not equality —
// comparing contents would touch the very memory the skip exists to leave
// alone — but the ids are compared one by one, because two hand-built
// labels may alias one Edges array over different points.
func (sc *decodeScratch) seenBefore(k int, pts []PointEntry, edges []EdgeEntry) *scannedList {
	if len(edges) == 0 {
		return nil
	}
	return sc.findScanned(k, pts, func(s *scannedList) bool {
		return len(s.edges) == len(edges) && &s.edges[0] == &edges[0]
	})
}

// seenInduced returns the earlier full scan at level index k of the list
// graphs induce on the points pts, when a walk within room would not be
// cut: the same level graphs and point ids make the same list.
func (sc *decodeScratch) seenInduced(k int, graphs *LevelGraphs, pts []PointEntry, room int) *scannedList {
	return sc.findScanned(k, pts, func(s *scannedList) bool { return s.graphs == graphs && s.n <= room })
}

// findScanned returns the first scan at level index k, by this pass or
// the run beside it, over points with the ids of pts that same accepts.
func (sc *decodeScratch) findScanned(k int, pts []PointEntry, same func(*scannedList) bool) *scannedList {
	for _, p := range [2]*scanPass{&sc.scanPass, sc.beside} {
		if p == nil {
			break
		}
	next:
		for i := range p.scanned[k] {
			s := &p.scanned[k][i]
			if len(s.pts) != len(pts) || !same(s) {
				continue
			}
			for j := range pts {
				if pts[j].X != s.pts[j].X {
					continue next
				}
			}
			return s
		}
	}
	return nil
}

// wordsMeet reports whether two equally long center bitmasks share a set
// bit: some center's protected ball covers both things they describe.
func wordsMeet(a, b []uint64) bool {
	for w := range a {
		if a[w]&b[w] != 0 {
			return true
		}
	}
	return false
}

// sketchEdges derives H from the candidates of the last decode — the run
// it solved beside and its own pass: sorted by vertex pair and reduced to
// one edge per pair, at the lightest weight and the lowest level any
// candidate for the pair was admitted with. Only a trace, Query.Sketch
// and tests ask; the result is scratch-owned and valid until the next
// call or decode.
func (sc *decodeScratch) sketchEdges() []SketchEdge {
	sc.byKey = sc.byKey[:0]
	for _, p := range []*scanPass{sc.beside, &sc.scanPass} {
		if p == nil {
			continue
		}
		i := 0
		for _, run := range p.levels {
			for ; i < run.end; i++ {
				c := p.cands[i]
				sc.byKey = append(sc.byKey, sketchCand{key: unorderedKey(sc.ids[c.U], sc.ids[c.V]), w: c.W, lv: run.lv})
			}
		}
	}
	sc.sortCandsByKey()
	sc.edges = sc.edges[:0]
	for i := 0; i < len(sc.byKey); {
		best := sc.byKey[i]
		for i++; i < len(sc.byKey) && sc.byKey[i].key == best.key; i++ {
			best.w, best.lv = min(best.w, sc.byKey[i].w), min(best.lv, sc.byKey[i].lv)
		}
		sc.edges = append(sc.edges, SketchEdge{X: int32(best.key >> 32), Y: int32(best.key), W: int64(best.w), Level: int(best.lv)})
	}
	return sc.edges
}

// solve hands the candidates to the solver and runs Dijkstra — until t
// is settled, or its tentative distance reaches bound. It returns -1 when
// t is unreachable. With from > 0 the last solve, which settled t or ran
// dry, goes on with the candidates from there on added.
func (sc *decodeScratch) solve(bound int64, from int) int64 {
	var run *graph.Arcs
	if sc.beside != nil {
		run = &sc.runArcs
	}
	var dist int64
	if from > 0 {
		dist = sc.solver.Resume(sc.ids, sc.dst, run, sc.cands, from, bound)
	} else {
		dist = sc.solver.ShortestPath(sc.ids, sc.src, sc.dst, run, sc.cands, bound)
	}
	if dist == graph.WeightedInfinity {
		return -1
	}
	return dist
}

// fillForb marks which points of pts are forbidden vertices, by merging
// the strictly ascending point list against the sorted fvList. The
// returned flags are scratch-owned and valid until the next call.
func (sc *decodeScratch) fillForb(pts []PointEntry) []bool {
	if cap(sc.forb) < len(pts) {
		sc.forb = make([]bool, len(pts))
	}
	fb := sc.forb[:len(pts)]
	clear(fb)
	if len(sc.fvList) == 0 {
		return fb
	}
	i := 0
	for _, fv := range sc.fvList {
		for i < len(pts) && pts[i].X < fv {
			i++
		}
		if i == len(pts) {
			break
		}
		if pts[i].X == fv {
			fb[i] = true
			i++
		}
	}
	return fb
}

// The fused-mask sentinel bits: bitG is set in every maskL word and in
// maskR only for forbidden points; bitF is the mirror image. The AND of
// maskL[x] and maskR[y] therefore picks up bitG exactly when y is
// forbidden and bitF exactly when x is, on top of any shared
// protected-ball bits — one word test for the whole rejection predicate.
// Using them costs the top two mask bits, so the fused path requires at
// most 62 centers.
const (
	maskBitF = uint64(1) << 62
	maskBitG = uint64(1) << 63
)

// fillLR derives the fused admission masks from the pure membership
// masks and the forbidden flags of one owner level (W must be 1).
func (sc *decodeScratch) fillLR(msk []uint64, forb []bool) {
	if cap(sc.maskL) < len(msk) {
		sc.maskL = make([]uint64, len(msk))
		sc.maskR = make([]uint64, len(msk))
	}
	sc.maskL = sc.maskL[:len(msk)]
	sc.maskR = sc.maskR[:len(msk)]
	for i, m := range msk {
		l, r := m|maskBitG, m|maskBitF
		if forb[i] {
			l |= maskBitF
			r |= maskBitG
		}
		sc.maskL[i] = l
		sc.maskR[i] = r
	}
}

// fillMasks materializes the bit-parallel protected-ball membership of
// one owner level: for each point i of pts, a W-word mask whose bit fi
// says point i lies inside PB_ℓ(center fi) — one sorted merge of the
// strictly ascending point list against the level's combined ball list
// (see buildBallMasks). The returned words are scratch-owned and
// valid until the next call.
func (sc *decodeScratch) fillMasks(pts []PointEntry, k int, W int) []uint64 {
	need := len(pts) * W
	if cap(sc.mask) < need {
		sc.mask = make([]uint64, need)
	}
	m := sc.mask[:need]
	clear(m)
	i := 0
	for j := int(sc.cmbOff[k]); j < int(sc.cmbOff[k+1]); j++ {
		x := sc.cmbX[j]
		for i < len(pts) && pts[i].X < x {
			i++
		}
		if i == len(pts) {
			break
		}
		if pts[i].X == x {
			copy(m[i*W:(i+1)*W], sc.cmbM[j*W:(j+1)*W])
			i++
		}
	}
	return m
}

// appendHPath maps the winning dense-id path of the last decode onto
// global vertex ids, appending to out. Must only be called right after a
// decode of q that returned a nonnegative distance.
func (sc *decodeScratch) appendHPath(q *Query, out []int32) []int32 {
	if q.S.V == q.T.V {
		return append(out, q.S.V)
	}
	sc.hpath = sc.solver.PathTo(sc.src, sc.dst, sc.hpath[:0])
	for _, hv := range sc.hpath {
		out = append(out, sc.ids[hv])
	}
	return out
}

// containsSorted reports whether the ascending slice s contains v.
func containsSorted[T cmp.Ordered](s []T, v T) bool {
	_, ok := slices.BinarySearch(s, v)
	return ok
}

// mayBeInPB conservatively decides whether the owner vertex of label o
// could lie inside the level-ℓ protected ball of center f, using label data
// only. It returns false only when d(o,f) > λ_ℓ is provable:
//
//   - if o is itself a net point of the level, membership is exact via
//     f's label (absence from f's ball list means d > r_ℓ > λ_ℓ);
//   - otherwise, let m be f's nearest net point of the level (d(f,m) ≤
//     2^{ℓ-c-1}−1, present in f's list). By the triangle inequality
//     d(o,f) ≥ d(o,m) − d(f,m), and d(o,m) is exact in o's list (absence
//     means d(o,m) > r_ℓ, hence d(o,f) > r_ℓ − 2^{ℓ-c-1} > λ_ℓ).
//
// The certificate is sound always, and complete whenever d(o,F) > μ_ℓ —
// which is precisely when the stretch analysis requires owner edges to be
// admitted (μ_ℓ − 2·(2^{ℓ-c-1}−1) = λ_ℓ + 2 > λ_ℓ).
func mayBeInPB(o, f *Label, level int) bool {
	if d, ok := o.DistTo(level, o.V); ok && d == 0 {
		return f.InProtectedBall(level, o.V)
	}
	return mayBeInPBVia(o, f, level, nearestNetPoint(f, level))
}

// nearestNetPoint returns the entry of f's level-ℓ ball nearest to f (the
// first such in id order), or X = -1 when f has no such level or an
// empty ball there.
func nearestNetPoint(f *Label, level int) PointEntry {
	k := level - f.C - 1
	if k < 0 || k >= len(f.Levels) || len(f.Levels[k].Points) == 0 {
		return PointEntry{X: -1}
	}
	pts := f.Levels[k].Points
	m := pts[0]
	for _, pe := range pts[1:] {
		if pe.D < m.D {
			m = pe
		}
	}
	return m
}

// mayBeInPBVia is mayBeInPB for an o that is not a net point of the
// level, given m = nearestNetPoint(f, level).
func mayBeInPBVia(o, f *Label, level int, m PointEntry) bool {
	lambda := lambdaOf(level)
	if m.X < 0 {
		return true
	}
	do, ok := o.DistTo(level, m.X)
	if !ok {
		// m is outside o's level ball, so d(o,m) > r_ℓ and hence
		// d(o,f) > r_ℓ − d(f,m). With the paper's radii this certifies
		// "outside"; with ablation-shrunk radii it may not, in which case
		// stay conservative.
		r := labelBallRadius(o.C, level, o.RShrink)
		return r-m.D <= lambda
	}
	return do-m.D <= lambda
}

// labelBallRadius reconstructs the r_ℓ a label was extracted with from its
// self-described parameters.
func labelBallRadius(c, level, rShrink int) int32 {
	p := Params{C: c, RShrink: rShrink}
	return p.R(level)
}

func unorderedKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}
