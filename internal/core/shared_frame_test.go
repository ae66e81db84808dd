package core

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"fsdl/internal/graph"
)

// This file tests the shared fault frame (Frame, Opts.Frame): built
// once and frozen, decoded beside by any number of Decoders at once, each
// answer the one a fresh Decoder and referenceDecode give.

// sharedWant is what one pair of a batch must give beside a shared frame:
// what a Decoder that has seen nothing gives, held to referenceDecode.
type sharedWant struct {
	q      *Query
	framed bool // the budget covers the frame's run
	lean   Result
	res    Result
	path   []int32
	dist   int64
	exh    bool
	tr     Trace
	edges  []SketchEdge
}

// TestSharedFrameConcurrent decodes each fault side of the batch corpus
// (newFrameBatch: vertex, edge, mixed, degraded and ablated sides, every
// other one patched) beside one Frame from four goroutines at once — δ
// alone, with its walk, and traced with its sketch, under budgets that do
// and do not cover the frame — and holds every answer to a fresh
// Decoder's and referenceDecode's. Under -race this is the proof that no
// decode writes to a shared frame; after it the frame is as NewFrame left
// it.
func TestSharedFrameConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"ring256", ringLattice(t, 256)},
		{"grid12x10", gridGraph(t, 12, 10)},
		{"rand140", randomConnected(t, 140, 70, rng)},
	}
	if raceEnabled {
		graphs = graphs[:1]
	}
	for _, gc := range graphs {
		s, err := BuildScheme(gc.g, 2)
		if err != nil {
			t.Fatal(err)
		}
		s.SetCacheLimit(4096)
		for ki, kind := range []string{"vertex", "edge", "mixed", "degraded", "ablated"} {
			for ni, nf := range []int{0, 1, 4, 16} {
				b := newFrameBatch(t, rng, gc.g, s, kind, nf, (ki+ni)%2 == 0)
				t.Run(gc.name+"/"+b.name, func(t *testing.T) {
					wants := sharedWants(t, s, b)
					f := NewFrame(wants[0].q, b.patches)
					before := frameSnapshot(f)
					var wg sync.WaitGroup
					for w := 0; w < 4; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							dec := NewDecoder()
							defer dec.Release()
							for round := 0; round < 2; round++ {
								for j := range wants {
									if !checkBesideShared(t, dec, f, wants[(j+w)%len(wants)], b.patches) {
										return
									}
								}
								dec.Release() // the frame stays as it was
							}
						}(w)
					}
					wg.Wait()
					if after := frameSnapshot(f); !reflect.DeepEqual(after, before) {
						t.Errorf("decodes beside the frame changed it:\n got %+v\nwant %+v", after, before)
					}
				})
			}
		}
	}
}

// sharedWants decodes every pair of b on fresh Decoders, with a budget
// per pair — none, ample, exact, one short, none, ending inside the fault
// owners, none, none — and holds δ, the sketch, the trace and the walk to
// referenceDecode.
func sharedWants(t *testing.T, s *Scheme, b *frameBatch) []sharedWant {
	t.Helper()
	var wants []sharedWant
	for i := range b.pairs {
		total, pair := frameWork(b.query(s, i, 0), b.patches)
		budget := []int{0, total + 7, total, total - 1, 0, pair + (total-pair)/2, 0, 0}[i]
		w := sharedWant{q: b.query(s, i, max(budget, 0))}
		w.framed = w.q.Budget == 0 || w.q.Budget >= total
		var dec Decoder
		w.lean = dec.Decode(w.q, Opts{Patches: b.patches})
		dec.Release()
		w.res = dec.Decode(w.q, Opts{Patches: b.patches, Path: &w.path})
		dec.Release()
		var err error
		if w.dist, w.exh, err = dec.scratch().decode(w.q, Opts{Patches: b.patches, Trace: &w.tr}); err != nil {
			t.Fatalf("pair %d: %v", i, err)
		}
		w.edges = slices.Clone(dec.scratch().sketchEdges())
		dec.Release()
		var rtr Trace
		rDist, rEdges, _, rExh, err := referenceDecode(w.q, &rtr, b.patches...)
		if err != nil {
			t.Fatalf("pair %d: reference: %v", i, err)
		}
		if w.dist != rDist || w.exh != rExh || !reflect.DeepEqual(w.edges, rEdges) || !reflect.DeepEqual(maskTrace(w.tr), rtr) {
			t.Fatalf("pair %d: a fresh Decoder (δ=%d, exhausted=%v) is not the reference's (%d, %v)", i, w.dist, w.exh, rDist, rExh)
		}
		if w.lean.OK != w.res.OK || w.lean.Dist != w.res.Dist {
			t.Fatalf("pair %d: δ alone %+v, with its walk %+v", i, w.lean, w.res)
		}
		wants = append(wants, w)
	}
	return wants
}

// checkBesideShared decodes w's query on dec, handing it f: δ alone, with
// its walk and traced, each as a fresh Decoder does, and the traced
// decode beside f exactly when its budget covers the frame's run. It
// reports whether all held.
func checkBesideShared(t *testing.T, dec *Decoder, f *Frame, w sharedWant, patches []PatchEdge) bool {
	t.Helper()
	q := w.q
	if got := dec.Decode(q, Opts{Patches: patches, Frame: f}); !reflect.DeepEqual(got, w.lean) {
		t.Errorf("%d→%d: δ alone %+v beside the shared frame, %+v fresh", q.S.V, q.T.V, got, w.lean)
		return false
	}
	if dec.scratch().faultFrame != f.fr {
		t.Errorf("%d→%d: the decode did not run under the shared frame", q.S.V, q.T.V)
		return false
	}
	var path []int32
	if res := dec.Decode(q, Opts{Patches: patches, Frame: f, Path: &path}); !reflect.DeepEqual(res, w.res) || !slices.Equal(path, w.path) {
		t.Errorf("%d→%d: path decode %+v %v beside the shared frame, %+v %v fresh", q.S.V, q.T.V, res, path, w.res, w.path)
		return false
	}
	var tr Trace
	dist, exh, err := dec.scratch().decode(q, Opts{Patches: patches, Trace: &tr, Frame: f})
	if err != nil {
		t.Error(err)
		return false
	}
	if edges := dec.scratch().sketchEdges(); dist != w.dist || exh != w.exh || !reflect.DeepEqual(edges, w.edges) || !reflect.DeepEqual(maskTrace(tr), maskTrace(w.tr)) {
		t.Errorf("%d→%d: traced decode beside the shared frame (δ=%d, exhausted=%v, %d edges, walk %v), fresh (%d, %v, %d edges, walk %v)",
			q.S.V, q.T.V, dist, exh, len(edges), tr.Path, w.dist, w.exh, len(w.edges), w.tr.Path)
		return false
	}
	if tr.FrameReused != w.framed {
		t.Errorf("%d→%d (budget %d): FrameReused=%v beside the shared frame, want %v", q.S.V, q.T.V, q.Budget, tr.FrameReused, w.framed)
		return false
	}
	return true
}

// frameShape is a copy of what a frozen frame holds: its key, what it
// derived from F, and its run.
type frameShape struct {
	keyed, runBuilt, collapsed bool
	frameCost                  int
	vf                         []*Label
	ef                         [][2]*Label
	patches                    []PatchEdge
	owners, centers            []*Label
	fv                         []int32
	fe, patchKeys              []uint64
	cmbX                       []int32
	cmbM                       []uint64
	cands                      []graph.DenseEdge
	ids                        []int32
	scanned                    int
}

// arcsCollapsed reports whether a has been collapsed since its last Pack
// (graph keeps the flag to itself).
func arcsCollapsed(a *graph.Arcs) bool {
	return reflect.ValueOf(a).Elem().FieldByName("collapsed").Bool()
}

func frameSnapshot(f *Frame) frameShape {
	fr := f.fr
	sh := frameShape{
		keyed: fr.keyed, runBuilt: fr.runBuilt, collapsed: arcsCollapsed(&fr.runArcs), frameCost: fr.frameCost,
		vf: slices.Clone(fr.vfKey), ef: slices.Clone(fr.efKey), patches: slices.Clone(fr.patchKey),
		owners: slices.Clone(fr.frameOwners), centers: slices.Clone(fr.centers),
		fv: slices.Clone(fr.fvList), fe: slices.Clone(fr.feList), patchKeys: slices.Clone(fr.patchKeys),
		cmbX: slices.Clone(fr.cmbX), cmbM: slices.Clone(fr.cmbM),
		cands: slices.Clone(fr.run.cands), ids: slices.Clone(fr.run.ids),
	}
	for _, lists := range fr.run.scanned {
		for _, l := range lists {
			if l.edges != nil {
				sh.scanned++
			}
		}
	}
	return sh
}

// TestNewFrameFrozen: NewFrame leaves nothing for a decode to finish — the
// run built, packed and collapsed, its budget cost counted, the build-only
// buffers gone — and refuses a fault side no decode would run beside.
func TestNewFrameFrozen(t *testing.T) {
	s, err := BuildScheme(ringLattice(t, 256), 2)
	if err != nil {
		t.Fatal(err)
	}
	s.SetCacheLimit(4096)
	q := &Query{S: s.Label(3), T: s.Label(120),
		VertexFaults: []*Label{s.Label(60), s.Label(200)},
		EdgeFaults:   [][2]*Label{{s.Label(90), s.Label(91)}}}
	f := NewFrame(q, patchesOf(s, [][2]int{{5, 118}}))
	fr := f.fr
	if !fr.keyed || !fr.runBuilt || !arcsCollapsed(&fr.runArcs) || fr.frameCost < 0 {
		t.Fatalf("keyed=%v runBuilt=%v collapsed=%v frameCost=%d: the frame is not frozen",
			fr.keyed, fr.runBuilt, arcsCollapsed(&fr.runArcs), fr.frameCost)
	}
	// What the ball masks are built with — the position maps and the
	// staging words — is the building scratch's: the frame keeps the
	// combined lists and nothing beside them.
	for _, name := range []string{"ball", "ballPos", "mask"} {
		if _, ok := reflect.TypeOf(faultFrame{}).FieldByName(name); ok {
			t.Errorf("a frame has a field %s for the ball masks' build buffers", name)
		}
	}
	if len(fr.cmbM) != len(fr.cmbX)*fr.maskWords || len(fr.cmbOff) != fr.numLevels+1 || len(fr.nearest) != len(fr.centers)*fr.numLevels {
		t.Errorf("ball masks of %d words for %d vertices (W=%d), %d offsets, %d pivots: not the frame's lists alone",
			len(fr.cmbM), len(fr.cmbX), fr.maskWords, len(fr.cmbOff), len(fr.nearest))
	}
	if total, pair := frameWork(q, patchesOf(s, [][2]int{{5, 118}})); fr.frameCost != total-pair {
		t.Errorf("frameCost %d, the frame owners' scan cost %d", fr.frameCost, total-pair)
	}

	wide, err := BuildScheme(ringLattice(t, 2048), 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]*Query{
		"no endpoint label":             {VertexFaults: q.VertexFaults},
		"a fault of another MaxLevel":   {S: q.S, T: q.T, VertexFaults: []*Label{wide.Label(60)}},
		"an edge fault that is invalid": {S: q.S, T: q.T, EdgeFaults: [][2]*Label{{q.S, {V: 4, C: q.S.C, MaxLevel: q.S.MaxLevel, RShrink: q.S.RShrink}}}},
	} {
		if f := NewFrame(bad, nil); f != nil {
			t.Errorf("%s: NewFrame built a frame", name)
		}
	}
}

// TestSharedFrameFallback: a decode whose fault side is not the shared
// frame's — the same faults under labels re-fetched as new pointers, other
// patches, another order, a degraded fault more, the ablation flag — runs
// under a frame of its own, built and then reused as without the shared
// one, and answers as a fresh Decoder does; the next decode of the
// frame's own fault side runs beside it again.
func TestSharedFrameFallback(t *testing.T) {
	s, err := BuildScheme(ringLattice(t, 256), 2)
	if err != nil {
		t.Fatal(err)
	}
	s.SetCacheLimit(4096)
	base := &Query{S: s.Label(3), T: s.Label(120),
		VertexFaults: []*Label{s.Label(60), s.Label(200)},
		EdgeFaults:   [][2]*Label{{s.Label(90), s.Label(91)}}}
	patches := patchesOf(s, [][2]int{{5, 118}})
	f := NewFrame(base, patches)
	for _, tc := range []struct {
		name    string
		q       *Query
		patches []PatchEdge
	}{
		{"re-fetched fault labels", mapQuery(base, func(l *Label) *Label {
			if l == base.S || l == base.T {
				return l
			}
			return unsharedLabel(l)
		}), patches},
		{"re-fetched patch labels", base, mapPatches(patches, unsharedLabel)},
		{"no patches", base, nil},
		{"another patch", base, patchesOf(s, [][2]int{{9, 40}})},
		{"reordered faults", &Query{S: base.S, T: base.T, VertexFaults: []*Label{base.VertexFaults[1], base.VertexFaults[0]}, EdgeFaults: base.EdgeFaults}, patches},
		{"a degraded fault more", &Query{S: base.S, T: base.T, VertexFaults: base.VertexFaults, EdgeFaults: base.EdgeFaults, DegradedVertexFaults: []int32{77}}, patches},
		{"the ablation flag", &Query{S: base.S, T: base.T, VertexFaults: base.VertexFaults, EdgeFaults: base.EdgeFaults, UnsafeIgnoreProtectedBalls: true}, patches},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if f.Matches(tc.q, tc.patches) {
				t.Fatal("the shared frame matches another fault side")
			}
			dec := NewDecoder()
			defer dec.Release()
			for i, want := range []bool{false, true} {
				if got := checkFramedDecode(t, dec, tc.q, tc.patches, f); got != want {
					t.Fatalf("decode %d: FrameReused=%v, want %v", i, got, want)
				}
				if sc := dec.scratch(); sc.faultFrame != &sc.own {
					t.Fatalf("decode %d ran under the shared frame", i)
				}
			}
			if !checkFramedDecode(t, dec, base, patches, f) || dec.scratch().faultFrame != f.fr {
				t.Fatal("the frame's own fault side did not run beside it")
			}
		})
	}
}

// TestSharedFrameRelease: Release hands the scratch back to the pool with
// its own frame cleared and the shared one as it was, and a Decoder that
// takes the scratch out again decodes beside the shared frame only when
// its decode is handed it.
func TestSharedFrameRelease(t *testing.T) {
	s, err := BuildScheme(gridGraph(t, 12, 10), 2)
	if err != nil {
		t.Fatal(err)
	}
	s.SetCacheLimit(4096)
	q := &Query{S: s.Label(0), T: s.Label(119),
		VertexFaults: []*Label{s.Label(30), s.Label(65)},
		EdgeFaults:   [][2]*Label{{s.Label(50), s.Label(51)}}}
	patches := patchesOf(s, [][2]int{{2, 117}})
	f := NewFrame(q, patches)
	before := frameSnapshot(f)
	dec := NewDecoder()
	for i := 0; i < 3; i++ {
		if !checkFramedDecode(t, dec, q, patches, f) {
			t.Fatalf("round %d: the decode did not run beside the shared frame", i)
		}
		sc := dec.scratch()
		dec.Release()
		if sc.faultFrame != &sc.own || sc.own.keyed {
			t.Fatalf("round %d: a released scratch still points at a frame", i)
		}
		if after := frameSnapshot(f); !reflect.DeepEqual(after, before) {
			t.Fatalf("round %d: Release changed the shared frame:\n got %+v\nwant %+v", i, after, before)
		}
		if checkFramedDecode(t, dec, q, patches, nil) {
			t.Fatalf("round %d: a decode not handed the frame after Release reused one", i)
		}
		dec.Release()
	}
}

// TestSharedFrameAllocs extends the allocation gates to decodes beside a
// shared frame: δ alone and with its walk, none allocates — a δ-only one
// whose certificate fails (faults 27 and 36), or holds (beside the frame
// of no faults), included.
func TestSharedFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unstable under -race (sync.Pool reuse is randomized)")
	}
	g := gridGraph(t, 8, 8)
	s, err := BuildScheme(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	var qs []*Query
	for _, p := range [][2]int{{0, 63}, {7, 56}, {1, 62}} {
		q, err := s.NewQuery(p[0], p[1], graph.FaultVertices(27, 36))
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	clean, err := s.NewQuery(7, 56, graph.NewFaultSet())
	if err != nil {
		t.Fatal(err)
	}
	mustCertify(t, "no faults", clean, true)
	mustCertify(t, "faults 27, 36", qs[1], false)
	patches := patchesOf(s, [][2]int{{2, 61}})
	f, fp, f0 := NewFrame(qs[0], nil), NewFrame(qs[0], patches), NewFrame(clean, nil)
	dec := NewDecoder()
	defer dec.Release()
	var buf []int32
	batch := func() {
		for _, q := range qs {
			dec.Decode(q, Opts{Frame: f})
			dec.Decode(q, Opts{})
			dec.Decode(q, Opts{Patches: patches, Frame: fp})
			buf = buf[:0]
			dec.Decode(q, Opts{Patches: patches, Frame: fp, Path: &buf})
		}
		dec.Decode(clean, Opts{Frame: f0})
	}
	batch() // size the scratch
	var tr Trace
	dec.Decode(qs[1], Opts{Trace: &tr, Frame: f})
	if sc := dec.scratch(); sc.faultFrame != f.fr || !tr.FrameReused {
		t.Fatal("the decodes did not run beside the shared frames")
	}
	if allocs := testing.AllocsPerRun(100, batch); allocs > 0 {
		t.Errorf("decodes beside a shared frame: %g allocs/op, want 0", allocs)
	}
	// Beside frames of 16 and of more than 64 protected-ball centers.
	wide := gridWideQueries(t)
	wf := []*Frame{NewFrame(wide[0], nil), NewFrame(wide[1], nil)}
	wideBatch := func() {
		for i, q := range wide {
			dec.Decode(q, Opts{Frame: wf[i]})
		}
	}
	wideBatch()
	if allocs := testing.AllocsPerRun(20, wideBatch); allocs > 0 {
		t.Errorf("grid24 decodes beside shared frames of 16 and 70 vertex faults: %g allocs/op, want 0", allocs)
	}
	// The same beside frames of the labels a factored container hands out.
	balls := ballsOnlyLabels(t, s)
	for i := range qs {
		qs[i] = mapQuery(qs[i], balls)
	}
	clean = mapQuery(clean, balls)
	patches = mapPatches(patches, balls)
	f, fp, f0 = NewFrame(qs[0], nil), NewFrame(qs[0], patches), NewFrame(clean, nil)
	batch()
	if allocs := testing.AllocsPerRun(100, batch); allocs > 0 {
		t.Errorf("decodes beside a shared frame of balls-only labels: %g allocs/op, want 0", allocs)
	}
}
