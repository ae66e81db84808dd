package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"fsdl/internal/graph"
)

// This file tests the fault frame (faultFrame, decode): a Decoder that is
// handed the same fault labels pair after pair must answer every pair
// exactly as a Decoder that has never seen them, and as referenceDecode.

// frameBatch is one fault side — what a fault frame is keyed on — and the
// pairs asked under it.
type frameBatch struct {
	name    string
	side    Query // the fault tiers and the ablation flag; S, T and Budget unset
	patches []PatchEdge
	chords  map[uint64]bool
	// owners are the frame owners' vertices: endpoints of forbidden and of
	// patched edges, which a pair may use as s or t, and forbidden
	// vertices, which it may not.
	owners    map[int32]bool
	forbidden map[int32]bool
	pairs     [][2]int
}

// newFrameBatch draws nf faults of the given kind and, when asked, three
// chords on g, then eight pairs: random ones, one whose s is an endpoint
// of a forbidden edge and one whose t is an endpoint of a patch.
func newFrameBatch(t *testing.T, rng *rand.Rand, g *graph.Graph, s *Scheme, kind string, nf int, patched bool) *frameBatch {
	t.Helper()
	n := g.NumVertices()
	b := &frameBatch{
		name:      fmt.Sprintf("%s/F=%d/patched=%v", kind, nf, patched),
		chords:    map[uint64]bool{},
		owners:    map[int32]bool{},
		forbidden: map[int32]bool{},
	}
	label := func(v int) *Label { return s.Label(v) }
	var edgeEnds, patchEnds []int
	addVertex := func() {
		for {
			if v := rng.Intn(n); !b.owners[int32(v)] {
				b.side.VertexFaults = append(b.side.VertexFaults, label(v))
				b.owners[int32(v)], b.forbidden[int32(v)] = true, true
				return
			}
		}
	}
	addEdge := func() {
		for {
			u := rng.Intn(n)
			nb := g.Neighbors(u)
			v := int(nb[rng.Intn(len(nb))])
			if b.forbidden[int32(u)] || b.forbidden[int32(v)] {
				continue
			}
			b.side.EdgeFaults = append(b.side.EdgeFaults, [2]*Label{label(u), label(v)})
			b.owners[int32(u)], b.owners[int32(v)] = true, true
			edgeEnds = append(edgeEnds, u, v)
			return
		}
	}
	for i := 0; i < nf; i++ {
		switch {
		case kind == "vertex", kind == "mixed" && i%2 == 0:
			addVertex()
		default:
			addEdge()
		}
	}
	switch kind {
	case "degraded":
		// No label for these two: maximal protected balls (admitNone).
		v := rng.Intn(n)
		b.side.DegradedVertexFaults = []int32{int32(v)}
		b.forbidden[int32(v)] = true
		u := rng.Intn(n)
		b.side.DegradedEdgeFaults = [][2]int32{{int32(u), g.Neighbors(u)[0]}}
	case "ablated":
		b.side.UnsafeIgnoreProtectedBalls = true
	}
	if patched {
		for len(b.patches) < 3 {
			u, v := rng.Intn(n), rng.Intn(n)
			// Admissible by construction, so scanLayout's owners are decode's.
			if u == v || g.HasEdge(u, v) || b.chords[unorderedKey(int32(u), int32(v))] || b.forbidden[int32(u)] || b.forbidden[int32(v)] {
				continue
			}
			b.chords[unorderedKey(int32(u), int32(v))] = true
			b.patches = append(b.patches, PatchEdge{U: label(u), V: label(v)})
			b.owners[int32(u)], b.owners[int32(v)] = true, true
			patchEnds = append(patchEnds, u, v)
		}
	}
	free := func() int {
		for {
			if v := rng.Intn(n); !b.forbidden[int32(v)] {
				return v
			}
		}
	}
	for i := 0; i < 8; i++ {
		src, dst := free(), free()
		if v := edgeEnds[rng.Intn(max(len(edgeEnds), 1)):]; i == 2 && len(v) > 0 && !b.forbidden[int32(v[0])] {
			src = v[0]
		}
		if i == 5 && len(patchEnds) > 0 {
			dst = patchEnds[rng.Intn(len(patchEnds))]
		}
		for dst == src {
			dst = free()
		}
		b.pairs = append(b.pairs, [2]int{src, dst})
	}
	return b
}

// query is pair i of the batch under the given budget.
func (b *frameBatch) query(s *Scheme, i, budget int) *Query {
	q := b.side
	q.S, q.T = s.Label(b.pairs[i][0]), s.Label(b.pairs[i][1])
	q.Budget = budget
	return &q
}

// frameWork is what scanning the owners of q costs a budget: in full, and
// the share of s and t.
func frameWork(q *Query, patches []PatchEdge) (total, pair int) {
	for _, seg := range scanLayout(q, patches) {
		total += seg.n
	}
	for _, seg := range scanLayout(&Query{S: q.S, T: q.T}, nil) {
		pair += seg.n
	}
	return total, pair
}

// maskTrace clears the two fields that tell how a sketch was put together
// and not what it is.
func maskTrace(tr Trace) Trace {
	tr.SharedLevelsSkipped, tr.FrameReused = 0, false
	return tr
}

// TestBatchMatchesFreshAndReference is the batch differential: grids,
// trees, ring lattices and random graphs × |F| ∈ {0,1,2,4,16,64,70} ×
// vertex, edge, mixed, degraded and ablated fault sides × patches × a
// budget per pair — none, ample, exact, one short, ending inside the
// fault owners, ending inside the pair. Eight pairs go through one
// Decoder, each traced and then again for its path, and every one must
// give the distance, exhausted flag, sketch, trace, Result and path that
// a Decoder which has seen nothing gives and that referenceDecode gives;
// and the frame must have been reused exactly when the rule in decode
// says so.
func TestBatchMatchesFreshAndReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid12x10", gridGraph(t, 12, 10)},
		{"tree150", randomConnected(t, 150, 0, rng)},
		{"ring256", ringLattice(t, 256)},
		{"rand140", randomConnected(t, 140, 70, rng)},
	}
	kinds := []string{"vertex", "edge", "mixed", "degraded", "ablated"}
	for _, gc := range graphs {
		s, err := BuildScheme(gc.g, 2)
		if err != nil {
			t.Fatal(err)
		}
		s.SetCacheLimit(4096) // one *Label per vertex for the whole test
		reuses, framedOwner, unframedBudget := 0, 0, 0
		for ki, kind := range kinds {
			for ni, nf := range []int{0, 1, 2, 4, 16, 64, 70} {
				// The wide-mask rules are the vertex/edge/mixed rows' business,
				// and under -race (one goroutine: nothing to find, 10× the time)
				// one graph's.
				if nf >= 64 && (kind == "degraded" || kind == "ablated" || testing.Short() || raceEnabled && gc.name != "ring256") {
					continue
				}
				patched := (ki+ni)%2 == 0
				b := newFrameBatch(t, rng, gc.g, s, kind, nf, patched)
				t.Run(gc.name+"/"+b.name, func(t *testing.T) {
					batch := NewDecoder()
					defer batch.Release()
					runBuilt := false
					for i := range b.pairs {
						total, pair := frameWork(b.query(s, i, 0), b.patches)
						budget := []int{0, total + 7, total, total - 1, pair + (total-pair)/2, pair / 2, 0, 0}[i]
						q := b.query(s, i, max(budget, 0))

						var want Trace
						wantDist, wantEdges, _, wantExh, err := referenceDecode(q, &want, b.patches...)
						if err != nil {
							t.Fatalf("pair %d: reference: %v", i, err)
						}
						fresh := NewDecoder()
						var ftr Trace
						fDist, fExh, err := fresh.scratch().decode(q, Opts{Patches: b.patches, Trace: &ftr})
						if err != nil {
							t.Fatalf("pair %d: fresh decode: %v", i, err)
						}
						fEdges := slices.Clone(fresh.scratch().sketchEdges())
						fresh.Release()
						fRes, fPath := fresh.DistanceRobustPatchedPath(q, b.patches, nil)
						fresh.Release()
						if ftr.FrameReused {
							t.Errorf("pair %d: a Decoder that has seen nothing reused a frame", i)
						}

						// What decode should do with the frame: its run is built
						// by the first decode whose budget covers it, and stands
						// for every later one whose budget does.
						isOwner := b.owners[int32(b.pairs[i][0])] || b.owners[int32(b.pairs[i][1])]
						framed := q.Budget == 0 || q.Budget >= total
						for pass := 0; pass < 2; pass++ {
							wantReused := framed && runBuilt
							runBuilt = runBuilt || framed
							if pass == 1 {
								res, path := batch.DistanceRobustPatchedPath(q, b.patches, nil)
								if !reflect.DeepEqual(res, fRes) || !slices.Equal(path, fPath) {
									t.Errorf("pair %d: path decode %+v %v, fresh Decoder %+v %v", i, res, path, fRes, fPath)
								}
								if res.OK != (wantDist >= 0) || res.OK && res.Dist != wantDist || res.BudgetExhausted != wantExh {
									t.Errorf("pair %d: path decode %+v, reference (δ=%d, exhausted=%v)", i, res, wantDist, wantExh)
								}
								if res.OK && !slices.Equal(path, want.Path) {
									t.Errorf("pair %d: path decode walks %v, the reference %v", i, path, want.Path)
								}
								if res.OK && budget == 0 && kind != "ablated" {
									f := graph.NewFaultSet()
									for _, l := range q.VertexFaults {
										f.AddVertex(int(l.V))
									}
									for _, e := range q.EdgeFaults {
										f.AddEdge(int(e[0].V), int(e[1].V))
									}
									for _, v := range q.DegradedVertexFaults {
										f.AddVertex(int(v))
									}
									for _, e := range q.DegradedEdgeFaults {
										f.AddEdge(int(e[0]), int(e[1]))
									}
									checkWalk(t, gc.g, f, b.chords, path, q.S.V, q.T.V, res.Dist)
								}
								continue
							}
							var tr Trace
							dist, exh, err := batch.scratch().decode(q, Opts{Patches: b.patches, Trace: &tr})
							if err != nil {
								t.Fatalf("pair %d: %v", i, err)
							}
							edges := batch.scratch().sketchEdges()
							if dist != wantDist || exh != wantExh || !reflect.DeepEqual(edges, wantEdges) {
								t.Errorf("pair %d (budget %d of %d): (δ=%d, exhausted=%v, %d edges), reference (%d, %v, %d edges)",
									i, q.Budget, total, dist, exh, len(edges), wantDist, wantExh, len(wantEdges))
							}
							if dist != fDist || exh != fExh || !reflect.DeepEqual(edges, fEdges) {
								t.Errorf("pair %d (budget %d of %d): (δ=%d, exhausted=%v, %d edges), fresh Decoder (%d, %v, %d edges)",
									i, q.Budget, total, dist, exh, len(edges), fDist, fExh, len(fEdges))
							}
							if got := maskTrace(tr); !reflect.DeepEqual(got, want) {
								t.Errorf("pair %d: trace diverges from the reference:\n got %+v\nwant %+v", i, got, want)
							}
							if !reflect.DeepEqual(maskTrace(tr), maskTrace(ftr)) {
								t.Errorf("pair %d: trace diverges from a fresh Decoder's:\n got %+v\nwant %+v", i, tr, ftr)
							}
							if tr.SharedLevelsSkipped != ftr.SharedLevelsSkipped {
								t.Errorf("pair %d: %d levels skipped, a fresh Decoder skips %d", i, tr.SharedLevelsSkipped, ftr.SharedLevelsSkipped)
							}
							if tr.FrameReused != wantReused {
								t.Errorf("pair %d (budget %d of %d, frame owner: %v): FrameReused=%v, want %v",
									i, q.Budget, total, isOwner, tr.FrameReused, wantReused)
							}
							if tr.FrameReused {
								reuses++
								if isOwner {
									framedOwner++
								}
							}
						}
						if i > 0 && q.Budget > 0 && q.Budget < total {
							unframedBudget++
						}
					}
				})
			}
		}
		if reuses == 0 || framedOwner == 0 || unframedBudget == 0 {
			t.Errorf("%s: %d decodes reused a frame, %d of them with a frame owner for an endpoint, and %d ran unframed for a short budget: the corpus misses a case",
				gc.name, reuses, framedOwner, unframedBudget)
		}
	}
}

// TestFrameInvalidation is the invalidation table: after a frame has been
// built and reused, each change to what it was keyed on must rebuild it —
// the next decode does not reuse, and builds the run anew for the ones
// after it. Then the sequences a stale packed run would survive: two
// fault sets whose runs have the same size, a budgeted single pass
// between framed decodes, and a scratch that goes to the pool and comes
// back. Every decode answers as a fresh Decoder and referenceDecode do,
// walk included.
func TestFrameInvalidation(t *testing.T) {
	g := ringLattice(t, 256)
	s, err := BuildScheme(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.SetCacheLimit(4096)
	wide, err := BuildScheme(ringLattice(t, 2048), 2) // two more levels
	if err != nil {
		t.Fatal(err)
	}
	if wide.Label(0).MaxLevel == s.Label(0).MaxLevel {
		t.Fatal("the two schemes have the same MaxLevel")
	}
	base := func() (*Query, []PatchEdge) {
		q := &Query{S: s.Label(3), T: s.Label(120),
			VertexFaults: []*Label{s.Label(60), s.Label(200)},
			EdgeFaults:   [][2]*Label{{s.Label(90), s.Label(91)}}}
		return q, patchesOf(s, [][2]int{{5, 118}})
	}
	cases := []struct {
		name   string
		change func(q *Query, patches []PatchEdge) (*Query, []PatchEdge)
	}{
		{"equal-content copy of one fault label", func(q *Query, p []PatchEdge) (*Query, []PatchEdge) {
			q.VertexFaults = []*Label{q.VertexFaults[0], unsharedLabel(q.VertexFaults[1])}
			return q, p
		}},
		{"equal-content copy of an edge fault's label", func(q *Query, p []PatchEdge) (*Query, []PatchEdge) {
			q.EdgeFaults = [][2]*Label{{q.EdgeFaults[0][0], unsharedLabel(q.EdgeFaults[0][1])}}
			return q, p
		}},
		{"reordered faults", func(q *Query, p []PatchEdge) (*Query, []PatchEdge) {
			slices.Reverse(q.VertexFaults)
			return q, p
		}},
		{"a fault removed", func(q *Query, p []PatchEdge) (*Query, []PatchEdge) {
			q.VertexFaults = q.VertexFaults[:1]
			return q, p
		}},
		{"a degraded fault added", func(q *Query, p []PatchEdge) (*Query, []PatchEdge) {
			q.DegradedVertexFaults = []int32{77}
			return q, p
		}},
		{"a degraded edge added", func(q *Query, p []PatchEdge) (*Query, []PatchEdge) {
			q.DegradedEdgeFaults = [][2]int32{{77, 78}}
			return q, p
		}},
		{"a patch added", func(q *Query, p []PatchEdge) (*Query, []PatchEdge) {
			return q, append(p, patchesOf(s, [][2]int{{9, 40}})...)
		}},
		{"the patches dropped", func(q *Query, p []PatchEdge) (*Query, []PatchEdge) {
			return q, nil
		}},
		{"the ablation flag", func(q *Query, p []PatchEdge) (*Query, []PatchEdge) {
			q.UnsafeIgnoreProtectedBalls = true
			return q, p
		}},
		{"labels of another MaxLevel", func(q *Query, p []PatchEdge) (*Query, []PatchEdge) {
			// The fault side is empty, so nothing in the key but the
			// parameters of the endpoint labels tells the two apart.
			return &Query{S: wide.Label(3), T: wide.Label(120)}, nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dec := NewDecoder()
			defer dec.Release()
			reused := func(q *Query, patches []PatchEdge) bool { return checkFramedDecode(t, dec, q, patches, nil) }
			q, patches := base()
			if tc.name == "labels of another MaxLevel" {
				q, patches = &Query{S: s.Label(3), T: s.Label(120)}, nil
			}
			for i, want := range []bool{false, true, true} {
				if got := reused(q, patches); got != want {
					t.Fatalf("decode %d of the unchanged query: FrameReused=%v, want %v", i, got, want)
				}
			}
			q, patches = tc.change(q, patches)
			for i, want := range []bool{false, true, true} {
				if got := reused(q, patches); got != want {
					t.Fatalf("decode %d after the change: FrameReused=%v, want %v", i, got, want)
				}
			}
			// Release drops the frame with the labels it points to.
			dec.Release()
			if got := reused(q, patches); got {
				t.Fatal("a frame survived Release")
			}
		})
	}

	// What a rebuilt frame must not keep of the one before: its run packed
	// into arcs, collapsed once a second decode used it. Arrays the same
	// size as last time are what a stale pack would hide behind.
	pairs := [][2]int{{3, 120}, {10, 250}, {100, 180}, {7, 8}, {30, 210}}
	pairQuery := func(side Query, i int) *Query {
		side.S, side.T = s.Label(pairs[i%len(pairs)][0]), s.Label(pairs[i%len(pairs)][1])
		return &side
	}
	a, b := sameSizeRuns(t, s, pairs)
	t.Run("same-size runs with other edges", func(t *testing.T) {
		dec := NewDecoder()
		defer dec.Release()
		for _, side := range []Query{a, b, a, b} {
			for i := range pairs {
				if got := checkFramedDecode(t, dec, pairQuery(side, i), nil, nil); got != (i > 0) {
					t.Fatalf("pair %d: FrameReused=%v, want %v", i, got, i > 0)
				}
			}
		}
	})
	t.Run("a budgeted single pass between framed decodes", func(t *testing.T) {
		q, patches := base()
		dec := NewDecoder()
		defer dec.Release()
		for i := 0; i < 7; i++ {
			q := pairQuery(Query{VertexFaults: q.VertexFaults, EdgeFaults: q.EdgeFaults}, i)
			total, pair := frameWork(q, patches)
			// Odd decodes run out inside the frame owners: one pass, cut.
			if i%2 == 1 {
				q.Budget = []int{pair + (total-pair)/2, total - 1, pair + 1}[i/2]
			}
			if got, want := checkFramedDecode(t, dec, q, patches, nil), i > 0 && i%2 == 0; got != want {
				t.Fatalf("decode %d (budget %d of %d): FrameReused=%v, want %v", i, q.Budget, total, got, want)
			}
		}
	})
	t.Run("release to the pool and back", func(t *testing.T) {
		dec := NewDecoder()
		defer dec.Release()
		for round := 0; round < 3; round++ {
			for _, side := range []Query{a, b} {
				for i := 0; i < 3; i++ {
					if got := checkFramedDecode(t, dec, pairQuery(side, i+round), nil, nil); got != (i > 0) {
						t.Fatalf("round %d, pair %d: FrameReused=%v, want %v", round, i, got, i > 0)
					}
				}
				// The scratch goes back with its arrays, the arcs of a run
				// among them; another Decoder may take it out in between.
				dec.Release()
				other := NewDecoder()
				checkFramedDecode(t, other, pairQuery(b, round), nil, nil)
				other.Release()
			}
		}
	})
}

// sameSizeRuns finds two single vertex faults on s, clear of the pairs,
// whose fault frames hold runs of the same number of candidates over the
// same number of vertices, and not the same candidates.
func sameSizeRuns(t *testing.T, s *Scheme, pairs [][2]int) (Query, Query) {
	t.Helper()
	type shape struct{ cands, ids int }
	seen := map[shape]Query{}
	dec := NewDecoder()
	defer dec.Release()
next:
	for v := 0; v < s.Graph().NumVertices(); v++ {
		for _, p := range pairs {
			if v == p[0] || v == p[1] {
				continue next
			}
		}
		side := Query{VertexFaults: []*Label{s.Label(v)}}
		q := side
		q.S, q.T = s.Label(pairs[0][0]), s.Label(pairs[0][1])
		if _, _, err := dec.scratch().decode(&q, Opts{}); err != nil {
			t.Fatal(err)
		}
		sc := dec.scratch()
		sh := shape{len(sc.run.cands), len(sc.run.ids)}
		if other, ok := seen[sh]; ok {
			keys := runKeys(sc)
			q.VertexFaults = other.VertexFaults
			if _, _, err := dec.scratch().decode(&q, Opts{}); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(keys, runKeys(dec.scratch())) {
				return other, side
			}
		}
		seen[sh] = side
	}
	t.Fatal("no two single faults with runs of one size and other edges")
	return Query{}, Query{}
}

// runKeys lists the candidates of the frame's run as sorted (x, y, w)
// over vertex ids.
func runKeys(sc *decodeScratch) [][3]int32 {
	var keys [][3]int32
	for _, c := range sc.run.cands {
		x, y := sc.run.ids[c.U], sc.run.ids[c.V]
		keys = append(keys, [3]int32{min(x, y), max(x, y), c.W})
	}
	slices.SortFunc(keys, func(p, q [3]int32) int { return slices.Compare(p[:], q[:]) })
	return keys
}

// checkFramedDecode decodes q on dec, handing it the shared frame f (nil:
// none), traced and then for its walk, and holds δ, the budget flag, the
// sketch, the trace and the walk to what a Decoder that has seen nothing
// and referenceDecode report. It returns whether the traced decode reused
// a frame.
func checkFramedDecode(t *testing.T, dec *Decoder, q *Query, patches []PatchEdge, f *Frame) bool {
	t.Helper()
	var tr, ftr, want Trace
	dist, exh, err := dec.scratch().decode(q, Opts{Patches: patches, Trace: &tr, Frame: f})
	if err != nil {
		t.Fatal(err)
	}
	edges := slices.Clone(dec.scratch().sketchEdges())
	var path []int32
	res := dec.Decode(q, Opts{Patches: patches, Frame: f, Path: &path})
	wantDist, wantEdges, _, wantExh, err := referenceDecode(q, &want, patches...)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewDecoder()
	defer fresh.Release()
	fDist, fExh, err := fresh.scratch().decode(q, Opts{Patches: patches, Trace: &ftr})
	if err != nil {
		t.Fatal(err)
	}
	fEdges := slices.Clone(fresh.scratch().sketchEdges())
	fresh.Release()
	fRes, fPath := fresh.DistanceRobustPatchedPath(q, patches, nil)

	if dist != wantDist || exh != wantExh || !reflect.DeepEqual(edges, wantEdges) || !reflect.DeepEqual(maskTrace(tr), want) {
		t.Errorf("%d→%d: (δ=%d, exhausted=%v, %d edges, walk %v), reference (%d, %v, %d edges, walk %v)",
			q.S.V, q.T.V, dist, exh, len(edges), tr.Path, wantDist, wantExh, len(wantEdges), want.Path)
	}
	if dist != fDist || exh != fExh || !reflect.DeepEqual(edges, fEdges) || !reflect.DeepEqual(maskTrace(tr), maskTrace(ftr)) {
		t.Errorf("%d→%d: (δ=%d, exhausted=%v, %d edges, walk %v), fresh Decoder (%d, %v, %d edges, walk %v)",
			q.S.V, q.T.V, dist, exh, len(edges), tr.Path, fDist, fExh, len(fEdges), ftr.Path)
	}
	if !reflect.DeepEqual(res, fRes) || !slices.Equal(path, fPath) || res.OK && !slices.Equal(path, want.Path) {
		t.Errorf("%d→%d: path decode %+v %v, fresh Decoder %+v %v, reference walk %v", q.S.V, q.T.V, res, path, fRes, fPath, want.Path)
	}
	return tr.FrameReused
}

// TestFrameCounters: FramesBuilt counts the decodes that built a run and
// FramesReused those that solved beside one — per batch of k pairs one
// and k−1, a lone query a batch of one.
func TestFrameCounters(t *testing.T) {
	g := gridGraph(t, 8, 8)
	s, err := BuildScheme(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	q, err := s.NewQuery(0, 63, graph.FaultVertices(27, 36))
	if err != nil {
		t.Fatal(err)
	}
	before := DecoderPool()
	for i := 0; i < 3; i++ {
		q.Distance() // three lone queries: a fresh scratch each
	}
	if d := DecoderPool(); d.FramesBuilt != before.FramesBuilt+3 || d.FramesReused != before.FramesReused {
		t.Errorf("three lone queries: frame counters %+v -> %+v, want 3 built and none reused", before, d)
	}
	before = DecoderPool()
	var dec Decoder
	for i := 0; i < 8; i++ {
		dec.Decode(q, Opts{})
	}
	dec.Release()
	d := DecoderPool()
	if built, reused := d.FramesBuilt-before.FramesBuilt, d.FramesReused-before.FramesReused; built != 1 || reused != 7 {
		t.Errorf("a batch of 8: %d frames built, %d reused, want 1 and 7", built, reused)
	}
}

// TestFramedBatchAllocs extends the allocation gates to a framed batch:
// neither reusing a frame nor rebuilding one — two fault sets taking
// turns on one Decoder — allocates in the steady state.
func TestFramedBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unstable under -race (sync.Pool reuse is randomized)")
	}
	g := gridGraph(t, 8, 8)
	s, err := BuildScheme(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	mustQuery := func(src, dst int, f *graph.FaultSet) *Query {
		q, err := s.NewQuery(src, dst, f)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	fa, fb := graph.FaultVertices(27, 36), graph.FaultVertices(20)
	fb.AddEdge(42, 43)
	a := []*Query{mustQuery(0, 63, fa), mustQuery(7, 56, fa), mustQuery(1, 62, fa)}
	b := []*Query{mustQuery(0, 63, fb), mustQuery(7, 56, fb), mustQuery(1, 62, fb)}
	// Under the faults the certificate of a δ-only decode fails; with none
	// the labels answer alone, and the frame is the empty side's.
	clean := mustQuery(7, 56, graph.NewFaultSet())
	mustCertify(t, "no faults", clean, true)
	mustCertify(t, "faults 27, 36", a[1], false)
	patches := patchesOf(s, [][2]int{{2, 61}})
	dec := NewDecoder()
	defer dec.Release()
	var buf []int32
	batch := func(qs []*Query) {
		for _, q := range qs {
			dec.Decode(q, Opts{})
		}
		for _, q := range qs {
			_, buf = dec.DistanceRobustPatchedPath(q, patches, buf[:0])
		}
	}
	batch(a)
	batch(b) // size the scratch and both frames
	var tr Trace
	dec.DistanceWithTrace(a[0], &tr)
	dec.DistanceWithTrace(a[1], &tr)
	dec.DistanceWithTrace(a[2], &tr)
	if !tr.FrameReused {
		t.Fatal("the later decodes under one fault set did not reuse the frame")
	}
	if allocs := testing.AllocsPerRun(100, func() { batch(a[1:]) }); allocs > 0 {
		t.Errorf("framed batch, frame reused: %g allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { batch(a); batch(b); dec.Decode(clean, Opts{}) }); allocs > 0 {
		t.Errorf("framed batches, frame rebuilt for each: %g allocs/op, want 0", allocs)
	}
	// Frames of 16 and of more than 64 protected-ball centers, rebuilt
	// for each batch.
	wide := gridWideQueries(t)
	batch(wide)
	if allocs := testing.AllocsPerRun(20, func() { batch(wide[:1]); batch(wide[1:]) }); allocs > 0 {
		t.Errorf("framed grid24 batches of 16 and 70 vertex faults: %g allocs/op, want 0", allocs)
	}
	// The same batches over the labels a factored container hands out.
	balls := ballsOnlyLabels(t, s)
	for i := range a {
		a[i], b[i] = mapQuery(a[i], balls), mapQuery(b[i], balls)
	}
	patches = mapPatches(patches, balls)
	clean = mapQuery(clean, balls)
	batch(a)
	batch(b)
	if allocs := testing.AllocsPerRun(100, func() { batch(a); batch(b); dec.Decode(clean, Opts{}) }); allocs > 0 {
		t.Errorf("framed batches over balls-only labels: %g allocs/op, want 0", allocs)
	}
}

// TestFrameSharedFaultLabelsRace runs two Decoders over the same fault
// labels at once: frames are private to a scratch and labels are only
// read, so under -race this is the proof that a batch's sharing adds no
// write to anything two requests can both reach.
func TestFrameSharedFaultLabelsRace(t *testing.T) {
	g := ringLattice(t, 256)
	s, err := BuildScheme(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.SetCacheLimit(4096)
	side := Query{VertexFaults: []*Label{s.Label(60), s.Label(200)}, EdgeFaults: [][2]*Label{{s.Label(90), s.Label(91)}}}
	patches := patchesOf(s, [][2]int{{5, 118}})
	pairs := [][2]int{{3, 120}, {10, 250}, {90, 30}, {100, 180}, {7, 8}}
	want := make([]Result, len(pairs))
	for i, p := range pairs {
		q := side
		q.S, q.T = s.Label(p[0]), s.Label(p[1])
		var dec Decoder
		want[i] = dec.DistanceRobustPatched(&q, patches)
		dec.Release()
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var dec Decoder
			defer dec.Release()
			for round := 0; round < 20; round++ {
				for i := range pairs {
					i = (i + w) % len(pairs)
					q := side
					q.S, q.T = s.Label(pairs[i][0]), s.Label(pairs[i][1])
					if got := dec.DistanceRobustPatched(&q, patches); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("worker %d, pair %v: %+v, want %+v", w, pairs[i], got, want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
