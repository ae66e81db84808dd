package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"fsdl/internal/gen"
	"fsdl/internal/graph"
)

// This file tests the composed run (composeRun): a decode whose fault
// side is a shared frame's and more labeled faults builds its run from the
// frame's, and answers exactly as a fresh Decoder that never saw the frame.

// composeGraphs are the differential's graphs: a ring lattice, a grid, a
// random geometric graph without isolated vertices and a path.
func composeGraphs(t *testing.T, rng *rand.Rand) []corpusGraph {
	t.Helper()
	var rgg *graph.Graph
	for isolated := true; isolated; {
		var err error
		if rgg, _, err = gen.RandomGeometric(400, 0.09, rng); err != nil {
			t.Fatal(err)
		}
		isolated = false
		for v := 0; v < rgg.NumVertices(); v++ {
			isolated = isolated || len(rgg.Neighbors(v)) == 0
		}
	}
	out := []corpusGraph{
		{name: "ring512", g: ringLattice(t, 512)},
		{name: "grid12", g: gridGraph(t, 12, 12)},
		{name: "rgg400", g: rgg},
		{name: "path200", g: pathGraph(t, 200)},
	}
	for i := range out {
		s, err := BuildScheme(out[i].g, 2)
		if err != nil {
			t.Fatal(err)
		}
		s.SetCacheLimit(4096) // one *Label per vertex, so the frame's labels are the query's
		out[i].s = s
	}
	return out
}

// deltaSide is what a live delta puts on every query's fault side: deleted
// edges, now and then a failed vertex, and the inserted edges as patches.
type deltaSide struct {
	vf        []int
	ef        [][2]int
	patches   [][2]int
	forbidden map[int]bool
	ends      []int // the endpoints of the deleted and inserted edges
}

// randomEdge returns an edge of g at a random vertex.
func randomEdge(g *graph.Graph, rng *rand.Rand) [2]int {
	for {
		u := rng.Intn(g.NumVertices())
		if nb := g.Neighbors(u); len(nb) > 0 {
			return [2]int{u, int(nb[rng.Intn(len(nb))])}
		}
	}
}

// newDeltaSide draws 1–3 deleted edges, a failed vertex one time in four
// and 0–3 inserted chords.
func newDeltaSide(g *graph.Graph, rng *rand.Rand) *deltaSide {
	n := g.NumVertices()
	d := &deltaSide{forbidden: map[int]bool{}}
	if rng.Intn(4) == 0 {
		v := rng.Intn(n)
		d.vf, d.forbidden[v] = []int{v}, true
	}
	for i := 1 + rng.Intn(3); i > 0; i-- {
		e := randomEdge(g, rng)
		d.ef = append(d.ef, e)
		d.ends = append(d.ends, e[0], e[1])
	}
	for i := rng.Intn(4); i > 0; i-- {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) || d.forbidden[u] || d.forbidden[v] {
			continue
		}
		d.patches = append(d.patches, [2]int{u, v})
		d.ends = append(d.ends, u, v)
	}
	return d
}

// near returns a vertex a short random walk away from v.
func near(g *graph.Graph, v int, rng *rand.Rand) int {
	for i := rng.Intn(7); i > 0; i-- {
		if nb := g.Neighbors(v); len(nb) > 0 {
			v = int(nb[rng.Intn(len(nb))])
		}
	}
	return v
}

// composedQuery is the delta's side with 0–2 extra vertex faults and 0–2
// extra edge faults — each at random or near one of the delta's ends — in
// shuffled order, between s and t, which no fault forbids; nil when the
// draw left no such pair.
func (d *deltaSide) composedQuery(g *graph.Graph, label func(int) *Label, rng *rand.Rand) *Query {
	n := g.NumVertices()
	pick := func() int {
		if len(d.ends) > 0 && rng.Intn(2) == 0 {
			return near(g, d.ends[rng.Intn(len(d.ends))], rng)
		}
		return rng.Intn(n)
	}
	forbidden := copySet(d.forbidden)
	vf, ef := slices.Clone(d.vf), slices.Clone(d.ef)
	for i := rng.Intn(3); i > 0; i-- {
		v := pick()
		vf, forbidden[v] = append(vf, v), true
	}
	for i := rng.Intn(3); i > 0; i-- {
		u := pick()
		if nb := g.Neighbors(u); len(nb) > 0 {
			ef = append(ef, [2]int{u, int(nb[rng.Intn(len(nb))])})
		}
	}
	rng.Shuffle(len(vf), func(i, j int) { vf[i], vf[j] = vf[j], vf[i] })
	rng.Shuffle(len(ef), func(i, j int) { ef[i], ef[j] = ef[j], ef[i] })
	q := &Query{}
	for _, v := range vf {
		q.VertexFaults = append(q.VertexFaults, label(v))
	}
	for _, e := range ef {
		q.EdgeFaults = append(q.EdgeFaults, [2]*Label{label(e[0]), label(e[1])})
	}
	for try := 0; try < 20; try++ {
		src, dst := pick(), rng.Intn(n)
		if src != dst && !forbidden[src] && !forbidden[dst] {
			q.S, q.T = label(src), label(dst)
			return q
		}
	}
	return nil
}

// copySet copies a vertex set.
func copySet(m map[int]bool) map[int]bool {
	c := make(map[int]bool, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// frameOf is the delta's shared frame, built between some s and t the
// delta leaves, and its patches.
func (d *deltaSide) frameOf(g *graph.Graph, label func(int) *Label, rng *rand.Rand) (*Frame, []PatchEdge) {
	var patches []PatchEdge
	for _, p := range d.patches {
		patches = append(patches, PatchEdge{U: label(p[0]), V: label(p[1])})
	}
	q := &Query{}
	for _, v := range d.vf {
		q.VertexFaults = append(q.VertexFaults, label(v))
	}
	for _, e := range d.ef {
		q.EdgeFaults = append(q.EdgeFaults, [2]*Label{label(e[0]), label(e[1])})
	}
	for {
		src, dst := rng.Intn(g.NumVertices()), rng.Intn(g.NumVertices())
		if src != dst && !d.forbidden[src] && !d.forbidden[dst] {
			q.S, q.T = label(src), label(dst)
			return NewFrame(q, patches), patches
		}
	}
}

// TestComposedFrameMatchesFresh is the composed run's differential: on a
// ring, a grid, a random geometric graph and a path, over held and
// balls-only labels, a random delta's shared frame is handed to decodes
// whose fault sides add 0–2 vertex and 0–2 edge faults to the delta's in
// shuffled order. Each answers δ alone or with its walk on a kept Decoder
// — composing, or now and then solving beside the run it composed for the
// pair before — and δ, OK, Degraded and the walk must be what a fresh
// Decoder without the frame gives. More than 10 000 of the decodes
// compose.
func TestComposedFrameMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	deltas, sides := 36, 42
	if raceEnabled || testing.Short() {
		deltas = 4
	}
	before := DecoderPool().FramesComposed
	for _, cg := range composeGraphs(t, rng) {
		for _, labels := range []string{"held", "balls-only"} {
			label := cg.s.Label
			if labels == "balls-only" {
				balls := ballsOnlyLabels(t, cg.s)
				label = func(v int) *Label { return balls(cg.s.Label(v)) }
			}
			var dec Decoder
			composed := DecoderPool().FramesComposed
			for di := 0; di < deltas; di++ {
				d := newDeltaSide(cg.g, rng)
				frame, patches := d.frameOf(cg.g, label, rng)
				if frame == nil {
					t.Fatalf("%s/%s: no frame for the delta %+v", cg.name, labels, d)
				}
				for si := 0; si < sides; si++ {
					q := d.composedQuery(cg.g, label, rng)
					if q == nil {
						continue
					}
					pairs := []*Query{q}
					if si%4 == 3 { // the pair the other way, beside the composed run
						q2 := *q
						q2.S, q2.T = q.T, q.S
						pairs = append(pairs, &q2)
					}
					for pi, q := range pairs {
						if !composedMatchesFresh(t, cg.name+"/"+labels, &dec, q, patches, frame, (si+pi)%2 == 1) {
							dec.Release()
							return
						}
					}
				}
			}
			dec.Release()
			if DecoderPool().FramesComposed == composed {
				t.Errorf("%s/%s: no decode composed its run", cg.name, labels)
			}
		}
	}
	if n := DecoderPool().FramesComposed - before; !raceEnabled && !testing.Short() && n < 10000 {
		t.Errorf("%d decodes composed their run, want at least 10000", n)
	} else {
		t.Logf("%d decodes composed their run", n)
	}
}

// composedMatchesFresh decodes q on dec beside frame — δ alone, or with
// its walk — and on a fresh Decoder without it, and reports whether the
// Results and walks are equal.
func composedMatchesFresh(t *testing.T, what string, dec *Decoder, q *Query, patches []PatchEdge, frame *Frame, path bool) bool {
	t.Helper()
	o, fo := Opts{Patches: patches, Frame: frame}, Opts{Patches: patches}
	var walk, fwalk []int32
	if path {
		o.Path, fo.Path = &walk, &fwalk
	}
	res := dec.Decode(q, o)
	var fresh Decoder
	fres := fresh.Decode(q, fo)
	fresh.Release()
	if !reflect.DeepEqual(res, fres) || !slices.Equal(walk, fwalk) {
		t.Errorf("%s: %d→%d under %d vertex and %d edge faults: beside the frame %+v %v, fresh %+v %v",
			what, q.S.V, q.T.V, len(q.VertexFaults), len(q.EdgeFaults), res, walk, fres, fwalk)
		return false
	}
	return true
}

// TestComposedFrameConcurrent composes beside one shared frame from eight
// goroutines at once, each holding its answers to a fresh Decoder's: the
// first composition builds the frame's index while the others wait for
// it, and under -race this is the proof that nothing else is written to
// the frame. The frame is as NewFrame left it afterwards.
func TestComposedFrameConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := ringLattice(t, 256)
	s, err := BuildScheme(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.SetCacheLimit(4096)
	d := newDeltaSide(g, rng)
	d.patches = append(d.patches, [2]int{5, 118})
	d.ends = append(d.ends, 5, 118)
	frame, patches := d.frameOf(g, s.Label, rng)
	type want struct {
		q    *Query
		res  Result
		walk []int32
	}
	var wants []want
	for len(wants) < 24 {
		q := d.composedQuery(g, s.Label, rng)
		if q == nil {
			continue
		}
		w := want{q: q}
		var fresh Decoder
		w.res = fresh.Decode(q, Opts{Patches: patches, Path: &w.walk})
		fresh.Release()
		wants = append(wants, w)
	}
	before := frameSnapshot(frame)
	composed := DecoderPool().FramesComposed
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var dec Decoder
			defer dec.Release()
			for round := 0; round < 3; round++ {
				for j := range wants {
					want := wants[(j+w)%len(wants)]
					var walk []int32
					res := dec.Decode(want.q, Opts{Patches: patches, Frame: frame, Path: &walk})
					if !reflect.DeepEqual(res, want.res) || !slices.Equal(walk, want.walk) {
						t.Errorf("worker %d: %d→%d beside the frame %+v %v, fresh %+v %v", w, want.q.S.V, want.q.T.V, res, walk, want.res, want.walk)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if DecoderPool().FramesComposed == composed {
		t.Error("no decode composed its run")
	}
	if after := frameSnapshot(frame); !reflect.DeepEqual(after, before) {
		t.Errorf("composing beside the frame changed it:\n got %+v\nwant %+v", after, before)
	}
}

// TestComposedFrameAllocs: a decode that composes its run allocates
// nothing in the steady state — two fault sides that each add faults to
// the delta's take turns on one Decoder, so every decode composes, δ
// alone and with its walk, over held and balls-only labels.
func TestComposedFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unstable under -race (sync.Pool reuse is randomized)")
	}
	s, err := BuildScheme(gridGraph(t, 8, 8), 2)
	if err != nil {
		t.Fatal(err)
	}
	s.SetCacheLimit(4096)
	held := func(l *Label) *Label { return l }
	for name, fn := range map[string]func(*Label) *Label{"held": held, "balls-only": ballsOnlyLabels(t, s)} {
		label := func(v int) *Label { return fn(s.Label(v)) }
		delta := [2]*Label{label(42), label(43)}
		patches := []PatchEdge{{U: label(2), V: label(61)}}
		frame := NewFrame(&Query{S: label(0), T: label(63), EdgeFaults: [][2]*Label{delta}}, patches)
		a := &Query{S: label(0), T: label(63), VertexFaults: []*Label{label(27)}, EdgeFaults: [][2]*Label{delta}}
		b := &Query{S: label(7), T: label(56), VertexFaults: []*Label{label(36)}, EdgeFaults: [][2]*Label{{label(20), label(21)}, delta}}
		dec := NewDecoder()
		var buf []int32
		batch := func() {
			for _, q := range []*Query{a, b} {
				dec.Decode(q, Opts{Patches: patches, Frame: frame})
				buf = buf[:0]
				dec.Decode(q, Opts{Patches: patches, Frame: frame, Path: &buf})
			}
		}
		batch() // size the scratch and the frame's index
		composed := DecoderPool().FramesComposed
		batch()
		if DecoderPool().FramesComposed-composed < 2 {
			t.Fatalf("%s: the decodes did not compose their runs", name)
		}
		if allocs := testing.AllocsPerRun(100, batch); allocs > 0 {
			t.Errorf("%s: composed decodes: %g allocs/op, want 0", name, allocs)
		}
		dec.Release()
	}
}

// TestComposedFrameFallback: a decode whose fault side holds the frame's
// but cannot compose — a fault more that rejects a patch, a label for one
// of the frame's vertices that is not the frame's, a degraded fault, a
// budget, a trace, the ablation flag, more than 62 centers — runs under a
// frame of its own scanned in full, and answers as a fresh Decoder does.
func TestComposedFrameFallback(t *testing.T) {
	s, err := BuildScheme(gridGraph(t, 24, 24), 2)
	if err != nil {
		t.Fatal(err)
	}
	s.SetCacheLimit(4096)
	delta := [2]*Label{s.Label(42), s.Label(43)}
	patches := patchesOf(s, [][2]int{{2, 561}})
	frame := NewFrame(&Query{S: s.Label(0), T: s.Label(575), EdgeFaults: [][2]*Label{delta}}, patches)
	side := func() *Query {
		return &Query{S: s.Label(0), T: s.Label(575), VertexFaults: []*Label{s.Label(300)}, EdgeFaults: [][2]*Label{delta}}
	}
	wide := side()
	for v := 100; len(wide.VertexFaults) < 70; v += 5 {
		wide.VertexFaults = append(wide.VertexFaults, s.Label(v))
	}
	refetched := side()
	refetched.EdgeFaults = [][2]*Label{{unsharedLabel(delta[0]), delta[1]}, delta}
	rejecting := side()
	rejecting.VertexFaults = append(rejecting.VertexFaults, s.Label(561))
	degraded, budgeted, ablated := side(), side(), side()
	degraded.DegradedVertexFaults = []int32{200}
	budgeted.Budget = 1 << 30
	ablated.UnsafeIgnoreProtectedBalls = true
	for name, q := range map[string]*Query{
		"a fault that rejects a patch": rejecting,
		"another label for a vertex":   refetched,
		"a degraded fault":             degraded,
		"a budget":                     budgeted,
		"the ablation flag":            ablated,
		"70 centers":                   wide,
	} {
		var walk []int32
		before := DecoderPool()
		dec := NewDecoder()
		checkFramedDecode(t, dec, q, patches, frame)
		dec.Release()
		res := dec.Decode(q, Opts{Patches: patches, Frame: frame, Path: &walk})
		dec.Release()
		var fresh Decoder
		var fwalk []int32
		fres := fresh.Decode(q, Opts{Patches: patches, Path: &fwalk})
		fresh.Release()
		if !reflect.DeepEqual(res, fres) || !slices.Equal(walk, fwalk) {
			t.Errorf("%s: beside the frame %+v %v, fresh %+v %v", name, res, walk, fres, fwalk)
		}
		if after := DecoderPool(); after.FramesComposed != before.FramesComposed {
			t.Errorf("%s: %d decodes composed their run", name, after.FramesComposed-before.FramesComposed)
		}
	}
	// The side the frame composes for does, and a traced decode after it
	// scans the run again for its tallies.
	q := side()
	dec := NewDecoder()
	defer dec.Release()
	before := DecoderPool()
	var walk []int32
	dec.Decode(q, Opts{Patches: patches, Frame: frame, Path: &walk})
	if after := DecoderPool(); after.FramesComposed != before.FramesComposed+1 || after.FramesBuilt != before.FramesBuilt {
		t.Fatalf("the frame's side and a fault more: %+v -> %+v, want one run composed and none built", before, after)
	}
	if checkFramedDecode(t, dec, q, patches, frame) {
		t.Error("a traced decode reused a composed run")
	}
}

// BenchmarkComposedFrame times one decode under a live delta's fault side
// and one vertex and one edge fault more, on ring2048's balls-only labels:
// composed from the delta's shared frame, and with a frame of its own
// scanned in full, for deltas of Δ deletions and Δ insertions. Eight fault
// sides take turns, so every decode builds its run.
func BenchmarkComposedFrame(b *testing.B) {
	g := ringLattice(b, 2048)
	s, err := BuildScheme(g, 2)
	if err != nil {
		b.Fatal(err)
	}
	s.SetCacheLimit(4096)
	balls := ballsOnlyLabels(b, s)
	label := func(v int) *Label { return balls(s.Label(v)) }
	for _, delta := range []int{2, 3, 4} {
		rng := rand.New(rand.NewSource(int64(delta)))
		side := &Query{S: label(0), T: label(1024)}
		var patches []PatchEdge
		for i := 0; i < delta; i++ {
			u := rng.Intn(2048)
			side.EdgeFaults = append(side.EdgeFaults, [2]*Label{label(u), label((u + 1) % 2048)})
			v := rng.Intn(2048)
			patches = append(patches, PatchEdge{U: label(v), V: label((v + 3 + rng.Intn(60)) % 2048)})
		}
		frame := NewFrame(side, patches)
		var qs []*Query
		for len(qs) < 8 {
			src, dst, f, e := rng.Intn(2048), rng.Intn(2048), rng.Intn(2048), rng.Intn(2048)
			if src == dst || f == src || f == dst {
				continue
			}
			q := *side
			q.S, q.T = label(src), label(dst)
			q.VertexFaults = []*Label{label(f)}
			q.EdgeFaults = append(slices.Clip(side.EdgeFaults), [2]*Label{label(e), label((e + 2) % 2048)})
			qs = append(qs, &q)
		}
		for _, mode := range []string{"composed", "own"} {
			b.Run(fmt.Sprintf("delta=%d+%d/%s", delta, delta, mode), func(b *testing.B) {
				var dec Decoder
				defer dec.Release()
				o := Opts{Patches: patches}
				if mode == "composed" {
					o.Frame = frame
				}
				for i := 0; i < b.N; i++ {
					dec.Decode(qs[i%len(qs)], o)
				}
			})
		}
	}
}
