package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"fsdl/internal/graph"
)

// checkQuery runs a forbidden-set query and verifies the two-sided
// guarantee against exact recomputation: d_{G\F} ≤ δ ≤ (1+ε)·d_{G\F}, and
// ok ⟺ connected in G\F. Returns the stretch achieved (1 when
// disconnected).
func checkQuery(t *testing.T, g *graph.Graph, s *Scheme, src, dst int, f *graph.FaultSet) float64 {
	t.Helper()
	want := g.DistAvoiding(src, dst, f)
	got, ok := s.Distance(src, dst, f)
	if !graph.Reachable(want) {
		if ok {
			t.Fatalf("query (%d,%d,|F|=%d): reported %d but truly disconnected", src, dst, f.Size(), got)
		}
		return 1
	}
	if !ok {
		t.Fatalf("query (%d,%d,|F|=%d): reported disconnected, true distance %d", src, dst, f.Size(), want)
	}
	if got < int64(want) {
		t.Fatalf("query (%d,%d,|F|=%d): estimate %d below true distance %d (safety violated)",
			src, dst, f.Size(), got, want)
	}
	eps := s.Params().Epsilon
	if want > 0 && float64(got) > (1+eps)*float64(want)+1e-9 {
		t.Fatalf("query (%d,%d,|F|=%d): estimate %d exceeds (1+%g)·%d (stretch violated)",
			src, dst, f.Size(), got, eps, want)
	}
	if want == 0 {
		if got != 0 {
			t.Fatalf("query (%d,%d): same vertex must give 0, got %d", src, dst, got)
		}
		return 1
	}
	return float64(got) / float64(want)
}

func TestQueryNoFaultsExactSmallGraph(t *testing.T) {
	g := gridGraph(t, 6, 5)
	s, err := BuildScheme(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < 30; src += 3 {
		for dst := 0; dst < 30; dst += 4 {
			checkQuery(t, g, s, src, dst, nil)
		}
	}
}

func TestQuerySameVertex(t *testing.T) {
	g := pathGraph(t, 10)
	s, _ := BuildScheme(g, 2)
	if d, ok := s.Distance(4, 4, nil); !ok || d != 0 {
		t.Errorf("Distance(v,v) = (%d,%v), want (0,true)", d, ok)
	}
	f := graph.FaultVertices(3, 5)
	if d, ok := s.Distance(4, 4, f); !ok || d != 0 {
		t.Errorf("Distance(v,v,F) = (%d,%v), want (0,true)", d, ok)
	}
}

func TestQueryEndpointForbidden(t *testing.T) {
	g := pathGraph(t, 10)
	s, _ := BuildScheme(g, 2)
	if _, err := s.NewQuery(3, 7, graph.FaultVertices(3)); err == nil {
		t.Error("forbidden source should be rejected")
	}
	if _, err := s.NewQuery(3, 7, graph.FaultVertices(7)); err == nil {
		t.Error("forbidden target should be rejected")
	}
	if _, ok := s.Distance(3, 7, graph.FaultVertices(7)); ok {
		t.Error("Distance with forbidden endpoint must report not-ok")
	}
}

func TestQueryVertexFaultOnPath(t *testing.T) {
	// On a path, cutting any middle vertex disconnects the endpoints.
	g := pathGraph(t, 20)
	s, _ := BuildScheme(g, 2)
	if _, ok := s.Distance(0, 19, graph.FaultVertices(10)); ok {
		t.Error("path cut must disconnect")
	}
	// Cutting a vertex outside the s-t segment changes nothing.
	checkQuery(t, g, s, 5, 9, graph.FaultVertices(15))
}

func TestQueryDetourOnGrid(t *testing.T) {
	// 9x9 grid, cut the middle column except the top row: the (0,4)-(8,4)
	// query must detour over the top.
	w, h := 9, 9
	g := gridGraph(t, w, h)
	s, _ := BuildScheme(g, 2)
	f := graph.NewFaultSet()
	for y := 1; y < h; y++ {
		f.AddVertex(y*w + 4)
	}
	src, dst := 4*w+0, 4*w+8
	stretch := checkQuery(t, g, s, src, dst, f)
	if stretch < 1 {
		t.Fatalf("impossible stretch %f", stretch)
	}
}

func TestQueryEdgeFaults(t *testing.T) {
	// C8: cutting one edge forces the long way around.
	b := graph.NewBuilder(8)
	for i := 0; i < 8; i++ {
		b.AddEdge(i, (i+1)%8)
	}
	g := b.MustBuild()
	s, _ := BuildScheme(g, 2)
	f := graph.NewFaultSet()
	f.AddEdge(0, 1)
	checkQuery(t, g, s, 0, 1, f) // true distance 7
	checkQuery(t, g, s, 0, 4, f) // unchanged distance 4
	// Cutting a bridge disconnects.
	p := pathGraph(t, 12)
	sp, _ := BuildScheme(p, 2)
	fb := graph.NewFaultSet()
	fb.AddEdge(5, 6)
	if _, ok := sp.Distance(0, 11, fb); ok {
		t.Error("bridge cut must disconnect")
	}
	checkQuery(t, p, sp, 0, 5, fb)
}

func TestQueryMixedVertexAndEdgeFaults(t *testing.T) {
	g := gridGraph(t, 7, 7)
	s, _ := BuildScheme(g, 2)
	f := graph.NewFaultSet()
	f.AddVertex(24) // center
	f.AddEdge(0, 1)
	f.AddEdge(7, 8)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		src, dst := rng.Intn(49), rng.Intn(49)
		if f.HasVertex(src) || f.HasVertex(dst) {
			continue
		}
		checkQuery(t, g, s, src, dst, f)
	}
}

func TestQueryRejectsNonEdgeFault(t *testing.T) {
	g := pathGraph(t, 10)
	s, _ := BuildScheme(g, 2)
	f := graph.NewFaultSet()
	f.AddEdge(0, 5) // not an edge of the path
	if _, err := s.NewQuery(0, 9, f); err == nil {
		t.Error("non-edge fault should be rejected")
	}
}

func TestQueryFaultsAdjacentToEndpoints(t *testing.T) {
	g := gridGraph(t, 8, 8)
	s, _ := BuildScheme(g, 2)
	// Surround s with faults except one escape route.
	src := 0 // corner (0,0); neighbors 1 and 8
	f := graph.FaultVertices(8)
	checkQuery(t, g, s, src, 63, f)
	f2 := graph.FaultVertices(1, 8) // both neighbors: disconnected
	if _, ok := s.Distance(src, 63, f2); ok {
		t.Error("sealed corner must be disconnected")
	}
}

func TestQueryFaultClusterNearMiddle(t *testing.T) {
	w, h := 10, 10
	g := gridGraph(t, w, h)
	s, _ := BuildScheme(g, 2)
	f := graph.NewFaultSet()
	for _, v := range []int{44, 45, 54, 55, 34, 35} {
		f.AddVertex(v)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		src, dst := rng.Intn(100), rng.Intn(100)
		if f.HasVertex(src) || f.HasVertex(dst) {
			continue
		}
		checkQuery(t, g, s, src, dst, f)
	}
}

// The safety lemma (Lemma 2.3): every edge of the sketch graph H is
// realizable in G\F at exactly its weight.
func TestSketchEdgesAreSafe(t *testing.T) {
	g := gridGraph(t, 8, 8)
	s, _ := BuildScheme(g, 2)
	f := graph.FaultVertices(27, 36, 12)
	q, err := s.NewQuery(0, 63, f)
	if err != nil {
		t.Fatal(err)
	}
	edges, err := q.Sketch()
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) == 0 {
		t.Fatal("sketch has no edges")
	}
	for _, e := range edges {
		d := g.DistAvoiding(int(e.X), int(e.Y), f)
		if !graph.Reachable(d) {
			t.Fatalf("sketch edge (%d,%d,w=%d) joins vertices disconnected in G\\F", e.X, e.Y, e.W)
		}
		if int64(d) != e.W {
			t.Fatalf("sketch edge (%d,%d): weight %d, d_{G\\F} = %d", e.X, e.Y, e.W, d)
		}
	}
}

func TestSketchContainsNoForbiddenVertex(t *testing.T) {
	g := gridGraph(t, 8, 8)
	s, _ := BuildScheme(g, 2)
	f := graph.FaultVertices(27, 36)
	q, _ := s.NewQuery(0, 63, f)
	edges, err := q.Sketch()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if f.HasVertex(int(e.X)) || f.HasVertex(int(e.Y)) {
			t.Fatalf("sketch edge (%d,%d) touches a forbidden vertex", e.X, e.Y)
		}
	}
}

func TestQueryTraceConsistent(t *testing.T) {
	g := gridGraph(t, 9, 9)
	s, _ := BuildScheme(g, 2)
	f := graph.FaultVertices(40)
	q, _ := s.NewQuery(0, 80, f)
	var tr Trace
	var dec Decoder
	defer dec.Release()
	res := dec.Decode(q, Opts{Trace: &tr})
	d := res.Dist
	if !res.OK {
		t.Fatal("expected connected")
	}
	if len(tr.Path) < 2 || tr.Path[0] != 0 || tr.Path[len(tr.Path)-1] != 80 {
		t.Fatalf("trace path endpoints wrong: %v", tr.Path)
	}
	var sum int64
	for _, w := range tr.PathWeights {
		sum += w
	}
	if sum != d {
		t.Fatalf("trace path weight %d != reported distance %d", sum, d)
	}
	if tr.NumHVertices <= 0 || tr.NumHEdges <= 0 {
		t.Fatal("trace missing sketch dimensions")
	}
	admitted := 0
	for _, a := range tr.AdmittedPerLevel {
		admitted += a
	}
	if admitted == 0 {
		t.Fatal("no admitted edges recorded")
	}
}

// The decoder must answer from labels alone: serialize all labels, decode
// them into fresh objects, and verify the answer matches.
func TestQueryFromSerializedLabelsOnly(t *testing.T) {
	g := gridGraph(t, 8, 8)
	s, _ := BuildScheme(g, 2)
	f := graph.FaultVertices(27, 36)
	reload := func(v int) *Label {
		buf, n := s.Label(v).Encode()
		l, err := DecodeLabel(buf, n)
		if err != nil {
			t.Fatalf("round trip label %d: %v", v, err)
		}
		return l
	}
	q := &Query{
		S:            reload(0),
		T:            reload(63),
		VertexFaults: []*Label{reload(27), reload(36)},
	}
	gotSer, okSer := q.Distance()
	gotDirect, okDirect := s.Distance(0, 63, f)
	if okSer != okDirect || gotSer != gotDirect {
		t.Fatalf("serialized-label query = (%d,%v), direct = (%d,%v)",
			gotSer, okSer, gotDirect, okDirect)
	}
}

func TestQueryValidateMismatchedParams(t *testing.T) {
	g := pathGraph(t, 16)
	s1, _ := BuildScheme(g, 2)
	s05, _ := BuildScheme(g, 0.5)
	// Mismatched endpoints, and a mismatched fault label: Decode demotes
	// the latter and answers, Query's names refuse both.
	for _, q := range []*Query{
		{S: s1.Label(0), T: s05.Label(15)},
		{S: s1.Label(0), T: s1.Label(5), VertexFaults: []*Label{s05.Label(7)}},
	} {
		if err := q.Validate(); err == nil {
			t.Error("mismatched scheme parameters must be rejected")
		}
		if _, ok := q.Distance(); ok {
			t.Error("mismatched query must not answer")
		}
		if _, err := q.Sketch(); err == nil {
			t.Error("mismatched query must not have a sketch")
		}
	}
	q := &Query{S: s1.Label(0), T: s1.Label(5), VertexFaults: []*Label{s05.Label(7)}}
	if res := q.decode(Opts{}, nil); !res.OK || !res.Degraded || !slices.Equal(res.MissingFaultLabels, []int32{7}) {
		t.Errorf("Decode of a mismatched fault label = %+v, want a degraded answer", res)
	}
}

// TestTraceSameVertex: a traced decode of s = t resets the trace and
// reports the walk [s], whatever the trace held before.
func TestTraceSameVertex(t *testing.T) {
	s, _ := BuildScheme(pathGraph(t, 10), 2)
	q := &Query{S: s.Label(3), T: s.Label(3)}
	tr := Trace{Path: []int32{9, 9, 9}, PathWeights: []int64{5, 5}, NumHVertices: 77, NumHEdges: 5, FrameReused: true}
	var dec Decoder
	defer dec.Release()
	if res := dec.Decode(q, Opts{Trace: &tr}); !res.OK || res.Dist != 0 {
		t.Fatalf("traced decode of s = t = %+v, want (0, true)", res)
	}
	if want := (Trace{Path: []int32{3}}); !reflect.DeepEqual(tr, want) {
		t.Errorf("trace of s = t: %+v, want %+v", tr, want)
	}
	var path []int32
	if res := dec.Decode(q, Opts{Path: &path}); !res.OK || !slices.Equal(path, tr.Path) {
		t.Errorf("walk of s = t: %+v %v, the trace's %v", res, path, tr.Path)
	}
}

func TestQueryManyFaults(t *testing.T) {
	w, h := 11, 11
	g := gridGraph(t, w, h)
	s, _ := BuildScheme(g, 2)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 15; trial++ {
		f := graph.NewFaultSet()
		for len(f.Vertices()) < 12 {
			f.AddVertex(rng.Intn(w * h))
		}
		src, dst := rng.Intn(w*h), rng.Intn(w*h)
		if f.HasVertex(src) || f.HasVertex(dst) {
			continue
		}
		checkQuery(t, g, s, src, dst, f)
	}
}

// Property test: on random connected graphs with random fault sets, the
// two-sided guarantee holds for random queries.
func TestQueryGuaranteeProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test is slow")
	}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(40)
		g := randomConnected(t, n, rng.Intn(n), rng)
		eps := []float64{1.5, 2, 3}[rng.Intn(3)]
		s, err := BuildScheme(g, eps)
		if err != nil {
			return false
		}
		for trial := 0; trial < 5; trial++ {
			f := graph.NewFaultSet()
			for i := 0; i < rng.Intn(5); i++ {
				f.AddVertex(rng.Intn(n))
			}
			src, dst := rng.Intn(n), rng.Intn(n)
			if f.HasVertex(src) || f.HasVertex(dst) {
				continue
			}
			want := g.DistAvoiding(src, dst, f)
			got, ok := s.Distance(src, dst, f)
			if !graph.Reachable(want) {
				if ok {
					return false
				}
				continue
			}
			if !ok || got < int64(want) {
				return false
			}
			if float64(got) > (1+eps)*float64(want)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestQueryOnDisconnectedGraph(t *testing.T) {
	b := graph.NewBuilder(12)
	for i := 0; i+1 < 6; i++ {
		b.AddEdge(i, i+1)
		b.AddEdge(6+i, 6+i+1)
	}
	g := b.MustBuild()
	s, err := BuildScheme(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Distance(0, 8, nil); ok {
		t.Error("cross-component query must be disconnected")
	}
	checkQuery(t, g, s, 0, 5, nil)
	checkQuery(t, g, s, 6, 11, graph.FaultVertices(0))
}

func TestQueryTinyGraphs(t *testing.T) {
	// n = 1.
	g1 := graph.NewBuilder(1).MustBuild()
	s1, err := BuildScheme(g1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := s1.Distance(0, 0, nil); !ok || d != 0 {
		t.Errorf("singleton self-distance = (%d,%v)", d, ok)
	}
	// n = 2.
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1)
	g2 := b.MustBuild()
	s2, _ := BuildScheme(g2, 2)
	if d, ok := s2.Distance(0, 1, nil); !ok || d != 1 {
		t.Errorf("K2 distance = (%d,%v), want (1,true)", d, ok)
	}
	f := graph.NewFaultSet()
	f.AddEdge(0, 1)
	if _, ok := s2.Distance(0, 1, f); ok {
		t.Error("K2 with cut edge must disconnect")
	}
}

func TestStretchNeverBelowOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := gridGraph(t, 9, 9)
	s, _ := BuildScheme(g, 3)
	for trial := 0; trial < 50; trial++ {
		src, dst := rng.Intn(81), rng.Intn(81)
		f := graph.FaultVertices(rng.Intn(81))
		if f.HasVertex(src) || f.HasVertex(dst) {
			continue
		}
		stretch := checkQuery(t, g, s, src, dst, f)
		if stretch < 1-1e-12 {
			t.Fatalf("stretch %f < 1", stretch)
		}
	}
}

// Exhaustive miniature verification: on a small graph, every (s,t) pair ×
// every single edge fault × every single vertex fault is checked against
// exact recomputation. Slow but total: ~n²·(n+m) queries.
func TestExhaustiveSingleFaultTinyGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive check is slow")
	}
	g := gridGraph(t, 4, 4)
	s, err := BuildScheme(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.SetCacheLimit(64)
	n := g.NumVertices()
	var edges [][2]int
	g.ForEachEdge(func(u, v int) { edges = append(edges, [2]int{u, v}) })
	for src := 0; src < n; src++ {
		for dst := src + 1; dst < n; dst++ {
			for fv := 0; fv < n; fv++ {
				if fv == src || fv == dst {
					continue
				}
				checkQuery(t, g, s, src, dst, graph.FaultVertices(fv))
			}
			for _, e := range edges {
				f := graph.NewFaultSet()
				f.AddEdge(e[0], e[1])
				checkQuery(t, g, s, src, dst, f)
			}
		}
	}
}

// Exhaustive pair coverage with a fixed 2-fault set on a slightly larger
// graph.
func TestExhaustivePairsFixedFaults(t *testing.T) {
	g := gridGraph(t, 5, 5)
	s, err := BuildScheme(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := graph.FaultVertices(12, 7)
	for src := 0; src < 25; src++ {
		for dst := 0; dst < 25; dst++ {
			if f.HasVertex(src) || f.HasVertex(dst) {
				continue
			}
			checkQuery(t, g, s, src, dst, f)
		}
	}
}
