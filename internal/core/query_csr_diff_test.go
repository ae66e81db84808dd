package core

import (
	"math/rand"
	"reflect"
	"testing"

	"fsdl/internal/graph"
)

// This file is the CSR-decoder differential sweep (ISSUE 8): random
// doubling graphs × fault-set sizes {0,1,4,16,64} × live-patch batches,
// asserting the rebuilt decode is bit-identical to referenceDecode and
// that every reported witness path is a valid walk of the surviving
// graph whose hop weights sum exactly to the returned distance.

// checkWalk validates a reported witness path: it must run src..dst, and
// each hop must be realizable in G\F at exactly the weight the decoder
// charged for it — d_{G\F}(a,b) for sketch hops (sketch edges carry
// exact G-distances realizable avoiding F, so the two coincide), or 1
// for a hop that is one of the inserted patch edges. The recomputed
// per-hop weights must sum to the reported distance.
func checkWalk(t *testing.T, g *graph.Graph, f *graph.FaultSet, patches map[uint64]bool, path []int32, src, dst int32, dist int64) {
	t.Helper()
	if len(path) == 0 {
		t.Fatalf("empty path for dist %d", dist)
	}
	if path[0] != src || path[len(path)-1] != dst {
		t.Fatalf("path endpoints %d..%d, want %d..%d", path[0], path[len(path)-1], src, dst)
	}
	var sum int64
	for i := 1; i < len(path); i++ {
		a, b := path[i-1], path[i]
		if a == b {
			t.Fatalf("path repeats vertex %d at hop %d", a, i)
		}
		w := int64(-1)
		if d := g.DistAvoiding(int(a), int(b), f); graph.Reachable(d) {
			w = int64(d)
		}
		if patches[unorderedKey(a, b)] && (w < 0 || w > 1) {
			w = 1
		}
		if w < 0 {
			t.Fatalf("hop %d–%d not realizable in G\\F and not a patch edge", a, b)
		}
		sum += w
	}
	if sum != dist {
		t.Fatalf("walk length %d != reported distance %d (path %v)", sum, dist, path)
	}
}

// diffFaults draws nf distinct fault vertices avoiding src and dst.
func diffFaults(rng *rand.Rand, n, nf, src, dst int) *graph.FaultSet {
	if nf == 0 {
		return nil
	}
	f := graph.NewFaultSet()
	for f.Size() < nf {
		v := rng.Intn(n)
		if v != src && v != dst {
			f.AddVertex(v)
		}
	}
	return f
}

// TestDecodeCSRMatchesReference is the differential sweep: distances
// must be bit-identical to the reference decoder at every fault size,
// and the path decode's walk must check out against the real graph.
func TestDecodeCSRMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	graphs := map[string]*graph.Graph{
		"grid10x10": gridGraph(t, 10, 10),
		"grid12x9":  gridGraph(t, 12, 9),
		"rand120":   randomConnected(t, 120, 60, rng),
	}
	for gname, g := range graphs {
		s, err := BuildScheme(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumVertices()
		factored := factoredLabels(t, s)
		dec := NewDecoder()
		var buf []int32
		// 64 centers still fit one mask word; 70 forces the multi-word
		// (W=2) mask and owner-tier paths.
		for _, nf := range []int{0, 1, 4, 16, 64, 70} {
			if nf > n-2 {
				continue
			}
			for rep := 0; rep < 4; rep++ {
				src := rng.Intn(n)
				dst := rng.Intn(n)
				for dst == src {
					dst = rng.Intn(n)
				}
				f := diffFaults(rng, n, nf, src, dst)
				q, err := s.NewQuery(src, dst, f)
				if err != nil {
					t.Fatal(err)
				}
				if rep%2 == 1 {
					// Every other query over the labels a factored
					// container hands out.
					q = mapQuery(q, factored)
				}
				wantDist, _, _, _, wantErr := referenceDecode(q, nil)
				if wantErr != nil {
					t.Fatalf("%s F=%d: reference error: %v", gname, nf, wantErr)
				}
				gotDist, ok := q.Distance()
				if wantDist < 0 {
					if ok {
						t.Fatalf("%s F=%d: Distance ok for unreachable pair", gname, nf)
					}
				} else if !ok || gotDist != wantDist {
					t.Fatalf("%s F=%d: Distance=(%d,%v), reference %d", gname, nf, gotDist, ok, wantDist)
				}

				buf = buf[:0]
				res := dec.Decode(q, Opts{Path: &buf})
				if res.OK != (wantDist >= 0) {
					t.Fatalf("%s F=%d: path decode ok=%v, reference dist %d", gname, nf, res.OK, wantDist)
				}
				if !res.OK {
					continue
				}
				if res.Dist != wantDist {
					t.Fatalf("%s F=%d: path decode dist %d, reference %d", gname, nf, res.Dist, wantDist)
				}
				checkWalk(t, g, f, nil, buf, int32(src), int32(dst), res.Dist)
			}
		}
		dec.Release()
	}
}

// TestDecodePathUnderPatches validates witness walks through live-patch
// batches: the path decode must match the plain patched one exactly,
// never exceed the unpatched answer, and the sketch walk must check out
// with the inserted edges as unit hops.
func TestDecodePathUnderPatches(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := gridGraph(t, 10, 10)
	n := g.NumVertices()
	s, err := BuildScheme(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	adjacent := func(u, v int) bool {
		for _, w := range g.Neighbors(u) {
			if int(w) == v {
				return true
			}
		}
		return false
	}
	dec := NewDecoder()
	defer dec.Release()
	for _, np := range []int{1, 4, 16} {
		for rep := 0; rep < 4; rep++ {
			src := rng.Intn(n)
			dst := rng.Intn(n)
			for dst == src {
				dst = rng.Intn(n)
			}
			f := diffFaults(rng, n, 4, src, dst)
			q, err := s.NewQuery(src, dst, f)
			if err != nil {
				t.Fatal(err)
			}
			var patches []PatchEdge
			patchSet := map[uint64]bool{}
			for len(patches) < np {
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v || adjacent(u, v) || patchSet[unorderedKey(int32(u), int32(v))] {
					continue
				}
				if f != nil && (f.HasVertex(u) || f.HasVertex(v)) {
					continue
				}
				patchSet[unorderedKey(int32(u), int32(v))] = true
				patches = append(patches, PatchEdge{U: s.Label(u), V: s.Label(v)})
			}
			base := dec.Decode(q, Opts{})
			want := dec.Decode(q, Opts{Patches: patches})
			var path []int32
			got := dec.Decode(q, Opts{Patches: patches, Path: &path})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("np=%d: path variant result %+v != %+v", np, got, want)
			}
			if base.OK && (!got.OK || got.Dist > base.Dist) {
				t.Fatalf("np=%d: patched answer %+v worse than unpatched %+v", np, got, base)
			}
			if !got.OK {
				continue
			}
			checkWalk(t, g, f, patchSet, path, int32(src), int32(dst), got.Dist)
		}
	}
}

// TestDecodePathDegraded validates witness walks in degraded mode: with
// unusable fault labels only verbatim surviving unit edges are admitted,
// so every hop of the walk must be a real edge of G avoiding all faults,
// and the hop count must equal the reported (upper-bound) distance.
func TestDecodePathDegraded(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := gridGraph(t, 10, 10)
	n := g.NumVertices()
	s, err := BuildScheme(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder()
	defer dec.Release()
	for rep := 0; rep < 6; rep++ {
		src := rng.Intn(n)
		dst := rng.Intn(n)
		for dst == src {
			dst = rng.Intn(n)
		}
		q, err := s.NewQuery(src, dst, nil)
		if err != nil {
			t.Fatal(err)
		}
		fset := graph.NewFaultSet()
		for fset.Size() < 3 {
			v := rng.Intn(n)
			if v != src && v != dst {
				fset.AddVertex(v)
				q.DegradedVertexFaults = append(q.DegradedVertexFaults, int32(v))
			}
		}
		var path []int32
		res := dec.Decode(q, Opts{Path: &path})
		if !res.Degraded {
			t.Fatalf("degraded query not flagged: %+v", res)
		}
		if !res.OK {
			continue
		}
		// Every hop must be a verbatim surviving edge: the walk is a real
		// path of G\F, so its length bounds d_{G\F} from above and equals
		// the degraded estimate exactly.
		checkWalk(t, g, fset, nil, path, int32(src), int32(dst), res.Dist)
		if truth := g.DistAvoiding(src, dst, fset); graph.Reachable(truth) && int64(truth) > res.Dist {
			t.Fatalf("degraded answer %d below true distance %d", res.Dist, truth)
		}
	}
}
