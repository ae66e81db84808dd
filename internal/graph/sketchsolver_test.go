package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// canonicalWalk is what SketchSolver promises, computed the slow way: the
// distances of the multigraph on n vertices (Bellman-Ford over the edge
// list), and from dst back to src the tight predecessor of the smallest
// name at every step. ok is false when dst is unreachable.
func canonicalWalk(ids []int32, edges []DenseEdge, src, dst int) (dist int64, walk []int32, ok bool) {
	n := len(ids)
	d := make([]int64, n)
	for v := range d {
		d[v] = WeightedInfinity
	}
	d[src] = 0
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			for _, a := range [2][2]int32{{e.U, e.V}, {e.V, e.U}} {
				if d[a[0]] != WeightedInfinity && (d[a[1]] == WeightedInfinity || d[a[0]]+int64(e.W) < d[a[1]]) {
					d[a[1]] = d[a[0]] + int64(e.W)
					changed = true
				}
			}
		}
	}
	if d[dst] == WeightedInfinity {
		return 0, nil, false
	}
	for v := int32(dst); ; {
		walk = append(walk, v)
		if int(v) == src {
			break
		}
		parent := int32(-1)
		for _, e := range edges {
			for _, a := range [2][2]int32{{e.U, e.V}, {e.V, e.U}} {
				if a[1] == v && d[a[0]] != WeightedInfinity && d[a[0]]+int64(e.W) == d[v] && (parent < 0 || ids[a[0]] < ids[parent]) {
					parent = a[0]
				}
			}
		}
		v = parent
	}
	slices.Reverse(walk)
	return d[dst], walk, true
}

// weightedOf is the multigraph as a Weighted.
func weightedOf(n int, edges []DenseEdge) *Weighted {
	w := NewWeighted(n)
	for _, e := range edges {
		w.AddEdge(int(e.U), int(e.V), int64(e.W))
	}
	return w
}

// randomNames returns n distinct names in random order: the solver breaks
// ties by name, not by dense id.
func randomNames(rng *rand.Rand, n int) []int32 {
	ids := make([]int32, n)
	for i, p := range rng.Perm(n) {
		ids[i] = int32(3*p + 7)
	}
	return ids
}

// runOf packs edges as a run over the fewest leading vertices that hold
// them (n when there is no edge), collapsed or as they are.
func runOf(rng *rand.Rand, n int, edges []DenseEdge, collapse bool) *Arcs {
	nRun := rng.Intn(n + 1)
	if len(edges) > 0 {
		nRun = 0
		for _, e := range edges {
			nRun = max(nRun, int(e.U)+1, int(e.V)+1)
		}
	}
	var run Arcs
	run.Pack(nRun, edges)
	if collapse {
		run.Collapse()
	}
	return &run
}

// TestSketchSolverMatchesWeighted checks the reusable solver on random
// multigraphs — duplicate pairs on purpose, and weights from a range small
// enough to force ties: the distance is Weighted.ShortestPath's, and the
// walk is the one the definition names, whatever order the edges come in
// — as one pair list, and split at random between a run, collapsed or
// not, and the pair.
func TestSketchSolverMatchesWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var s SketchSolver
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(20)
		var edges []DenseEdge
		for i := rng.Intn(3 * n); i > 0; i-- {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				edges = append(edges, DenseEdge{int32(u), int32(v), int32(1 + rng.Intn(3))})
			}
		}
		ids := randomNames(rng, n)
		src, dst := rng.Intn(n), rng.Intn(n)
		wantD, wantWalk, ok := canonicalWalk(ids, edges, src, dst)
		if d, _ := weightedOf(n, edges).ShortestPath(src, dst); ok && d != wantD || !ok && d != WeightedInfinity {
			t.Fatalf("trial %d: the definition says dist(%d,%d) = %d (reachable: %v), Weighted %d", trial, src, dst, wantD, ok, d)
		}
		for order := 0; order < 20; order++ {
			rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
			cut := rng.Intn(len(edges) + 1)
			for _, tc := range []struct {
				name string
				run  *Arcs
				pair []DenseEdge
			}{
				{"concatenated", nil, edges},
				{"run+pair", runOf(rng, n, edges[:cut], false), edges[cut:]},
				{"collapsed run+pair", runOf(rng, n, edges[:cut], true), edges[cut:]},
			} {
				gotD := s.ShortestPath(ids, src, dst, tc.run, tc.pair, -1)
				if !ok {
					if gotD != WeightedInfinity {
						t.Fatalf("trial %d %s: dist(%d,%d) = %d, want unreachable", trial, tc.name, src, dst, gotD)
					}
					continue
				}
				if gotD != wantD {
					t.Fatalf("trial %d order %d %s: dist(%d,%d) = %d, want %d", trial, order, tc.name, src, dst, gotD, wantD)
				}
				if got := s.PathTo(src, dst, nil); !slices.Equal(got, wantWalk) {
					t.Fatalf("trial %d order %d %s: walk %v, want %v (names %v)", trial, order, tc.name, got, wantWalk, ids)
				}
			}
		}
	}
}

// TestSketchSolverBound: a bound no larger than the distance changes
// nothing but when the search ends; a larger one — a caller wrong about
// what is shortest — gets the length of a real path between the two.
// Unreachable stays unreachable whatever the bound.
func TestSketchSolverBound(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var s SketchSolver
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(20)
		var edges []DenseEdge
		for i := rng.Intn(3 * n); i > 0; i-- {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				edges = append(edges, DenseEdge{int32(u), int32(v), int32(1 + rng.Intn(5))})
			}
		}
		ids := randomNames(rng, n)
		src, dst := rng.Intn(n), rng.Intn(n)
		wantD, _, ok := canonicalWalk(ids, edges, src, dst)
		cut := rng.Intn(len(edges) + 1)
		run := runOf(rng, n, edges[:cut], trial%2 == 0)
		for _, bound := range []int64{0, wantD / 2, wantD - 1, wantD, wantD + 1, 2*wantD + 3, 1 << 40} {
			got := s.ShortestPath(ids, src, dst, run, edges[cut:], bound)
			switch {
			case !ok:
				if got != WeightedInfinity {
					t.Fatalf("trial %d bound %d: dist = %d, want unreachable", trial, bound, got)
				}
			case bound <= wantD && got != wantD, bound > wantD && (got < wantD || got > bound):
				t.Fatalf("trial %d: bound %d gives %d, the distance is %d", trial, bound, got, wantD)
			}
		}
	}

	// The search ends as soon as dst's tentative distance reaches the
	// bound — not once it is below it: with src–dst at 2 and src–v–w at
	// 1 + 1, a bound of 2 leaves v unsettled and w unreached.
	got := s.ShortestPath([]int32{0, 1, 2, 3}, 0, 1, nil, []DenseEdge{{0, 1, 2}, {0, 2, 1}, {2, 3, 1}}, 2)
	if got != 2 || s.dist[3] != unreached {
		t.Fatalf("bound 2: dist %d, w at %d — the search went on past the bound", got, s.dist[3])
	}
}

// TestArcsCollapse: of every bundle of parallel arcs Collapse keeps one,
// at the lightest weight, whether the lighter comes first or last; the
// vertices' ranges close up behind what went, and a repack after a
// collapse starts clean.
func TestArcsCollapse(t *testing.T) {
	type arc struct{ from, to, w int32 }
	arcsOf := func(a *Arcs) (out []arc) {
		for v := 0; v+1 < len(a.off); v++ {
			for _, x := range a.arcs[a.off[v]:a.off[v+1]] {
				out = append(out, arc{int32(v), x.to, x.w})
			}
		}
		slices.SortFunc(out, func(x, y arc) int {
			if x.from != y.from {
				return int(x.from - y.from)
			}
			return int(x.to - y.to)
		})
		return out
	}
	var a Arcs
	for _, tc := range []struct {
		name  string
		edges []DenseEdge
		want  []arc
	}{
		{"lighter first", []DenseEdge{{0, 1, 2}, {0, 1, 5}, {1, 2, 1}},
			[]arc{{0, 1, 2}, {1, 0, 2}, {1, 2, 1}, {2, 1, 1}}},
		{"lighter last", []DenseEdge{{0, 1, 5}, {1, 2, 1}, {1, 0, 2}},
			[]arc{{0, 1, 2}, {1, 0, 2}, {1, 2, 1}, {2, 1, 1}}},
		{"equal bundle", []DenseEdge{{0, 1, 4}, {1, 0, 4}, {0, 1, 4}, {2, 3, 1}},
			[]arc{{0, 1, 4}, {1, 0, 4}, {2, 3, 1}, {3, 2, 1}}},
		{"three deep, lightest in the middle", []DenseEdge{{3, 0, 9}, {0, 3, 1}, {3, 0, 4}, {0, 2, 7}},
			[]arc{{0, 2, 7}, {0, 3, 1}, {2, 0, 7}, {3, 0, 1}}},
		{"no parallels", []DenseEdge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}},
			[]arc{{0, 1, 1}, {1, 0, 1}, {1, 2, 1}, {2, 1, 1}, {2, 3, 1}, {3, 2, 1}}},
		{"no edges", nil, nil},
	} {
		a.Pack(4, tc.edges)
		a.Collapse()
		if got := arcsOf(&a); !slices.Equal(got, tc.want) {
			t.Errorf("%s: arcs %v, want %v", tc.name, got, tc.want)
		}
		if len(a.arcs) != len(tc.want) || a.off[4] != int32(len(tc.want)) {
			t.Errorf("%s: %d arcs and off[n] = %d kept, want %d", tc.name, len(a.arcs), a.off[4], len(tc.want))
		}
	}
}

// TestSketchSolverParallelEdges: of two edges between one pair the
// lighter counts, first or last; equal ones count once.
func TestSketchSolverParallelEdges(t *testing.T) {
	ids := []int32{10, 11, 12}
	var s SketchSolver
	for _, tc := range []struct {
		name  string
		edges []DenseEdge
		want  int64
	}{
		{"lighter first", []DenseEdge{{0, 1, 2}, {0, 1, 5}, {1, 2, 1}}, 3},
		{"lighter last", []DenseEdge{{0, 1, 5}, {1, 2, 1}, {1, 0, 2}}, 3},
		{"equal", []DenseEdge{{0, 1, 4}, {1, 0, 4}, {1, 2, 1}, {2, 1, 1}}, 5},
	} {
		if got := s.ShortestPath(ids, 0, 2, nil, tc.edges, -1); got != tc.want {
			t.Errorf("%s: dist = %d, want %d", tc.name, got, tc.want)
		}
		if got := s.PathTo(0, 2, nil); !slices.Equal(got, []int32{0, 1, 2}) {
			t.Errorf("%s: walk %v", tc.name, got)
		}
	}
}

// TestSketchSolverWeightlessEdges: a weight of 0 is outside what the walk
// is promised for, but the distance holds and PathTo still ends — a tie
// over a weightless edge never re-parents a settled vertex.
func TestSketchSolverWeightlessEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s SketchSolver
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(12)
		var edges []DenseEdge
		for i := rng.Intn(4 * n); i > 0; i-- {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				edges = append(edges, DenseEdge{int32(u), int32(v), int32(rng.Intn(2))})
			}
		}
		ids := randomNames(rng, n)
		src, dst := rng.Intn(n), rng.Intn(n)
		wantD, _ := weightedOf(n, edges).ShortestPath(src, dst)
		gotD := s.ShortestPath(ids, src, dst, nil, edges, -1)
		if gotD != wantD {
			t.Fatalf("trial %d: dist = %d, want %d", trial, gotD, wantD)
		}
		if gotD == WeightedInfinity {
			continue
		}
		if walk := s.PathTo(src, dst, nil); len(walk) > n {
			t.Fatalf("trial %d: walk %v repeats a vertex", trial, walk)
		}
	}
}

// TestSketchSolverReuse verifies calls are isolated: a big graph followed
// by a small one must not leak arcs or distances.
func TestSketchSolverReuse(t *testing.T) {
	var s SketchSolver
	var path []DenseEdge
	for i := int32(0); i < 9; i++ {
		path = append(path, DenseEdge{i, i + 1, 1})
	}
	var run Arcs
	run.Pack(10, path)
	run.Collapse()
	ids := []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if d := s.ShortestPath(ids, 0, 9, nil, path, -1); d != 9 {
		t.Fatalf("path graph dist = %d, want 9", d)
	}
	if d := s.ShortestPath(ids, 0, 9, &run, nil, -1); d != 9 {
		t.Fatalf("path graph as a run: dist = %d, want 9", d)
	}
	ids = ids[:3]
	if d := s.ShortestPath(ids, 0, 2, nil, []DenseEdge{{0, 1, 5}}, -1); d != WeightedInfinity {
		t.Fatalf("disconnected dist = %d, want infinity (stale arcs leaked)", d)
	}
	run.Pack(2, []DenseEdge{{0, 1, 5}})
	run.Collapse()
	if d := s.ShortestPath(ids, 0, 2, &run, nil, -1); d != WeightedInfinity {
		t.Fatalf("disconnected run: dist = %d, want infinity (stale run arcs leaked)", d)
	}
	if d := s.ShortestPath(ids, 0, 2, &run, []DenseEdge{{1, 2, 7}}, -1); d != 12 {
		t.Fatalf("dist = %d, want 12", d)
	}
}

// TestSketchSolverPanics: an endpoint out of range or a negative weight
// panics in either pack — the pair's, inside ShortestPath, and a run's —
// and so does a run over more vertices than there are ids.
func TestSketchSolverPanics(t *testing.T) {
	var s SketchSolver
	ids := []int32{0, 1}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", what)
			}
		}()
		f()
	}
	for _, e := range []DenseEdge{{0, 1, -1}, {0, 2, 1}, {-1, 0, 1}} {
		mustPanic(fmt.Sprintf("pair edge %+v", e), func() { s.ShortestPath(ids, 0, 1, nil, []DenseEdge{e}, -1) })
		mustPanic(fmt.Sprintf("run edge %+v", e), func() {
			var run Arcs
			run.Pack(2, []DenseEdge{e})
		})
	}
	var wide Arcs
	wide.Pack(3, []DenseEdge{{0, 2, 1}})
	mustPanic("run over 3 vertices, 2 ids", func() { s.ShortestPath(ids, 0, 1, &wide, nil, -1) })
}

// TestSketchSolverDistanceOnly: a search that keeps no parent tree
// answers what the full search does — on random multigraphs with parallel
// edges and ties, split between a run and the pair, under any bound — and
// leaves no tree for PathTo to walk.
func TestSketchSolverDistanceOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	var full, lean SketchSolver
	lean.DistanceOnly = true
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(20)
		var edges []DenseEdge
		for i := rng.Intn(3 * n); i > 0; i-- {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				e := DenseEdge{int32(u), int32(v), int32(1 + rng.Intn(3))}
				edges = append(edges, e)
				if rng.Intn(4) == 0 {
					e.W = int32(1 + rng.Intn(3))
					edges = append(edges, e) // a parallel, perhaps lighter
				}
			}
		}
		ids := randomNames(rng, n)
		src, dst := rng.Intn(n), rng.Intn(n)
		cut := rng.Intn(len(edges) + 1)
		run := runOf(rng, n, edges[:cut], trial%2 == 0)
		want := full.ShortestPath(ids, src, dst, run, edges[cut:], -1)
		for _, bound := range []int64{-1, 0, want / 2, want - 1, want, want + 2, 1 << 40} {
			if got, wantB := lean.ShortestPath(ids, src, dst, run, edges[cut:], bound), full.ShortestPath(ids, src, dst, run, edges[cut:], bound); got != wantB {
				t.Fatalf("trial %d bound %d: distance-only %d, full search %d", trial, bound, got, wantB)
			}
		}
		if len(lean.parent) != 0 {
			t.Fatalf("trial %d: a distance-only search left a parent tree of %d", trial, len(lean.parent))
		}
	}
}
