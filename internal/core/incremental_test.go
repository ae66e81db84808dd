package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fsdl/internal/graph"
)

// edgeSetOf collects a graph's undirected edges as normalized pairs.
func edgeSetOf(g *graph.Graph) map[[2]int32]bool {
	set := make(map[[2]int32]bool, g.NumEdges())
	g.ForEachEdge(func(u, v int) {
		set[[2]int32{int32(u), int32(v)}] = true
	})
	return set
}

// mutate toggles the given edges (present → delete, absent → insert) and
// returns the resulting graph plus the normalized mutation list.
func mutate(t *testing.T, g *graph.Graph, toggles [][2]int32) (*graph.Graph, [][2]int32) {
	t.Helper()
	set := edgeSetOf(g)
	var muts [][2]int32
	for _, e := range toggles {
		if e[0] > e[1] {
			e[0], e[1] = e[1], e[0]
		}
		if e[0] == e[1] {
			continue
		}
		if set[e] {
			delete(set, e)
		} else {
			set[e] = true
		}
		muts = append(muts, e)
	}
	b := graph.NewBuilder(g.NumVertices())
	for e := range set {
		b.AddEdge(int(e[0]), int(e[1]))
	}
	slices.SortFunc(muts, func(a, b [2]int32) int {
		if a[0] != b[0] {
			return int(a[0] - b[0])
		}
		return int(a[1] - b[1])
	})
	return b.MustBuild(), muts
}

func encodeAll(s *Scheme) [][]byte {
	n := s.Graph().NumVertices()
	out := make([][]byte, n)
	for v := 0; v < n; v++ {
		data, _ := s.Label(v).Encode()
		out[v] = data
	}
	return out
}

// TestBuildSchemeIncremental is the core-level differential test: for random
// graphs and random insert/delete batches, the delta-scoped rebuild must be
// bit-identical to a from-scratch build at every worker count, and every
// vertex it does NOT report dirty must keep a byte-identical label — that
// guarantee is what lets compaction splice old label bytes forward. Each
// case also pins its IncrementalStats: the dirty set is a sound
// over-approximation, so a build that reused no row, or called every
// searched row changed, would still pass the byte checks — the pinned
// counts hold it to the same reuse decisions as well.
func TestBuildSchemeIncremental(t *testing.T) {
	type tc struct {
		name    string
		eps     float64
		base    *graph.Graph
		toggles [][2]int32
		want    IncrementalStats
	}
	rng := rand.New(rand.NewSource(9))
	grid := gridGraph(t, 12, 12)
	var cases []tc

	// Adversarial: mutations between nearby grid vertices sit inside many
	// overlapping dense balls at once.
	cases = append(cases, tc{
		name: "grid_dense_ball", eps: 2.0, base: grid,
		toggles: [][2]int32{{0, 13}, {13, 26}, {5, 6}, {66, 79}, {66, 91}},
		want:    IncrementalStats{Seeds: 8, RowsTotal: 84, RowsChanged: 78, NetDiffed: 85, DirtyLow: 144},
	})
	// Single edge delete and single insert.
	cases = append(cases, tc{
		name: "grid_single_delete", eps: 2.0, base: grid,
		toggles: [][2]int32{{60, 61}},
		want:    IncrementalStats{Seeds: 2, RowsTotal: 83, NetDiffed: 83, DirtyLow: 144},
	})
	cases = append(cases, tc{
		name: "grid_single_insert", eps: 2.0, base: grid,
		toggles: [][2]int32{{0, 143}},
		want:    IncrementalStats{Seeds: 3, RowsTotal: 80, RowsChanged: 77, NetDiffed: 83, DirtyLow: 144},
	})
	// Tighter ε exercises more levels.
	cases = append(cases, tc{
		name: "grid_tight_eps", eps: 0.5, base: grid,
		toggles: [][2]int32{{40, 53}, {100, 101}},
		want:    IncrementalStats{Seeds: 4, RowsTotal: 81, RowsChanged: 53, NetDiffed: 81, DirtyLow: 144},
	})
	// Random graphs × random batches of varying size.
	randomWant := []IncrementalStats{
		{Seeds: 4, RowsTotal: 88, RowsChanged: 42, NetDiffed: 89, DirtyLow: 150},
		{Seeds: 20, RowsTotal: 95, RowsChanged: 93, NetDiffed: 103, DirtyLow: 150},
		{Seeds: 49, RowsTotal: 83, RowsChanged: 80, NetDiffed: 102, DirtyLow: 150},
	}
	for i, size := range []int{1, 6, 25} {
		g := randomConnected(t, 150, 80, rng)
		var tg [][2]int32
		for len(tg) < size {
			u, v := rng.Intn(150), rng.Intn(150)
			if u != v {
				tg = append(tg, [2]int32{int32(u), int32(v)})
			}
		}
		cases = append(cases, tc{name: fmt.Sprintf("random_%d", i), eps: 2.0, base: g, toggles: tg, want: randomWant[i]})
	}
	// A graph large enough that the delta stays local: most upper-level
	// rows are reused, and only the labels near the edit are dirty.
	ring := ringLattice(t, 512)
	cases = append(cases, tc{
		name: "ring_local_delete", eps: 2.0, base: ring,
		toggles: [][2]int32{{0, 1}},
		want:    IncrementalStats{Seeds: 2, RowsTotal: 266, RowsReused: 139, NetDiffed: 233, DirtyLow: 194},
	})
	// Two deletions that each marking rule catches a share of.
	cases = append(cases, tc{
		name: "ring_every_rule", eps: 2.0, base: ring,
		toggles: [][2]int32{{0, 1}, {0, 2}},
		want: IncrementalStats{Seeds: 3, RowsTotal: 266, RowsReused: 139, RowsChanged: 62, NetDiffed: 233,
			DirtyLow: 195, DirtyNet: 150, DirtyPair: 167},
	})
	// Empty delta: everything clean, nothing dirty.
	cases = append(cases, tc{
		name: "empty_delta", eps: 2.0, base: grid, toggles: nil,
		want: IncrementalStats{RowsTotal: 83, RowsReused: 83},
	})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prev, err := BuildSchemeWorkers(c.base, c.eps, 0)
			if err != nil {
				t.Fatal(err)
			}
			gNew, muts := mutate(t, c.base, c.toggles)
			want, err := BuildSchemeWorkers(gNew, c.eps, 0)
			if err != nil {
				t.Fatal(err)
			}
			wantLabels := encodeAll(want)
			prevLabels := encodeAll(prev)

			var firstDirty []int32
			for _, workers := range []int{1, 2, 8} {
				inc, err := BuildSchemeIncremental(prev, gNew, muts, workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if firstDirty == nil {
					firstDirty = inc.Dirty
				} else if !slices.Equal(firstDirty, inc.Dirty) {
					t.Fatalf("workers=%d: dirty set differs from workers=1", workers)
				}
				dirty := make(map[int32]bool, len(inc.Dirty))
				for _, v := range inc.Dirty {
					dirty[v] = true
				}
				got := encodeAll(inc.Scheme)
				for v := range got {
					if !bytes.Equal(got[v], wantLabels[v]) {
						t.Fatalf("workers=%d: label of %d differs from offline build", workers, v)
					}
					if !dirty[int32(v)] && !bytes.Equal(prevLabels[v], wantLabels[v]) {
						t.Fatalf("workers=%d: vertex %d not dirty but label changed", workers, v)
					}
				}
				if inc.Stats != c.want {
					t.Fatalf("workers=%d: stats %+v, want %+v", workers, inc.Stats, c.want)
				}
				if got := inc.Stats.DirtyLow + inc.Stats.DirtyNet + inc.Stats.DirtyPair; got != len(inc.Dirty) {
					t.Fatalf("workers=%d: the marking rules count %d dirty vertices, Dirty lists %d", workers, got, len(inc.Dirty))
				}
			}
		})
	}
}

// TestBuildSchemeIncrementalRejects covers the argument validation.
func TestBuildSchemeIncrementalRejects(t *testing.T) {
	g := gridGraph(t, 4, 4)
	s, err := BuildScheme(g, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildSchemeIncremental(nil, g, nil, 0); err == nil {
		t.Fatal("nil previous scheme accepted")
	}
	small := gridGraph(t, 3, 3)
	if _, err := BuildSchemeIncremental(s, small, nil, 0); err == nil {
		t.Fatal("vertex-space change accepted")
	}
}
