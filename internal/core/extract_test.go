package core

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fsdl/internal/gen"
	"fsdl/internal/graph"
)

// TestExtractSaturatedBalls: extractLabel reads a ball that met every net
// point of its level off the level's members, and sorts only the others.
// Every label it extracts must encode to the bytes of a reference that
// always sorts. One scratch serves every vertex, in shuffled order, so a
// distance left over from an earlier extraction or level shows. The
// graphs saturate at every level (grid24, rgg1024), at some (ring512,
// path300) or, beside an isolated vertex that is a net point of every
// level and no BFS from the grid reaches, at none. Under the race
// detector the grids and the rgg are smaller ones of the same kinds.
func TestExtractSaturatedBalls(t *testing.T) {
	side, rggN, rggR := 24, 1024, 0.056
	if raceEnabled {
		side, rggN, rggR = 12, 400, 0.1
	}
	rgg, _, err := gen.RandomGeometric(rggN, rggR, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	grid := gridGraph(t, side, side)
	isolated := graph.NewBuilder(side*side + 1)
	for v := 0; v < grid.NumVertices(); v++ {
		for _, w := range grid.Neighbors(v) {
			if int(w) > v {
				isolated.AddEdge(v, int(w))
			}
		}
	}
	// saturated is the share of the balls that hold their whole level:
	// 2 all, 1 some, 0 none.
	graphs := []struct {
		name      string
		g         *graph.Graph
		saturated int
	}{
		{fmt.Sprintf("grid%d", side), grid, 2}, {fmt.Sprintf("rgg%d", rggN), rgg, 2},
		{"ring512", ringLattice(t, 512), 1}, {"path300", pathGraph(t, 300), 1},
		{fmt.Sprintf("grid%d+isolated", side), isolated.MustBuild(), 0},
	}
	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) {
			s, err := BuildScheme(tc.g, 2)
			if err != nil {
				t.Fatal(err)
			}
			st, n := s.store, tc.g.NumVertices()
			sc, ref := newExtractScratch(n), newExtractScratch(n)
			balls, saturated := 0, 0
			for _, v := range rand.New(rand.NewSource(48)).Perm(n) {
				got, want := st.extractLabel(v, sc), sortedExtract(st, v, ref)
				for k, lv := range want.Levels {
					balls++
					if len(lv.Points) == len(st.levels[k].members) {
						saturated++
					}
				}
				gb, gn := got.Encode()
				wb, wn := want.Encode()
				if gn != wn || got.BitLen() != wn || !bytes.Equal(gb, wb) {
					t.Fatalf("vertex %d: %d bits (BitLen %d), the always-sorting reference %d; bytes equal: %v",
						v, gn, got.BitLen(), wn, bytes.Equal(gb, wb))
				}
			}
			if share := min(saturated, 1) + saturated/balls; share != tc.saturated {
				t.Errorf("%d of %d balls saturated, want share %d (2 all, 1 some, 0 none)", saturated, balls, tc.saturated)
			}
		})
	}
}

// sortedExtract is extractLabel as it was before saturated balls were
// read off the members: every ball collected in BFS order and sorted.
func sortedExtract(st *LevelGraphs, v int, sc *extractScratch) *Label {
	p := st.params
	l := st.newLabel(int32(v))
	for level := p.LowestLevel(); level <= p.MaxLevel; level++ {
		k := st.levelIndex(level)
		sl := &st.levels[k]
		var pts []PointEntry
		sc.bfs.TruncatedBFS(st.g, v, p.R(level), func(w, d int32) {
			if st.netLevel[w] >= sl.netLvl {
				pts = append(pts, PointEntry{X: w, D: d})
			}
		})
		slices.SortFunc(pts, func(a, b PointEntry) int { return cmp.Compare(a.X, b.X) })
		l.Levels[k] = LevelLabel{Points: pts, Edges: st.induce(k, pts, sc)}
	}
	return l
}
