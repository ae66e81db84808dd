package core

import (
	"math/rand"
	"testing"

	"fsdl/internal/gen"
	"fsdl/internal/graph"
)

// checkNestedBalls holds every label of s to the identity a factored
// container's records lean on (labelstore, balls.go): the nets nest and
// the radii grow, so the part of the level-ℓ ball that lies in the net of
// the level above is the level-(ℓ+1) ball cut at r_ℓ, point for point and
// distance for distance.
func checkNestedBalls(t *testing.T, name string, s *Scheme) {
	t.Helper()
	lg, p := s.LevelGraphs(), s.Params()
	n := s.Graph().NumVertices()
	inUpperNet := make([][]bool, p.NumLevelRange()) // [k][x]: x is a net point of level index k+1
	for k := 0; k+1 < p.NumLevelRange(); k++ {
		inUpperNet[k] = make([]bool, n)
		for _, x := range lg.NetPoints(k + 1) {
			inUpperNet[k][x] = true
		}
		if r, up := p.R(p.LowestLevel()+k), p.R(p.LowestLevel()+k+1); r > up {
			t.Fatalf("%s: r_%d = %d > r_%d = %d: the radii do not grow", name, p.LowestLevel()+k, r, p.LowestLevel()+k+1, up)
		}
		shared := 0
		for _, x := range lg.NetPoints(k) {
			if inUpperNet[k][x] {
				shared++
			}
		}
		if shared != len(lg.NetPoints(k+1)) {
			t.Fatalf("%s: %d of the %d net points of level index %d are net points of level index %d", name, shared, len(lg.NetPoints(k+1)), k+1, k)
		}
	}
	for v := 0; v < n; v++ {
		l := s.Label(v)
		for k := 0; k+1 < len(l.Levels); k++ {
			r := p.R(l.Level(k))
			var lower, cut []PointEntry
			for _, pe := range l.Levels[k].Points {
				if inUpperNet[k][pe.X] {
					lower = append(lower, pe)
				}
			}
			for _, pe := range l.Levels[k+1].Points {
				if pe.D <= r {
					cut = append(cut, pe)
				}
			}
			if len(lower) != len(cut) {
				t.Fatalf("%s: vertex %d level %d: %d ball points in the upper net, the upper ball cut at r=%d holds %d", name, v, l.Level(k), len(lower), r, len(cut))
			}
			for i := range lower {
				if lower[i] != cut[i] {
					t.Fatalf("%s: vertex %d level %d: ball holds %+v where the upper ball holds %+v", name, v, l.Level(k), lower[i], cut[i])
				}
			}
		}
	}
}

// TestNestedBallsIdentity runs checkNestedBalls over the shapes a stored
// label comes in: saturated and local balls, a disconnected graph, graphs
// so small that the top scheme levels share one clamped net, the shrunken
// radii of the ablation, and a scheme an incremental build produced.
func TestNestedBallsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	rgg, _, err := gen.RandomGeometric(150, 0.14, rng)
	if err != nil {
		t.Fatal(err)
	}
	road, err := gen.RoadNetwork(10, 10, 0.2, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	ring := graph.NewBuilder(192)
	for i := 0; i < 192; i++ {
		ring.AddEdge(i, (i+1)%192)
		ring.AddEdge(i, (i+2)%192)
	}
	split := graph.NewBuilder(70) // two paths and an isolated vertex
	for i := 0; i+1 < 69; i++ {
		if i != 39 {
			split.AddEdge(i, i+1)
		}
	}
	graphs := map[string]*graph.Graph{
		"grid":         gridGraph(t, 9, 9),
		"ring":         ring.MustBuild(),
		"rgg":          rgg,
		"tree":         gen.RandomTree(120, rng),
		"road":         road,
		"path":         pathGraph(t, 300),
		"disconnected": split.MustBuild(),
		"clamped":      pathGraph(t, 5), // L = c+1 > ⌈log₂ n⌉: every level above the hierarchy's top
	}
	for name, g := range graphs {
		for shrink := 0; shrink <= 2; shrink++ {
			s, err := BuildSchemeAblated(g, 2, shrink)
			if err != nil {
				t.Fatal(err)
			}
			checkNestedBalls(t, name, s)
		}
	}
	tight, err := BuildScheme(graphs["grid"], 0.5)
	if err != nil {
		t.Fatal(err)
	}
	checkNestedBalls(t, "grid at ε = 0.5", tight)

	prev, err := BuildScheme(graphs["ring"], 2)
	if err != nil {
		t.Fatal(err)
	}
	gNew, muts := mutate(t, graphs["ring"], [][2]int32{{0, 1}, {0, 2}, {191, 0}, {190, 0}, {40, 140}})
	inc, err := BuildSchemeIncremental(prev, gNew, muts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(inc.Dirty) == 0 {
		t.Fatal("fixture: the delta dirtied no label")
	}
	checkNestedBalls(t, "ring rebuilt incrementally", inc.Scheme)
}
