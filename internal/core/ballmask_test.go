package core

import (
	"math/rand"
	"slices"
	"testing"

	"fsdl/internal/gen"
	"fsdl/internal/graph"
)

// This file holds the protected-ball masks to their definition: bit fi
// of vertex x at level ℓ is set iff x lies in PB_ℓ(center fi), that is,
// x is the center or a point of its level-ℓ list within λ_ℓ.

// TestBallMasksMatchDefinition builds the frame of random fault sets on
// ring, grid, rgg and comb labels, held and balls-only, at |F| ∈ {1, 4,
// 16, 64} vertex faults, and of one fault set of more than 64 centers
// (W ≥ 2 words a point), and holds every part of the protected-ball
// layer to a brute-force build:
//
//   - per level, the combined list (cmbX/cmbM/cmbOff) and each center's
//     nearest net point;
//   - every mask a scan reads, merged for a whole list (fillMasks) or
//     looked up point by point (ballMask);
//   - every mayBeInPB row (fillRow), which is exact where the owner is a
//     net point of the level.
//
// The decode itself must agree with referenceDecode, which tests every
// membership with a lookup of its own.
func TestBallMasksMatchDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	rgg, _, err := gen.RandomGeometric(500, 0.07, rng)
	if err != nil {
		t.Fatal(err)
	}
	comb := graph.NewBuilder(300)
	for i := 0; i < 150; i++ {
		comb.AddEdge(i, 150+i)
		if i > 0 {
			comb.AddEdge(i-1, i)
		}
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"ring512", ringLattice(t, 512)},
		{"grid24x24", gridGraph(t, 24, 24)},
		{"rgg500", rgg},
		{"comb300", comb.MustBuild()},
	}
	for _, gc := range graphs {
		s, err := BuildScheme(gc.g, 2)
		if err != nil {
			t.Fatal(err)
		}
		s.SetCacheLimit(4096)
		n := gc.g.NumVertices()
		for _, flavour := range []string{"held", "balls-only"} {
			fn := func(l *Label) *Label { return l }
			if flavour == "balls-only" {
				fn = ballsOnlyLabels(t, s)
			}
			// 40 edge faults and 10 vertex faults: up to 90 centers.
			for _, nf := range []int{1, 4, 16, 64, -50} {
				f := graph.NewFaultSet()
				for f.Size() < max(nf, -nf) {
					if u := rng.Intn(n); nf > 0 || f.NumVertices() < 10 {
						f.AddVertex(u)
					} else if nb := gc.g.Neighbors(u); len(nb) > 0 {
						f.AddEdge(u, int(nb[rng.Intn(len(nb))]))
					}
				}
				src, dst := rng.Intn(n), rng.Intn(n)
				for src == dst || f.HasVertex(src) || f.HasVertex(dst) {
					src, dst = rng.Intn(n), rng.Intn(n)
				}
				q, err := s.NewQuery(src, dst, f)
				if err != nil {
					t.Fatal(err)
				}
				q = mapQuery(q, fn)
				var dec Decoder
				res := dec.Decode(q, Opts{})
				sc := dec.scratch()
				if nf < 0 && sc.maskWords < 2 {
					t.Fatalf("%s/%s: %d centers, %d mask words: not the multi-word rule", gc.name, flavour, len(sc.centers), sc.maskWords)
				}
				checkBallMasks(t, gc.name+"/"+flavour, sc, q)
				if want, _, _, _, err := referenceDecode(q, nil); err != nil || res.OK != (want >= 0) || res.OK && res.Dist != want {
					t.Fatalf("%s/%s |F|=%d: %+v, the reference δ=%d (%v)", gc.name, flavour, f.Size(), res, want, err)
				}
				// The same labels over sparse ids.
				if flavour == "held" && nf == 16 {
					sq := mapQuery(q, spreadLabel)
					if got := dec.Decode(sq, Opts{}); got.OK != res.OK || got.Dist != res.Dist {
						t.Fatalf("%s |F|=%d over spread ids: %+v, want %+v", gc.name, f.Size(), got, res)
					}
					checkBallMasks(t, gc.name+"/spread", sc, sq)
				}
				dec.Release()
			}
		}
	}
}

// checkBallMasks compares the protected-ball layer sc's frame holds for
// q with its definition.
func checkBallMasks(t *testing.T, what string, sc *decodeScratch, q *Query) {
	t.Helper()
	if sc.rule < admitFused {
		t.Fatalf("%s: rule %d tests no protected balls", what, sc.rule)
	}
	W := sc.maskWords
	// want is the brute-force mask of x at level: one InProtectedBall
	// per center.
	want := func(x int32, level int) []uint64 {
		m := make([]uint64, W)
		for fi, f := range sc.centers {
			if f.InProtectedBall(level, x) {
				m[fi>>6] |= 1 << (fi & 63)
			}
		}
		return m
	}
	owners := append([]*Label{q.S, q.T}, sc.centers...)
	for k := 0; k < sc.numLevels; k++ {
		level := sc.lowest + k
		// The combined list: every center and every point within λ_ℓ of
		// one, ascending, each with its brute-force mask.
		var xs []int32
		for fi, f := range sc.centers {
			xs = append(xs, f.V)
			for _, pe := range f.Levels[k].Points {
				if pe.D <= lambdaOf(level) {
					xs = append(xs, pe.X)
				}
			}
			if got, want := sc.nearest[fi*sc.numLevels+k], nearestNetPoint(f, level); got != want {
				t.Fatalf("%s: level %d center %d: nearest net point %+v, want %+v", what, level, f.V, got, want)
			}
		}
		slices.Sort(xs)
		xs = slices.Compact(xs)
		lo, hi := int(sc.cmbOff[k]), int(sc.cmbOff[k+1])
		if !slices.Equal(sc.cmbX[lo:hi], xs) {
			t.Fatalf("%s: level %d: combined ball list %v, want %v", what, level, sc.cmbX[lo:hi], xs)
		}
		for j, x := range xs {
			if got := sc.cmbM[(lo+j)*W:][:W]; !slices.Equal(got, want(x, level)) {
				t.Fatalf("%s: level %d vertex %d: combined mask %x, want %x", what, level, x, got, want(x, level))
			}
		}
		row := make([]uint64, W)
		for _, o := range owners {
			pts := o.Levels[k].Points
			merged := sc.fillMasks(pts, k, W)
			j := lo
			for i, pe := range pts {
				w := want(pe.X, level)
				if got := merged[i*W:][:W]; !slices.Equal(got, w) {
					t.Fatalf("%s: level %d owner %d point %d: merged mask %x, want %x", what, level, o.V, pe.X, got, w)
				}
				got := sc.ballMask(&j, hi, pe.X)
				if got == nil {
					got = make([]uint64, W)
				}
				if !slices.Equal(got, w) {
					t.Fatalf("%s: level %d owner %d point %d: looked-up mask %x, want %x", what, level, o.V, pe.X, got, w)
				}
			}
			sc.fillRow(row, o, k)
			onNet := slices.Contains(pts, PointEntry{X: o.V})
			for fi, f := range sc.centers {
				got, may := row[fi>>6]&(1<<(fi&63)) != 0, mayBeInPB(o, f, level)
				if got != may {
					t.Fatalf("%s: level %d owner %d center %d: row bit %v, mayBeInPB %v", what, level, o.V, f.V, got, may)
				}
				if onNet && may != f.InProtectedBall(level, o.V) {
					t.Fatalf("%s: level %d: owner %d is a net point, yet mayBeInPB(center %d) = %v", what, level, o.V, f.V, may)
				}
			}
		}
	}
}

// spreadLabel is a copy of l over vertex ids 2^21 times as large: the
// label of an isomorphic graph whose ids are sparse, which buildBallMasks
// numbers in a position map sized to the balls, not to the largest id.
func spreadLabel(l *Label) *Label {
	c := unsharedLabel(l)
	c.V <<= 21
	for k := range c.Levels {
		for i := range c.Levels[k].Points {
			c.Levels[k].Points[i].X <<= 21
		}
	}
	return c
}
