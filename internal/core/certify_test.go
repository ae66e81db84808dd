package core

import (
	"math/rand"
	"testing"

	"fsdl/internal/gen"
	"fsdl/internal/graph"
)

// This file tests the certificate a distance-only decode looks for
// before it scans anything (decode, certified): a net point both
// endpoint labels hold, d(s,x) + d(t,x) = L away from them together, that
// s and t each reach by a self edge the frame admits.

// TestLabelCertificate decodes random pairs on ring, grid, rgg and tree
// (comb) labels, held and balls-only, under |F| ∈ {0, 1, 2, 4, 16} mixed
// vertex and edge faults, and holds every δ to referenceDecode's —
// certified or not. The certificate must fire with no faults and under
// them.
func TestLabelCertificate(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	rgg, _, err := gen.RandomGeometric(500, 0.07, rng)
	if err != nil {
		t.Fatal(err)
	}
	// A comb — a spine of 150 with a tooth on every vertex — so that the
	// tree is wider than the protected balls of its lowest level.
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
		{"grid16x16", gridGraph(t, 16, 16)},
		{"rgg500", rgg},
		{"comb300", comb.MustBuild()},
	}
	pairs := 20
	if raceEnabled || testing.Short() {
		pairs = 6
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
			var decodes, certified, faultedCertified int
			for _, nf := range []int{0, 1, 2, 4, 16} {
				for i := 0; i < pairs; i++ {
					f := graph.NewFaultSet()
					for f.Size() < nf {
						if u := rng.Intn(n); f.Size()%2 == 0 {
							f.AddVertex(u)
						} else if nb := gc.g.Neighbors(u); len(nb) > 0 {
							f.AddEdge(u, int(nb[rng.Intn(len(nb))]))
						}
					}
					src, dst := rng.Intn(n), rng.Intn(n)
					if f.HasVertex(src) || f.HasVertex(dst) {
						continue
					}
					q, err := s.NewQuery(src, dst, f)
					if err != nil {
						t.Fatal(err)
					}
					q = mapQuery(q, fn)
					want, _, _, _, err := referenceDecode(q, nil)
					if err != nil {
						t.Fatal(err)
					}
					var dec Decoder
					var res Result
					_, dCert := boundCounts(func() { res = dec.Decode(q, Opts{}) })
					dec.Release()
					if res.OK != (want >= 0) || res.OK && res.Dist != want {
						t.Fatalf("%s/%s |F|=%d: %d→%d: %+v (certified %v), the reference δ=%d", gc.name, flavour, nf, q.S.V, q.T.V, res, dCert == 1, want)
					}
					decodes++
					certified += int(dCert)
					if nf > 0 {
						faultedCertified += int(dCert)
					}
				}
			}
			t.Logf("%s/%s: %d of %d decodes certified, %d of them under faults", gc.name, flavour, certified, decodes, faultedCertified)
			if certified == faultedCertified || faultedCertified == 0 {
				t.Errorf("%s/%s: %d certified, %d under faults: the certificate must fire with no faults and under them", gc.name, flavour, certified, faultedCertified)
			}
		}
	}
}

// certLabel is a hand-built label of vertex v with two levels, 3 and 4
// (c = 2, L = 4): the ball points of each as vertex → distance.
func certLabel(t *testing.T, v int32, lv3, lv4 map[int32]int32) *Label {
	t.Helper()
	l := &Label{V: v, Epsilon: 2, C: 2, MaxLevel: 4}
	for _, pts := range []map[int32]int32{lv3, lv4} {
		var lv LevelLabel
		for x := int32(0); x < 8; x++ {
			if d, ok := pts[x]; ok {
				lv.Points = append(lv.Points, PointEntry{X: x, D: d})
			}
		}
		l.Levels = append(l.Levels, lv)
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("hand-built label of %d: %v", v, err)
	}
	return l
}

// TestLabelCertificateHandBuilt pins what the certificate tests point by
// point, on hand-built labels of s = 0 and t = 1 whose only tight point
// is x = 2: s and t are 10 apart, x is 5 from each, and y = 4 (12 from s,
// 2 from t) makes L = 10. Without faults the labels answer 10 alone. A
// fault whose protected balls hold x and s masks s's self edges to x, and
// a forbidden x takes both: either way the decode searches H and finds
// 14, over y. A fault whose level-3 ball holds x and t, and whose level-4
// ball holds x and s, leaves s–x at level 3 and x–t at level 4: certified.
func TestLabelCertificateHandBuilt(t *testing.T) {
	ls := certLabel(t, 0, map[int32]int32{0: 0, 2: 5, 4: 12}, map[int32]int32{0: 0, 2: 5})
	lt := certLabel(t, 1, map[int32]int32{1: 0, 2: 5, 4: 2}, map[int32]int32{1: 0, 2: 5})
	lx := certLabel(t, 2, map[int32]int32{2: 0}, map[int32]int32{2: 0})
	cases := []struct {
		name      string
		faults    []*Label
		dist      int64
		certified bool
	}{
		{"no fault", nil, 10, true},
		{"s and x in a protected ball", []*Label{certLabel(t, 3, map[int32]int32{0: 3, 2: 3, 3: 0}, map[int32]int32{0: 3, 2: 3, 3: 0})}, 14, false},
		{"x forbidden", []*Label{lx}, 14, false},
		{"s–x at level 3, x–t at level 4", []*Label{certLabel(t, 3, map[int32]int32{1: 3, 2: 3, 3: 0}, map[int32]int32{0: 3, 2: 3, 3: 0})}, 10, true},
	}
	for _, c := range cases {
		q := &Query{S: ls, T: lt, VertexFaults: c.faults}
		if l := labelBound(ls, lt); l != 10 {
			t.Fatalf("L = %d, want 10", l)
		}
		want, _, _, _, err := referenceDecode(q, nil)
		if err != nil || want != c.dist {
			t.Fatalf("%s: the reference δ = %d (%v), want %d", c.name, want, err, c.dist)
		}
		var dec Decoder
		var res Result
		_, dCert := boundCounts(func() { res = dec.Decode(q, Opts{}) })
		dec.Release()
		if !res.OK || res.Dist != c.dist || (dCert == 1) != c.certified {
			t.Errorf("%s: %+v, certified %v; want δ = %d, certified %v", c.name, res, dCert == 1, c.dist, c.certified)
		}
	}
}

// certifies reports whether a δ-only decode of q tests the certificate —
// its plan asks for one and the labels' least sum is their bound — and
// whether it holds.
func certifies(q *Query) (tested, holds bool) {
	var dec Decoder
	defer dec.Release()
	sc := dec.scratch()
	rq, _, ok := sc.demote(q)
	if !ok || rq.Validate() != nil || rq.S.V == rq.T.V {
		return false, false
	}
	p := sc.plan(&rq, Opts{})
	sc.setEnds(&rq)
	if l, u := sc.boundMerge(rq.S, rq.T); !p.certify || u != l {
		return false, false
	}
	return true, sc.certified(&rq)
}

// mustCertify fails t unless a δ-only decode of q tests the certificate
// and it holds exactly when want says.
func mustCertify(t *testing.T, what string, q *Query, want bool) {
	t.Helper()
	if tested, holds := certifies(q); !tested || holds != want {
		t.Fatalf("%s: certificate tested %v, holds %v; want tested, holding %v", what, tested, holds, want)
	}
}
