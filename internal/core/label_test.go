package core

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"fsdl/internal/graph"
	"fsdl/internal/nets"
)

func pathGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.MustBuild()
}

func gridGraph(t testing.TB, w, h int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(w * h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddEdge(y*w+x, y*w+x+1)
			}
			if y+1 < h {
				b.AddEdge(y*w+x, (y+1)*w+x)
			}
		}
	}
	return b.MustBuild()
}

func randomConnected(t testing.TB, n, extra int, rng *rand.Rand) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	added := map[[2]int]bool{}
	add := func(u, v int) {
		if u > v {
			u, v = v, u
		}
		if u == v || added[[2]int{u, v}] {
			return
		}
		added[[2]int{u, v}] = true
		b.AddEdge(u, v)
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		add(perm[i], perm[rng.Intn(i)])
	}
	for i := 0; i < extra; i++ {
		add(rng.Intn(n), rng.Intn(n))
	}
	return b.MustBuild()
}

// TestLabelContentAgainstBruteForce verifies the label of every vertex of a
// small graph against a direct implementation of the paper's definitions:
// points are exactly N_{ℓ-c-1} ∩ B(v, r_ℓ) with exact distances, edges at
// the lowest level are exactly the graph edges inside the ball, and edges
// at higher levels are exactly the point pairs at distance ≤ λ_ℓ — for
// the scheme's labels, and through LevelEdges for the labels a factored
// container materialises from their balls. Shrunk radii (the ablation
// knob) leave a grid's and a random graph's net levels unsaturated, their
// balls no id range, so rows run past the ball between its points.
func TestLabelContentAgainstBruteForce(t *testing.T) {
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		rShrink int
	}{
		{"grid7x6", gridGraph(t, 7, 6), 0},
		{"rand90/r>>1", randomConnected(t, 90, 60, rand.New(rand.NewSource(3))), 1},
		{"grid20x20/shuffled/r>>2", shuffledGrid(t, 20, 20, rand.New(rand.NewSource(4))), 2},
	} {
		s, err := BuildSchemeAblated(tc.g, 2, tc.rShrink)
		if err != nil {
			t.Fatal(err)
		}
		checkLabelsAgainstBruteForce(t, tc.name, tc.g, s)
	}
}

// shuffledGrid is the w×h grid under a random renumbering of its
// vertices, so that no ball is a range of ids.
func shuffledGrid(t testing.TB, w, h int, rng *rand.Rand) *graph.Graph {
	t.Helper()
	id := rng.Perm(w * h)
	b := graph.NewBuilder(w * h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddEdge(id[y*w+x], id[y*w+x+1])
			}
			if y+1 < h {
				b.AddEdge(id[y*w+x], id[(y+1)*w+x])
			}
		}
	}
	return b.MustBuild()
}

func checkLabelsAgainstBruteForce(t *testing.T, name string, g *graph.Graph, s *Scheme) {
	p := s.Params()
	h := s.Hierarchy()
	n := g.NumVertices()
	allDist := make([][]int32, n)
	for v := 0; v < n; v++ {
		allDist[v] = g.BFS(v)
	}
	factored := factoredLabels(t, s)
	unsaturated := make([]int, p.NumLevelRange())
	var idx ballIndex
	for v := 0; v < n; v++ {
		l := s.Label(v)
		if l.V != int32(v) || l.C != p.C || l.MaxLevel != p.MaxLevel {
			t.Fatalf("%s: label header mismatch for %d", name, v)
		}
		fl := factored(l)
		for k := range l.Levels {
			if !fl.HoldsEdges(k) {
				unsaturated[k]++
			}
			level := l.Level(k)
			netLvl := clampNetLevel(h, p.NetLevel(level))
			r := p.R(level)
			lambda := p.Lambda(level)
			// Expected points.
			wantPts := map[int32]int32{}
			for u := 0; u < n; u++ {
				if h.InNet(u, netLvl) && graph.Reachable(allDist[v][u]) && allDist[v][u] <= r {
					wantPts[int32(u)] = allDist[v][u]
				}
			}
			got := l.Levels[k]
			if len(got.Points) != len(wantPts) {
				t.Fatalf("%s: v=%d level %d: %d points, want %d", name, v, level, len(got.Points), len(wantPts))
			}
			for _, pe := range got.Points {
				if wantPts[pe.X] != pe.D {
					t.Fatalf("%s: v=%d level %d point %d: dist %d, want %d",
						name, v, level, pe.X, pe.D, wantPts[pe.X])
				}
			}
			// Expected edges.
			wantEdges := map[[2]int32]int32{}
			if level == p.LowestLevel() {
				g.ForEachEdge(func(a, b int) {
					if _, oka := wantPts[int32(a)]; !oka {
						return
					}
					if _, okb := wantPts[int32(b)]; !okb {
						return
					}
					wantEdges[[2]int32{int32(a), int32(b)}] = 1
				})
			} else {
				for x := range wantPts {
					for y := range wantPts {
						if x < y && allDist[x][y] <= lambda {
							wantEdges[[2]int32{x, y}] = allDist[x][y]
						}
					}
				}
			}
			for what, edges := range map[string][]EdgeEntry{"extracted": got.Edges, "factored": fl.LevelEdges(k, nil)} {
				if len(edges) != len(wantEdges) {
					t.Fatalf("%s: v=%d level %d: %d %s edges, want %d", name, v, level, len(edges), what, len(wantEdges))
				}
				for _, e := range edges {
					x, y := got.Points[e.XI].X, got.Points[e.YI].X
					if x > y {
						x, y = y, x
					}
					if wantEdges[[2]int32{x, y}] != e.D {
						t.Fatalf("%s: v=%d level %d %s edge (%d,%d): dist %d, want %d",
							name, v, level, what, x, y, e.D, wantEdges[[2]int32{x, y}])
					}
				}
			}
			if n := fl.levelEdgeCount(k, &idx); n != len(wantEdges) {
				t.Fatalf("%s: v=%d level %d: the factored label counts %d edges, want %d", name, v, level, n, len(wantEdges))
			}
		}
	}
	if net := unsaturated[1:]; p.RShrink > 0 && slices.Max(net) == 0 {
		t.Errorf("%s: every net-level ball saturated (%v unsaturated per level)", name, unsaturated)
	}
}

func TestLabelEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomConnected(t, 60, 80, rng)
	s, err := BuildScheme(g, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, 13, 59} {
		l := s.Label(v)
		buf, nbits := l.Encode()
		got, err := DecodeLabel(buf, nbits)
		if err != nil {
			t.Fatalf("decode label %d: %v", v, err)
		}
		if got.V != l.V || got.C != l.C || got.MaxLevel != l.MaxLevel {
			t.Fatalf("label %d header mismatch after round trip", v)
		}
		if math.Abs(got.Epsilon-l.Epsilon) > 1e-4 {
			t.Fatalf("label %d epsilon %g -> %g", v, l.Epsilon, got.Epsilon)
		}
		if len(got.Levels) != len(l.Levels) {
			t.Fatalf("label %d level count %d -> %d", v, len(l.Levels), len(got.Levels))
		}
		for k := range l.Levels {
			a, b := l.Levels[k], got.Levels[k]
			if len(a.Points) != len(b.Points) || len(a.Edges) != len(b.Edges) {
				t.Fatalf("label %d level %d size mismatch", v, k)
			}
			for i := range a.Points {
				if a.Points[i] != b.Points[i] {
					t.Fatalf("label %d level %d point %d mismatch", v, k, i)
				}
			}
			for i := range a.Edges {
				if a.Edges[i] != b.Edges[i] {
					t.Fatalf("label %d level %d edge %d mismatch", v, k, i)
				}
			}
		}
	}
}

func TestDecodeLabelRejectsGarbage(t *testing.T) {
	if _, err := DecodeLabel([]byte{0xff, 0xff}, 16); err == nil {
		t.Error("garbage should not decode")
	}
	if _, err := DecodeLabel(nil, 0); err == nil {
		t.Error("empty buffer should not decode")
	}
}

func TestInProtectedBallMatchesTrueDistances(t *testing.T) {
	g := gridGraph(t, 8, 8)
	s, _ := BuildScheme(g, 2)
	p := s.Params()
	f := 27 // interior vertex
	lf := s.Label(f)
	distF := g.BFS(f)
	for level := p.LowestLevel(); level <= p.MaxLevel; level++ {
		lambda := p.Lambda(level)
		netLvl := clampNetLevel(s.Hierarchy(), p.NetLevel(level))
		for x := 0; x < g.NumVertices(); x++ {
			if !s.Hierarchy().InNet(x, netLvl) && x != f {
				continue
			}
			want := distF[x] <= lambda
			if got := lf.InProtectedBall(level, int32(x)); got != want {
				t.Errorf("level %d x=%d: InProtectedBall = %v, want %v (d=%d, lambda=%d)",
					level, x, got, want, distF[x], lambda)
			}
		}
	}
}

func TestLabelBitsPositiveAndConsistent(t *testing.T) {
	g := pathGraph(t, 40)
	s, _ := BuildScheme(g, 2)
	for v := 0; v < 40; v += 7 {
		bits := s.LabelBits(v)
		if bits <= 0 {
			t.Fatalf("LabelBits(%d) = %d", v, bits)
		}
		buf, n := s.Label(v).Encode()
		if n != bits {
			t.Fatalf("LabelBits(%d) = %d, Encode says %d", v, bits, n)
		}
		if len(buf)*8 < n {
			t.Fatalf("buffer too short: %d bytes for %d bits", len(buf), n)
		}
	}
}

func TestTopLevelBallCoversComponent(t *testing.T) {
	// Claim 1(b): N_{L-c-1} ⊆ B_L(v) for every v — the top-level label
	// sees every top-net point of the component.
	g := gridGraph(t, 10, 10)
	s, _ := BuildScheme(g, 2)
	p := s.Params()
	h := s.Hierarchy()
	netLvl := clampNetLevel(h, p.NetLevel(p.MaxLevel))
	want := 0
	for v := 0; v < g.NumVertices(); v++ {
		if h.InNet(v, netLvl) {
			want++
		}
	}
	for _, v := range []int{0, 45, 99} {
		l := s.Label(v)
		got := len(l.Levels[len(l.Levels)-1].Points)
		if got != want {
			t.Errorf("v=%d: top level has %d points, want %d", v, got, want)
		}
	}
}

func TestSchemeCache(t *testing.T) {
	g := pathGraph(t, 30)
	s, _ := BuildScheme(g, 2)
	l1 := s.Label(5)
	l2 := s.Label(5)
	if l1 != l2 {
		t.Error("cached label should be returned")
	}
	s.SetCacheLimit(0)
	l3 := s.Label(5)
	l4 := s.Label(5)
	if l3 == l4 {
		t.Error("cache disabled: fresh labels expected")
	}
	// Content must be identical regardless of caching.
	if l3.NumPoints() != l1.NumPoints() || l3.NumEdges() != l1.NumEdges() {
		t.Error("extraction must be deterministic")
	}
}

func TestHierarchyReuse(t *testing.T) {
	g := gridGraph(t, 6, 6)
	s, _ := BuildScheme(g, 2)
	h := s.Hierarchy()
	if err := h.VerifyInvariants(); err != nil {
		t.Errorf("scheme hierarchy invalid: %v", err)
	}
	var _ *nets.Hierarchy = h
}

func TestLabelValidateAcceptsRealLabels(t *testing.T) {
	g := gridGraph(t, 7, 7)
	for _, eps := range []float64{2, 1} {
		s, err := BuildScheme(g, eps)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 49; v += 6 {
			if err := s.Label(v).Validate(); err != nil {
				t.Fatalf("eps=%g v=%d: real label rejected: %v", eps, v, err)
			}
		}
	}
	ab, err := BuildSchemeAblated(g, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ab.Label(24).Validate(); err != nil {
		t.Fatalf("ablated label rejected: %v", err)
	}
}

func TestLabelValidateRejectsCorruption(t *testing.T) {
	g := gridGraph(t, 6, 6)
	s, _ := BuildScheme(g, 2)
	buf, n := s.Label(14).Encode()
	parsed, err := DecodeLabel(buf, n)
	if err != nil {
		t.Fatal(err)
	}
	// DecodeLabel has validated the parsed label, and a validated label
	// keeps its verdict: each corruption goes into a deep copy built
	// field by field, which carries none.
	fresh := func() *Label {
		l := &Label{V: parsed.V, Epsilon: parsed.Epsilon, C: parsed.C,
			MaxLevel: parsed.MaxLevel, RShrink: parsed.RShrink}
		for _, lv := range parsed.Levels {
			l.Levels = append(l.Levels, LevelLabel{
				Points: slices.Clone(lv.Points), Edges: slices.Clone(lv.Edges)})
		}
		return l
	}
	if err := fresh().Validate(); err != nil {
		t.Fatalf("uncorrupted copy rejected: %v", err)
	}
	cases := []struct {
		name    string
		corrupt func(l *Label)
	}{
		{"unsorted points", func(l *Label) {
			pts := l.Levels[0].Points
			if len(pts) >= 2 {
				pts[0], pts[1] = pts[1], pts[0]
			}
		}},
		{"distance beyond r", func(l *Label) {
			l.Levels[0].Points[0].D = 1 << 30
		}},
		{"edge index out of range", func(l *Label) {
			if len(l.Levels[0].Edges) > 0 {
				l.Levels[0].Edges[0].YI = 1 << 20
			}
		}},
		{"edge too long", func(l *Label) {
			if len(l.Levels[0].Edges) > 0 {
				l.Levels[0].Edges[0].D = 1 << 20
			}
		}},
		{"level count mismatch", func(l *Label) {
			l.Levels = l.Levels[:len(l.Levels)-1]
		}},
		{"bad c", func(l *Label) { l.C = 0 }},
	}
	for _, c := range cases {
		l := fresh()
		c.corrupt(l)
		if err := l.Validate(); err == nil {
			t.Errorf("%s: corruption not detected", c.name)
		}
	}
}

// TestLabelValidateRecordsVerdict: only a successful Validate is
// recorded, and recording it is safe on a label shared by concurrent
// queries (run under -race).
func TestLabelValidateRecordsVerdict(t *testing.T) {
	g := gridGraph(t, 6, 6)
	s, _ := BuildScheme(g, 2)
	src := s.Label(14)
	l := &Label{V: src.V, Epsilon: src.Epsilon, C: 0, MaxLevel: src.MaxLevel,
		RShrink: src.RShrink, Levels: src.Levels}
	for i := 0; i < 2; i++ {
		if l.Validate() == nil {
			t.Fatalf("call %d accepted c = 0", i)
		}
	}
	if atomic.LoadUint32(&l.validated) != 0 {
		t.Fatal("a failed Validate was recorded")
	}
	l.C = src.C
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := l.Validate(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if atomic.LoadUint32(&l.validated) == 0 {
		t.Fatal("a successful Validate was not recorded")
	}
}
