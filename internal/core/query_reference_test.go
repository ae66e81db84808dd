package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fsdl/internal/graph"
)

// referenceDecode is the definition the decoder is held to, written for
// reading and not for speed (maps, per-call allocations, the textbook
// Dijkstra of graph.Weighted): referenceScan collects every admitted candidate edge, in the
// documented scan order because that is the order a Budget is charged in
// and nothing else, and the rest is a function of that *set*.
//
// H has one edge per unordered pair {x, y}: its weight is the lightest
// admitted for the pair, its Level the lowest level admitting the pair.
// δ is d_H(s, t), and the walk is the one on which every vertex's
// predecessor is its tight predecessor — d(u) + w(u, v) = d(v) — of the
// smallest vertex id. Nothing in it depends on which owner, or which of
// two passes, produced an edge first.
func referenceDecode(q *Query, tr *Trace, patches ...PatchEdge) (int64, []SketchEdge, int, bool, error) {
	if err := q.Validate(); err != nil {
		return 0, nil, 0, false, err
	}
	if q.S.V == q.T.V {
		if tr != nil {
			tr.Path = []int32{q.S.V}
		}
		return 0, nil, 1, false, nil
	}
	cands, exhausted := referenceScan(q, tr, patches)

	best := map[uint64]SketchEdge{}
	adj := map[int32][]int32{q.S.V: nil, q.T.V: nil}
	for _, c := range cands {
		e, ok := best[c.key]
		if !ok {
			e = SketchEdge{X: int32(c.key >> 32), Y: int32(c.key & 0xffffffff), W: c.w, Level: c.level}
			adj[e.X] = append(adj[e.X], e.Y)
			adj[e.Y] = append(adj[e.Y], e.X)
		}
		e.W, e.Level = min(e.W, c.w), min(e.Level, c.level)
		best[c.key] = e
	}
	edges := make([]SketchEdge, 0, len(best))
	for _, e := range best {
		edges = append(edges, e)
	}
	slices.SortFunc(edges, func(a, b SketchEdge) int {
		return cmp.Compare(unorderedKey(a.X, a.Y), unorderedKey(b.X, b.Y))
	})

	// Distances from s by the textbook Dijkstra of graph.Weighted, over
	// the vertices in ascending id order.
	verts := make([]int32, 0, len(adj))
	for v := range adj {
		verts = append(verts, v)
	}
	slices.Sort(verts)
	idOf := map[int32]int{}
	for i, v := range verts {
		idOf[v] = i
	}
	h := graph.NewWeighted(len(verts))
	for _, e := range edges {
		h.AddEdge(idOf[e.X], idOf[e.Y], e.W)
	}
	dist := h.Dijkstra(idOf[q.S.V])
	d := dist[idOf[q.T.V]]
	if tr != nil {
		tr.NumHVertices = len(verts)
		tr.NumHEdges = len(edges)
		tr.Path = nil
		tr.PathWeights = nil
		if d != graph.WeightedInfinity {
			for v := q.T.V; ; {
				tr.Path = append(tr.Path, v)
				if v == q.S.V {
					break
				}
				parent := int32(-1)
				for _, u := range adj[v] {
					du := dist[idOf[u]]
					if du != graph.WeightedInfinity && du+best[unorderedKey(u, v)].W == dist[idOf[v]] && (parent < 0 || u < parent) {
						parent = u
					}
				}
				tr.PathWeights = append(tr.PathWeights, best[unorderedKey(parent, v)].W)
				v = parent
			}
			slices.Reverse(tr.Path)
			slices.Reverse(tr.PathWeights)
		}
	}
	if d == graph.WeightedInfinity {
		return -1, edges, len(verts), exhausted, nil
	}
	return d, edges, len(verts), exhausted, nil
}

// refCand is one admitted candidate edge of a reference scan: the
// unordered pair, the stored weight, the level whose list it came from,
// and whether it is a pending insert's unit edge.
type refCand struct {
	key   uint64
	w     int64
	level int
	patch bool
}

// referenceScan is the admission half of referenceDecode: the patch
// edges, free of budget, then the stored edges and owner-ball edges of s,
// t, F and the patch endpoints in that order, every one examined charged
// to q.Budget and tallied in tr — hash probes for every membership test,
// as the paper states them. q is valid and s ≠ t.
func referenceScan(q *Query, tr *Trace, patches []PatchEdge) (cands []refCand, exhausted bool) {
	lowest := q.S.C + 1
	numLevels := len(q.S.Levels)

	owners := make([]*Label, 0, 2+len(q.VertexFaults)+2*len(q.EdgeFaults))
	seenOwner := map[int32]bool{}
	addOwner := func(l *Label) {
		if !seenOwner[l.V] {
			seenOwner[l.V] = true
			owners = append(owners, l)
		}
	}
	addOwner(q.S)
	addOwner(q.T)
	var centers []*Label
	seenCenter := map[int32]bool{}
	forbiddenV := map[int32]bool{}
	for _, f := range q.VertexFaults {
		addOwner(f)
		forbiddenV[f.V] = true
		if !seenCenter[f.V] {
			seenCenter[f.V] = true
			centers = append(centers, f)
		}
	}
	forbiddenE := map[uint64]bool{}
	for _, ef := range q.EdgeFaults {
		forbiddenE[unorderedKey(ef[0].V, ef[1].V)] = true
		for _, l := range ef {
			addOwner(l)
			if !seenCenter[l.V] {
				seenCenter[l.V] = true
				centers = append(centers, l)
			}
		}
	}
	degraded := len(q.DegradedVertexFaults) > 0 || len(q.DegradedEdgeFaults) > 0
	for _, v := range q.DegradedVertexFaults {
		forbiddenV[v] = true
	}
	for _, ef := range q.DegradedEdgeFaults {
		forbiddenE[unorderedKey(ef[0], ef[1])] = true
	}

	examined := 0
	allow := func() bool {
		if q.Budget > 0 && examined >= q.Budget {
			exhausted = true
			return false
		}
		examined++
		return true
	}

	if tr != nil {
		tr.AdmittedPerLevel = make([]int, numLevels)
		tr.RejectedPerLevel = make([]int, numLevels)
	}
	admit := func(x, y int32, w int64, level int, patch bool) {
		if x == y {
			return
		}
		cands = append(cands, refCand{key: unorderedKey(x, y), w: w, level: level, patch: patch})
		if tr != nil {
			tr.AdmittedPerLevel[level-lowest]++
		}
	}
	reject := func(level int) {
		if tr != nil {
			tr.RejectedPerLevel[level-lowest]++
		}
	}
	for _, p := range patches {
		if !usableWith(p.U, q.S) || !usableWith(p.V, q.S) || p.U.V == p.V.V ||
			forbiddenV[p.U.V] || forbiddenV[p.V.V] || forbiddenE[unorderedKey(p.U.V, p.V.V)] {
			continue
		}
		admit(p.U.V, p.V.V, 1, lowest, true)
		addOwner(p.U)
		addOwner(p.V)
	}
	pbIndex := make([][]map[int32]bool, len(centers))
	for fi, f := range centers {
		pbIndex[fi] = make([]map[int32]bool, numLevels)
		for k := 0; k < numLevels; k++ {
			level := lowest + k
			lambda := lambdaOf(level)
			idx := make(map[int32]bool)
			idx[f.V] = true
			if k < len(f.Levels) {
				for _, pe := range f.Levels[k].Points {
					if pe.D <= lambda {
						idx[pe.X] = true
					}
				}
			}
			pbIndex[fi][k] = idx
		}
	}
	safe := func(level int, x, y int32) bool {
		if degraded {
			return false
		}
		if q.UnsafeIgnoreProtectedBalls {
			return true
		}
		k := level - lowest
		for fi := range centers {
			idx := pbIndex[fi][k]
			if idx[x] && idx[y] {
				return false
			}
		}
		return true
	}
	ownerMayBeInPB := make([][][]bool, len(owners))
	for oi, o := range owners {
		ownerMayBeInPB[oi] = make([][]bool, len(centers))
		for fi, f := range centers {
			row := make([]bool, numLevels)
			for k := 0; k < numLevels; k++ {
				row[k] = mayBeInPB(o, f, lowest+k)
			}
			ownerMayBeInPB[oi][fi] = row
		}
	}
	ownerSafe := func(oi, level int, x int32) bool {
		if q.UnsafeIgnoreProtectedBalls {
			return true
		}
		k := level - lowest
		for fi := range centers {
			if pbIndex[fi][k][x] && ownerMayBeInPB[oi][fi][k] {
				return false
			}
		}
		return true
	}

	for oi, o := range owners {
		for k := 0; k < numLevels; k++ {
			level := lowest + k
			lv := &o.Levels[k]
			edges := o.LevelEdges(k, nil)
			lambda := lambdaOf(level)
			if level == lowest {
				for _, e := range edges {
					if !allow() {
						break
					}
					x, y := lv.Points[e.XI].X, lv.Points[e.YI].X
					if forbiddenV[x] || forbiddenV[y] || forbiddenE[unorderedKey(x, y)] {
						reject(level)
						continue
					}
					admit(x, y, int64(e.D), level, false)
				}
			} else {
				for _, e := range edges {
					if !allow() {
						break
					}
					x, y := lv.Points[e.XI].X, lv.Points[e.YI].X
					if forbiddenV[x] || forbiddenV[y] || !safe(level, x, y) {
						reject(level)
						continue
					}
					admit(x, y, int64(e.D), level, false)
				}
			}
			if forbiddenV[o.V] {
				continue
			}
			for _, pe := range lv.Points {
				if pe.D > lambda || pe.X == o.V {
					continue
				}
				if !allow() {
					break
				}
				if forbiddenV[pe.X] {
					reject(level)
					continue
				}
				if degraded {
					if pe.D != 1 || forbiddenE[unorderedKey(o.V, pe.X)] {
						reject(level)
						continue
					}
				} else if !ownerSafe(oi, level, pe.X) {
					reject(level)
					continue
				}
				admit(o.V, pe.X, int64(pe.D), level, false)
			}
		}
	}
	return cands, exhausted
}

// TestParallelCandidatesAgree is the premise the canonical sketch rests
// on: every stored edge {x, y} carries the exact d_G(x, y) whatever level
// or owner it came from, so over the whole differential corpus any two
// admitted candidates for one pair weigh the same — unless the lighter is
// a pending insert's unit edge, the one thing that shortens d_G. Were it
// otherwise, "the lightest admitted" would depend on which owners a
// budget reached, and a multigraph solve would still be right but the
// sketch reported by Query.Sketch would not be the set H of the paper.
func TestParallelCandidatesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, cg := range corpusGraphs(t) {
		cases, candidates, pairs, patched := 0, 0, 0, 0
		for i, c := range decodeCorpus(t, cg, rng) {
			if c.q.Validate() != nil {
				continue // a label the robust entry demotes: the strict decode refuses it
			}
			if raceEnabled && i%4 != 0 {
				continue // one goroutine: nothing for the detector to find, 10× the time
			}
			cands, _ := referenceScan(c.q, nil, c.patches)
			stored := map[uint64]refCand{}
			seen := map[uint64]bool{}
			for _, cand := range cands {
				seen[cand.key] = true
				if cand.patch {
					if cand.w != 1 {
						t.Fatalf("%s: patch candidate %+v is not a unit edge", c.name, cand)
					}
					patched++
					continue
				}
				if first, ok := stored[cand.key]; ok && first.w != cand.w {
					t.Fatalf("%s: {%d,%d} admitted with weight %d at level %d and %d at level %d",
						c.name, cand.key>>32, cand.key&0xffffffff, first.w, first.level, cand.w, cand.level)
				}
				stored[cand.key] = cand
			}
			cases++
			candidates += len(cands)
			pairs += len(seen)
		}
		if patched == 0 {
			t.Errorf("%s: no pending insert among the candidates", cg.name)
		}
		t.Logf("%s: %d decodes, %d candidates for %d edges of H (%.2f per edge)", cg.name, cases, candidates, pairs, float64(candidates)/float64(pairs))
	}
}

// referenceCase is one corpus entry: a query built on a scheme with some
// fault shape.
type referenceCase struct {
	name string
	q    *Query
}

// referenceCorpus assembles queries covering every decode code path:
// fault-free, vertex faults, edge faults, mixed, degraded tiers, tight
// budgets, and the ablation flag.
func referenceCorpus(t *testing.T, s *Scheme, g *graph.Graph, rng *rand.Rand) []referenceCase {
	t.Helper()
	n := g.NumVertices()
	mustQuery := func(src, dst int, f *graph.FaultSet) *Query {
		q, err := s.NewQuery(src, dst, f)
		if err != nil {
			t.Fatalf("NewQuery(%d,%d): %v", src, dst, err)
		}
		return q
	}
	pick := func(avoid ...int) int {
		for {
			v := rng.Intn(n)
			ok := true
			for _, a := range avoid {
				if v == a {
					ok = false
				}
			}
			if ok {
				return v
			}
		}
	}
	var cases []referenceCase
	for i := 0; i < 6; i++ {
		src, dst := pick(), 0
		dst = pick(src)
		cases = append(cases, referenceCase{"nofaults", mustQuery(src, dst, nil)})

		fv := graph.NewFaultSet()
		fv.AddVertex(pick(src, dst))
		fv.AddVertex(pick(src, dst))
		cases = append(cases, referenceCase{"vfaults", mustQuery(src, dst, fv)})

		fe := graph.NewFaultSet()
		u := pick(src, dst)
		nbrs := g.Neighbors(u)
		if len(nbrs) > 0 {
			fe.AddEdge(u, int(nbrs[rng.Intn(len(nbrs))]))
			cases = append(cases, referenceCase{"efaults", mustQuery(src, dst, fe)})
		}

		mixed := graph.NewFaultSet()
		mixed.AddVertex(pick(src, dst))
		w := pick(src, dst)
		if nb := g.Neighbors(w); len(nb) > 0 {
			mixed.AddEdge(w, int(nb[0]))
		}
		qm := mustQuery(src, dst, mixed)
		qm.Budget = 1 + rng.Intn(200)
		cases = append(cases, referenceCase{"mixed+budget", qm})

		qd := mustQuery(src, dst, nil)
		qd.DegradedVertexFaults = []int32{int32(pick(src, dst))}
		qd.DegradedEdgeFaults = [][2]int32{{int32(src), int32(pick(src))}}
		cases = append(cases, referenceCase{"degraded", qd})

		qa := mustQuery(src, dst, fv)
		qa.UnsafeIgnoreProtectedBalls = true
		cases = append(cases, referenceCase{"ablated", qa})
	}
	// Same-vertex and forbidden-owner shapes.
	v := pick()
	cases = append(cases, referenceCase{"same", mustQuery(v, v, nil)})

	// Center counts on both sides of every mask-width boundary: 62 is the
	// last fused one-word set, 63 and 64 the plain one-word sets, 70 needs
	// two words. Five edge faults bring two centers each, so |F| < centers.
	// The vertex faults are the head of a BFS order and the edge faults are
	// spread evenly over the rest of it: numbered after the vertex faults
	// they hold the highest mask bits — the ones a wrong width loses — and
	// on a graph much wider than the lowest net levels' λ (32, 64) their
	// protected balls are covered by no other center's, so a lost bit shows.
	// (Scattered over a small graph, this many balls cover every net-level
	// edge and all rules agree on rejecting everything.)
	for _, centers := range []int{62, 63, 64, 70} {
		if n < 10*centers {
			continue
		}
		order := []int{0}
		seen := map[int]bool{0: true}
		for i := 0; i < len(order); i++ {
			for _, w := range g.Neighbors(order[i]) {
				if !seen[int(w)] {
					seen[int(w)] = true
					order = append(order, int(w))
				}
			}
		}
		f := graph.NewFaultSet()
		used := map[int]bool{}
		for _, u := range order[:centers-10] {
			f.AddVertex(u)
			used[u] = true
		}
		for j := 1; j <= 5; j++ {
			u := order[centers-10+j*(n-centers+10)/6]
			f.AddEdge(u, int(g.Neighbors(u)[0]))
			used[u], used[int(g.Neighbors(u)[0])] = true, true
		}
		src := pick()
		for used[src] {
			src = pick()
		}
		dst := pick(src)
		for used[dst] {
			dst = pick(src)
		}
		name := fmt.Sprintf("centers%d", centers)
		cases = append(cases, referenceCase{name, mustQuery(src, dst, f)})
		// A budget that runs out among the fault owners' scans, past s and t.
		var full Trace
		referenceDecode(mustQuery(src, dst, f), &full)
		work := 0
		for k := range full.AdmittedPerLevel {
			work += full.AdmittedPerLevel[k] + full.RejectedPerLevel[k]
		}
		qb := mustQuery(src, dst, f)
		qb.Budget = work/3 + rng.Intn(work/3)
		cases = append(cases, referenceCase{name + "+budget", qb})
		qa := mustQuery(src, dst, f)
		qa.UnsafeIgnoreProtectedBalls = true
		cases = append(cases, referenceCase{name + "+ablated", qa})
	}
	if qa := aliasedEdgesQuery(s, n); qa != nil {
		cases = append(cases, referenceCase{"aliased", qa})
	} else if n >= 800 {
		t.Fatalf("no two labels of a %d-vertex graph have equally large, different balls", n)
	}
	// Every case once more with nothing shared: scheme labels hold one
	// edge list per saturated level between them, these hold a private
	// copy each, and the decoder must not be able to tell. And once more
	// over the labels a factored container hands out: the level graphs
	// through their encoding, each label induced from its balls alone.
	factored := factoredLabels(t, s)
	for _, c := range cases {
		cases = append(cases,
			referenceCase{c.name + "+unshared", mapQuery(c.q, unsharedLabel)},
			referenceCase{c.name + "+factored", mapQuery(c.q, factored)})
	}
	return cases
}

// factoredLabels returns the read path of a factored container minus its
// bit codec: the scheme's level graphs decoded from their encoding, and
// a label rebuilt from nothing but its balls (LevelGraphs.Label). For a
// label the scheme extracted the result must be that label: the same
// points, and through LevelEdges the same edges, of which it holds only
// a saturated level's.
func factoredLabels(t testing.TB, s *Scheme) func(*Label) *Label {
	t.Helper()
	lg, err := LoadLevelGraphs(s.LevelGraphs().Encode())
	if err != nil {
		t.Fatal(err)
	}
	return func(l *Label) *Label {
		if l == nil {
			return nil
		}
		m, err := lg.Label(l.V, ballsOf(l))
		if err != nil {
			t.Fatalf("label of %d from its balls: %v", l.V, err)
		}
		if err := m.validate(); err != nil {
			t.Fatalf("label of %d from its balls fails the full Validate walk: %v", l.V, err)
		}
		want := s.Label(int(l.V))
		for k := range want.Levels {
			if !slices.Equal(m.Levels[k].Points, want.Levels[k].Points) || !slices.Equal(m.LevelEdges(k, nil), want.Levels[k].Edges) {
				t.Fatalf("label of %d from its balls differs from the extracted label at level index %d", l.V, k)
			}
			if saturated := len(m.Levels[k].Points) == len(lg.NetPoints(k)); m.HoldsEdges(k) != (saturated && len(want.Levels[k].Edges) > 0) {
				t.Fatalf("label of %d from its balls: level index %d holds its edges %v, saturated %v", l.V, k, m.HoldsEdges(k), saturated)
			}
		}
		return m
	}
}

// ballsOnlyLabels is factoredLabels keeping one label per label it is
// given, so that a batch's fault labels stay the same pointers and frame;
// a label cut with other parameters than the scheme's passes as it is.
func ballsOnlyLabels(t testing.TB, s *Scheme) func(*Label) *Label {
	factored := factoredLabels(t, s)
	memo := make(map[*Label]*Label)
	return func(l *Label) *Label {
		if l == nil || l.C != s.params.C || l.MaxLevel != s.params.MaxLevel || l.RShrink != s.params.RShrink {
			return l
		}
		if m, ok := memo[l]; ok {
			return m
		}
		m := factored(l)
		memo[l] = m
		return m
	}
}

// unsharedLabel returns a deep copy of l: equal content, every edge list
// held, no backing array in common with l or with any other label.
func unsharedLabel(l *Label) *Label {
	if l == nil {
		return nil
	}
	c := *l
	c.fromBalls, c.graphs = false, nil
	c.Levels = make([]LevelLabel, len(l.Levels))
	for k, lv := range l.Levels {
		c.Levels[k] = LevelLabel{Points: slices.Clone(lv.Points), Edges: slices.Clone(l.LevelEdges(k, nil))}
	}
	return &c
}

// mapQuery returns q with every label replaced by its image under fn.
func mapQuery(q *Query, fn func(*Label) *Label) *Query {
	u := *q
	u.S, u.T = fn(q.S), fn(q.T)
	u.VertexFaults = nil
	for _, f := range q.VertexFaults {
		u.VertexFaults = append(u.VertexFaults, fn(f))
	}
	u.EdgeFaults = nil
	for _, ef := range q.EdgeFaults {
		u.EdgeFaults = append(u.EdgeFaults, [2]*Label{fn(ef[0]), fn(ef[1])})
	}
	return &u
}

// mapPatches returns the patches with every label replaced by its image
// under fn.
func mapPatches(patches []PatchEdge, fn func(*Label) *Label) []PatchEdge {
	var out []PatchEdge
	for _, p := range patches {
		out = append(out, PatchEdge{U: fn(p.U), V: fn(p.V)})
	}
	return out
}

// aliasedEdgesQuery builds what no table or scheme produces but a caller
// may: two labels whose level k shares one Edges array over different
// point sets (equally many points, so the indices stay in range and both
// labels validate). The second owner's scan of that array yields other
// candidates than the first's, so a decoder that skipped it on the
// array's address alone would lose sketch edges. nil when every pair of
// balls in the scheme is either equal or differently sized.
func aliasedEdgesQuery(s *Scheme, n int) *Query {
	for u := 0; u < n; u++ {
		for v := u + 1; v < min(n, u+40); v++ {
			lu, lv := s.Label(u), s.Label(v)
			for k := range lu.Levels {
				a, b := lu.Levels[k], lv.Levels[k]
				if len(a.Edges) == 0 || len(a.Points) != len(b.Points) ||
					slices.EqualFunc(a.Points, b.Points, func(p, q PointEntry) bool { return p.X == q.X }) {
					continue
				}
				la, lb := unsharedLabel(lu), unsharedLabel(lv)
				lb.Levels[k].Edges = la.Levels[k].Edges
				lb.validated = 0
				return &Query{S: la, T: lb}
			}
		}
	}
	return nil
}

// TestDecodeMatchesReference holds the scratch-based decode to the
// definition across the corpus: same distance, same sketch — ascending
// key, lightest weight, lowest level — same trace (counts, walk, walk
// weights).
func TestDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	graphs := map[string]*graph.Graph{
		"grid6x5": gridGraph(t, 6, 5),
		"path24":  pathGraph(t, 24),
		"rand40":  randomConnected(t, 40, 20, rng),
		"path800": pathGraph(t, 800), // wide enough for the 62- to 70-center cases
	}
	for gname, g := range graphs {
		s, err := BuildScheme(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		skipped, skippedFactored := 0, 0
		for _, tc := range referenceCorpus(t, s, g, rng) {
			wantTr := &Trace{}
			wantDist, wantEdges, _, wantExh, wantErr := referenceDecode(tc.q, wantTr)

			gotTr := &Trace{}
			sc := getScratch()
			gotDist, gotExh, gotErr := sc.decode(tc.q, Opts{Trace: gotTr})
			gotEdges := slices.Clone(sc.sketchEdges())
			gotCenters := len(sc.centers)
			putScratch(sc)
			// The one trace field the reference does not have: nothing to
			// skip where nothing is shared, and nothing else may differ.
			if strings.HasSuffix(tc.name, "+unshared") && gotTr.SharedLevelsSkipped != 0 {
				t.Errorf("%s/%s: %d levels skipped with no list shared", gname, tc.name, gotTr.SharedLevelsSkipped)
			}
			skipped += gotTr.SharedLevelsSkipped
			if strings.HasSuffix(tc.name, "+factored") {
				skippedFactored += gotTr.SharedLevelsSkipped
			}
			gotTr.SharedLevelsSkipped = 0
			// A "centers<N>" case must reach the scan loop it was built for.
			var wantCenters int
			if _, err := fmt.Sscanf(tc.name, "centers%d", &wantCenters); err == nil && gotCenters != wantCenters {
				t.Fatalf("%s/%s: decoded with %d centers", gname, tc.name, gotCenters)
			}

			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s/%s: err mismatch: ref %v, got %v", gname, tc.name, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if gotDist != wantDist || gotExh != wantExh {
				t.Errorf("%s/%s: dist/exhausted = (%d,%v), reference (%d,%v)",
					gname, tc.name, gotDist, gotExh, wantDist, wantExh)
			}
			if tc.q.S.V != tc.q.T.V && !reflect.DeepEqual(gotEdges, wantEdges) {
				t.Errorf("%s/%s: sketch edges diverge: %d edges vs reference %d",
					gname, tc.name, len(gotEdges), len(wantEdges))
			}
			if !reflect.DeepEqual(gotTr, wantTr) {
				t.Errorf("%s/%s: trace diverges:\n got %+v\nwant %+v", gname, tc.name, gotTr, wantTr)
			}

			// The public wrappers must agree with the raw decode.
			d, ok := tc.q.Distance()
			if wantDist < 0 && ok {
				t.Errorf("%s/%s: Distance ok=true for unreachable", gname, tc.name)
			}
			if wantDist >= 0 && (!ok || d != wantDist) {
				t.Errorf("%s/%s: Distance = (%d,%v), want (%d,true)", gname, tc.name, d, ok, wantDist)
			}
		}
		if skipped == 0 {
			t.Errorf("%s: no owner level was ever skipped — the shared half of the corpus shares nothing", gname)
		}
		// Labels induced from one set of level graphs share their
		// saturated levels by construction — no table was involved.
		if skippedFactored == 0 {
			t.Errorf("%s: no owner level of a factored label was ever skipped", gname)
		}
	}
}

// TestSketchMatchesReference pins Sketch() to the canonical H of the
// reference — ascending key, lightest weight, lowest level — and its
// nil-vs-copy semantics.
func TestSketchMatchesReference(t *testing.T) {
	g := gridGraph(t, 5, 5)
	s, err := BuildScheme(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := graph.NewFaultSet()
	f.AddVertex(12)
	q, err := s.NewQuery(0, 24, f)
	if err != nil {
		t.Fatal(err)
	}
	_, wantEdges, _, _, _ := referenceDecode(q, nil)
	got, err := q.Sketch()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wantEdges) {
		t.Errorf("Sketch diverges from reference: %d vs %d edges", len(got), len(wantEdges))
	}
	// Same endpoint: nil edges, no error (documented semantics).
	qs, err := s.NewQuery(3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if edges, err := qs.Sketch(); err != nil || edges != nil {
		t.Errorf("Sketch(s==t) = (%v,%v), want (nil,nil)", edges, err)
	}
}
