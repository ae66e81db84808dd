package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"fsdl/internal/gen"
	"fsdl/internal/graph"
)

// refDistanceRobustPatched is the decoder this package served patched
// queries with before pending inserts joined the sketch, kept verbatim
// as the differential reference: a tournament of the unpatched answer
// against d(s,u)+1+d(v,t) and d(s,v)+1+d(u,t) for every patch, each leg
// a full decode under q's fault set, the winner's legs decoded
// once more for their paths. It never routes through two patches.
func refDistanceRobustPatched(d *Decoder, q *Query, patches []PatchEdge, buf []int32, wantPath bool) (Result, []int32) {
	best := d.Decode(q, Opts{})
	// winFirst/winSecond identify the winning route for path reporting:
	// nil means the unpatched decode won, otherwise the route is
	// s..winFirst, patch edge, winSecond..t. Decoding is deterministic,
	// so the winner's legs can be re-decoded for their paths after the
	// tournament without disturbing the accumulated result flags.
	var winFirst, winSecond *Label
	if len(patches) == 0 {
		if wantPath && best.OK {
			d.Decode(q, Opts{Path: &buf})
		}
		return best, buf
	}
	forbiddenV := func(v int32) bool {
		for _, l := range q.VertexFaults {
			if l != nil && l.V == v {
				return true
			}
		}
		for _, fv := range q.DegradedVertexFaults {
			if fv == v {
				return true
			}
		}
		return false
	}
	forbiddenE := func(u, v int32) bool {
		for _, e := range q.EdgeFaults {
			if e[0] == nil || e[1] == nil {
				continue
			}
			if (e[0].V == u && e[1].V == v) || (e[0].V == v && e[1].V == u) {
				return true
			}
		}
		for _, e := range q.DegradedEdgeFaults {
			if (e[0] == u && e[1] == v) || (e[0] == v && e[1] == u) {
				return true
			}
		}
		return false
	}
	// leg answers d(a,b) under q's fault set, caching nothing: patch
	// counts are capped by the serving layer, and sub-queries reuse
	// this decoder's scratch.
	leg := func(a, b *Label) Result {
		if a.V == b.V {
			return Result{OK: true}
		}
		sub := *q
		sub.S, sub.T = a, b
		return d.Decode(&sub, Opts{})
	}
	usable := func(l *Label) bool { return l != nil && l.Validate() == nil }
	for _, p := range patches {
		if !usable(p.U) || !usable(p.V) {
			continue
		}
		u, v := p.U.V, p.V.V
		if forbiddenV(u) || forbiddenV(v) || forbiddenE(u, v) {
			continue
		}
		sU, sV := leg(q.S, p.U), leg(q.S, p.V)
		uT, vT := leg(p.U, q.T), leg(p.V, q.T)
		consider := func(a, b *Label, first, second Result) {
			if !first.OK || !second.OK {
				return
			}
			via := first.Dist + 1 + second.Dist
			if best.OK && via >= best.Dist {
				return
			}
			best.Dist = via
			best.OK = true
			best.Degraded = best.Degraded || first.Degraded || second.Degraded
			best.BudgetExhausted = best.BudgetExhausted || first.BudgetExhausted || second.BudgetExhausted
			winFirst, winSecond = a, b
		}
		consider(p.U, p.V, sU, vT) // s → u, edge, v → t
		consider(p.V, p.U, sV, uT) // s → v, edge, u → t
	}
	if !wantPath || !best.OK {
		return best, buf
	}
	if winFirst == nil {
		d.Decode(q, Opts{Path: &buf})
		return best, buf
	}
	buf = refLegPath(d, q, q.S, winFirst, buf)
	buf = refLegPath(d, q, winSecond, q.T, buf)
	return best, buf
}

// refLegPath re-decodes the leg a..b of the winning patch route under q's
// fault set and appends its witness walk to buf.
func refLegPath(d *Decoder, q *Query, a, b *Label, buf []int32) []int32 {
	if a.V == b.V {
		return append(buf, a.V)
	}
	sub := *q
	sub.S, sub.T = a, b
	d.Decode(&sub, Opts{Path: &buf})
	return buf
}

func ringLattice(t testing.TB, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
		b.AddEdge(i, (i+2)%n)
	}
	return b.MustBuild()
}

// mutatedBFS is d_{G′\F}(src,dst) on an adjacency-set model of the
// mutated graph — g plus the chords, minus F's vertices and edges —
// sharing no code with the decoder. -1 when unreachable.
func mutatedBFS(g *graph.Graph, chords [][2]int, f *graph.FaultSet, src, dst int) int64 {
	n := g.NumVertices()
	adj := make([]map[int]bool, n)
	for v := range adj {
		adj[v] = map[int]bool{}
		for _, w := range g.Neighbors(v) {
			adj[v][int(w)] = true
		}
	}
	for _, c := range chords {
		adj[c[0]][c[1]], adj[c[1]][c[0]] = true, true
	}
	dist := make([]int64, n)
	for v := range dist {
		dist[v] = -1
	}
	dist[src] = 0
	for queue := []int{src}; len(queue) > 0; queue = queue[1:] {
		v := queue[0]
		for w := range adj[v] {
			if dist[w] >= 0 || f.HasVertex(w) || f.HasEdge(v, w) {
				continue
			}
			dist[w] = dist[v] + 1
			queue = append(queue, w)
		}
	}
	return dist[dst]
}

// patchCase is one query of the differential sweep.
type patchCase struct {
	src, dst int
	chords   [][2]int
	faults   *graph.FaultSet
	q        *Query
	patches  []PatchEdge
}

// newPatchCase draws a query with k random chords and nf faults (half
// vertices, half edges; fault edges are drawn from the chords as often
// as from g, so forbidden patches occur).
func newPatchCase(t *testing.T, rng *rand.Rand, g *graph.Graph, s *Scheme, k, nf int) *patchCase {
	t.Helper()
	n := g.NumVertices()
	c := &patchCase{src: rng.Intn(n), faults: graph.NewFaultSet()}
	for c.dst = rng.Intn(n); c.dst == c.src; c.dst = rng.Intn(n) {
	}
	seen := map[uint64]bool{}
	for len(c.chords) < k {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) || seen[unorderedKey(int32(u), int32(v))] {
			continue
		}
		seen[unorderedKey(int32(u), int32(v))] = true
		c.chords = append(c.chords, [2]int{u, v})
	}
	for c.faults.NumVertices() < nf/2 {
		if v := rng.Intn(n); v != c.src && v != c.dst {
			c.faults.AddVertex(v)
		}
	}
	for c.faults.NumEdges() < nf-nf/2 {
		if len(c.chords) > 0 && rng.Intn(2) == 0 {
			e := c.chords[rng.Intn(len(c.chords))]
			c.faults.AddEdge(e[0], e[1])
			continue
		}
		u := rng.Intn(n)
		nb := g.Neighbors(u)
		c.faults.AddEdge(u, int(nb[rng.Intn(len(nb))]))
	}
	c.q = resolvePatched(t, s, c.src, c.dst, c.faults)
	c.patches = patchesOf(s, c.chords)
	return c
}

// resolvePatched resolves (src,dst,F) without NewQuery's demand that
// fault edges be edges of the scheme's graph: a request may forbid a
// pending insert.
func resolvePatched(t testing.TB, s *Scheme, src, dst int, f *graph.FaultSet) *Query {
	t.Helper()
	q, err := ResolveQuery(src, dst, f, func(v int) (*Label, error) { return s.Label(v), nil }, false)
	if err != nil || q == nil {
		t.Fatalf("resolve (%d,%d): %v", src, dst, err)
	}
	return q
}

func patchesOf(s *Scheme, chords [][2]int) []PatchEdge {
	var out []PatchEdge
	for _, e := range chords {
		out = append(out, PatchEdge{U: s.Label(e[0]), V: s.Label(e[1])})
	}
	return out
}

// admissible returns the keys of the chords a decode may use: neither
// endpoint nor the chord itself is in F.
func (c *patchCase) admissible() map[uint64]bool {
	set := map[uint64]bool{}
	for _, e := range c.chords {
		if !c.faults.HasVertex(e[0]) && !c.faults.HasVertex(e[1]) && !c.faults.HasEdge(e[0], e[1]) {
			set[unorderedKey(int32(e[0]), int32(e[1]))] = true
		}
	}
	return set
}

// checkPatched asserts the contract of one patched answer: the path and
// non-path entries agree, δ ≥ d_{G′\F}, and the reported walk is
// realizable hop by hop in G′\F with weights (patch hops 1) summing to δ.
func (c *patchCase) checkPatched(t *testing.T, g *graph.Graph, dec *Decoder, what string) Result {
	t.Helper()
	var path []int32
	got := dec.Decode(c.q, Opts{Patches: c.patches, Path: &path})
	// The path decode built H in full; a plain one may answer from the
	// labels alone (certified) and leave none.
	sketch := slices.Clone(dec.scratch().sketchEdges())
	if plain := dec.Decode(c.q, Opts{Patches: c.patches}); !reflect.DeepEqual(got, plain) {
		t.Fatalf("%s: path variant %+v != plain %+v", what, got, plain)
	}
	// Sharing level lists between the labels changes nothing: the same
	// query over private copies gives the same answer, walk and sketch.
	var upath []int32
	ugot := dec.Decode(mapQuery(c.q, unsharedLabel), Opts{Patches: mapPatches(c.patches, unsharedLabel), Path: &upath})
	if !reflect.DeepEqual(ugot, got) || !slices.Equal(upath, path) || !slices.Equal(dec.scratch().sketchEdges(), sketch) {
		t.Fatalf("%s: over unshared labels %+v %v, over the scheme's %+v %v", what, ugot, upath, got, path)
	}
	if !got.OK {
		return got
	}
	truth := mutatedBFS(g, c.chords, c.faults, c.src, c.dst)
	if truth < 0 || got.Dist < truth {
		t.Fatalf("%s: (%d,%d) chords %v F=%v: δ=%d below d_{G′\\F}=%d", what, c.src, c.dst, c.chords, c.faults, got.Dist, truth)
	}
	checkWalk(t, g, c.faults, c.admissible(), path, int32(c.src), int32(c.dst), got.Dist)
	return got
}

// missingFrom returns an edge of sub that sup lacks (or carries heavier),
// nil when sup covers sub. Both are key-ascending sketches.
func missingFrom(sup, sub []SketchEdge) *SketchEdge {
	i := 0
	for k := range sub {
		key := unorderedKey(sub[k].X, sub[k].Y)
		for i < len(sup) && unorderedKey(sup[i].X, sup[i].Y) < key {
			i++
		}
		if i == len(sup) || unorderedKey(sup[i].X, sup[i].Y) != key || sup[i].W > sub[k].W {
			return &sub[k]
		}
	}
	return nil
}

// TestPatchedSketchDifferential holds the one-sketch patched decode
// against a BFS of the mutated graph and against the tournament it
// replaced (refDistanceRobustPatched): a seeded sweep, then the
// hand-built cases the sweep cannot be trusted to draw.
//
// The sweep runs rings, grids and random geometric graphs × k chords ×
// |F| faults × {clean, degraded fault label, budgeted}: the answer is
// always sound and comes with a realizable walk, and whenever no budget
// is set it dominates the tournament — connected wherever the
// tournament was, and never longer.
func TestPatchedSketchDifferential(t *testing.T) {
	t.Run("sweep", patchedSweep)
	t.Run("two chords in series", patchedTwoChordsInSeries)
	t.Run("inadmissible patches", patchedIgnoresInadmissible)
	t.Run("budget and trace", patchedBudgetAndTrace)
	t.Run("cap is one sketch", patchedCapIsOneSketch)
}

func patchedSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	rgg, _, err := gen.RandomGeometric(110, 0.16, rng)
	if err != nil {
		t.Fatal(err)
	}
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"ring96", ringLattice(t, 96)},
		{"grid10x9", gridGraph(t, 10, 9)},
		{"rgg110", rgg},
	}
	dec, ref := NewDecoder(), NewDecoder()
	defer dec.Release()
	defer ref.Release()
	shorter, exhausted := 0, 0
	for _, fam := range families {
		s, err := BuildScheme(fam.g, 2)
		if err != nil {
			t.Fatal(err)
		}
		factored := factoredLabels(t, s)
		for _, k := range []int{0, 1, 2, 4, 16} {
			for _, nf := range []int{0, 2, 4} {
				for _, mode := range []string{"clean", "degraded", "budgeted"} {
					for rep := 0; rep < 3; rep++ {
						c := newPatchCase(t, rng, fam.g, s, k, nf)
						if rep == 2 {
							// Every third case over the labels a factored
							// container hands out.
							c.q, c.patches = mapQuery(c.q, factored), mapPatches(c.patches, factored)
						}
						switch mode {
						case "degraded":
							// One fault label goes bad: the robust entry
							// demotes it to the degraded tier by id.
							if len(c.q.VertexFaults) == 0 {
								continue
							}
							bad := *c.q.VertexFaults[0]
							bad.C += 7
							c.q.VertexFaults[0] = &bad
						case "budgeted":
							c.q.Budget = 50 + rng.Intn(3000)
						}
						what := fmt.Sprintf("%s k=%d |F|=%d %s #%d", fam.name, k, nf, mode, rep)
						got := c.checkPatched(t, fam.g, dec, what)
						if got.BudgetExhausted {
							exhausted++
						}
						if mode == "budgeted" {
							continue
						}
						old, _ := refDistanceRobustPatched(ref, c.q, c.patches, nil, false)
						if old.OK && (!got.OK || got.Dist > old.Dist) {
							t.Fatalf("%s: (%d,%d) chords %v F=%v: one sketch %+v worse than tournament %+v",
								what, c.src, c.dst, c.chords, c.faults, got, old)
						}
						if got.OK && (!old.OK || got.Dist < old.Dist) {
							shorter++
						}
						if got.Degraded != (mode == "degraded") || got.BudgetExhausted {
							t.Fatalf("%s: flags of %+v", what, got)
						}
						if mode != "clean" || c.src == c.dst {
							continue
						}
						// Patches only ever add to the sketch: their endpoints
						// are owners, never protected-ball centers.
						base, err := c.q.Sketch()
						if err != nil {
							t.Fatal(err)
						}
						if _, _, err := dec.scratch().decode(c.q, Opts{Patches: c.patches, Trace: new(Trace)}); err != nil {
							t.Fatal(err)
						}
						if e := missingFrom(dec.scratch().sketchEdges(), base); e != nil {
							t.Fatalf("%s: unpatched sketch edge %+v missing from the patched sketch", what, *e)
						}
					}
				}
			}
		}
	}
	if shorter == 0 {
		t.Error("the one-sketch decode never beat the tournament — no multi-patch route was exercised")
	}
	if exhausted == 0 {
		t.Error("no budgeted case exhausted its budget — the budget tier exercises nothing")
	}
}

// patchedRing is the fixture of the hand-built cases: a ring lattice
// and its scheme.
type patchedRing struct {
	g *graph.Graph
	s *Scheme
}

func newPatchedRing(t testing.TB, n int) *patchedRing {
	t.Helper()
	g := ringLattice(t, n)
	s, err := BuildScheme(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	return &patchedRing{g: g, s: s}
}

func (r *patchedRing) query(t testing.TB, src, dst int, f *graph.FaultSet) *Query {
	t.Helper()
	return resolvePatched(t, r.s, src, dst, f)
}

func (r *patchedRing) patches(chords ...[2]int) []PatchEdge { return patchesOf(r.s, chords) }

// faultFree is the fault-free query (src,dst) under the given chords.
func (r *patchedRing) faultFree(t testing.TB, src, dst int, chords [][2]int) *patchCase {
	t.Helper()
	return &patchCase{src: src, dst: dst, chords: chords, faults: graph.NewFaultSet(),
		q: r.query(t, src, dst, nil), patches: patchesOf(r.s, chords)}
}

// patchedTwoChordsInSeries is the case the tournament cannot win:
// s…u₁—v₁…u₂—v₂…t needs both inserted edges on one route.
func patchedTwoChordsInSeries(t *testing.T) {
	r := newPatchedRing(t, 512)
	chords := [][2]int{{10, 100}, {110, 200}}
	src, dst := 5, 205
	c := r.faultFree(t, src, dst, chords)
	dec := NewDecoder()
	defer dec.Release()
	got := c.checkPatched(t, r.g, dec, "series")
	old, _ := refDistanceRobustPatched(dec, c.q, c.patches, nil, false)
	truth := mutatedBFS(r.g, chords, nil, src, dst)
	if !got.OK || !old.OK || got.Dist >= old.Dist {
		t.Fatalf("one sketch %+v not strictly shorter than tournament %+v", got, old)
	}
	if got.Dist != truth {
		t.Fatalf("one sketch δ=%d, BFS on the mutated ring %d", got.Dist, truth)
	}
	if got.Degraded || got.BudgetExhausted {
		t.Fatalf("clean patched query flagged: %+v", got)
	}
}

// patchedIgnoresInadmissible: a patch with a forbidden
// endpoint, a patch that is itself a forbidden edge, and a patch with a
// nil or parameter-mismatched label each leave the unpatched answer
// standing; patches touching s or t, and duplicates, are ordinary.
func patchedIgnoresInadmissible(t *testing.T) {
	r := newPatchedRing(t, 64)
	dec := NewDecoder()
	defer dec.Release()
	const src, dst = 0, 32
	mismatched := *r.s.Label(31)
	mismatched.C += 7

	fv := func(vs ...int) *graph.FaultSet { return graph.FaultVertices(vs...) }
	fe := func(u, v int) *graph.FaultSet {
		f := graph.NewFaultSet()
		f.AddEdge(u, v)
		return f
	}
	for _, tc := range []struct {
		name    string
		f       *graph.FaultSet
		patches []PatchEdge
	}{
		{"forbidden endpoint", fv(31), r.patches([2]int{1, 31})},
		// Two patches meeting in a forbidden vertex: admitting either
		// would route 1—20—31 straight through the fault.
		{"forbidden shared endpoint", fv(20), r.patches([2]int{1, 20}, [2]int{20, 31})},
		{"forbidden as an edge", fe(1, 31), r.patches([2]int{1, 31})},
		{"forbidden as an edge, reversed", fe(31, 1), r.patches([2]int{1, 31})},
		{"nil label", nil, []PatchEdge{{U: nil, V: r.s.Label(31)}, {U: r.s.Label(1), V: nil}}},
		{"mismatched parameters", nil, []PatchEdge{{U: r.s.Label(1), V: &mismatched}}},
		{"self loop", nil, r.patches([2]int{7, 7})},
	} {
		q := r.query(t, src, dst, tc.f)
		var wantPath, gotPath []int32
		want := dec.Decode(q, Opts{Path: &wantPath})
		got := dec.Decode(q, Opts{Patches: tc.patches, Path: &gotPath})
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotPath, wantPath) {
			t.Errorf("%s: patched %+v %v, unpatched %+v %v", tc.name, got, gotPath, want, wantPath)
		}
		// Degraded tier: the same fault known by id only.
		if tc.f != nil {
			dq := r.query(t, src, dst, nil)
			for _, v := range tc.f.Vertices() {
				dq.DegradedVertexFaults = append(dq.DegradedVertexFaults, int32(v))
			}
			for _, e := range tc.f.Edges() {
				dq.DegradedEdgeFaults = append(dq.DegradedEdgeFaults, [2]int32{int32(e[0]), int32(e[1])})
			}
			want := dec.Decode(dq, Opts{})
			if got := dec.Decode(dq, Opts{Patches: tc.patches}); !reflect.DeepEqual(got, want) {
				t.Errorf("%s (degraded): patched %+v, unpatched %+v", tc.name, got, want)
			}
		}
	}

	for _, tc := range []struct {
		name   string
		chords [][2]int
		want   int64
	}{
		{"patch at s", [][2]int{{0, 31}}, 2},
		{"patch at t", [][2]int{{1, 32}}, 2},
		{"patch is (s,t)", [][2]int{{32, 0}}, 1},
		{"duplicates", [][2]int{{1, 31}, {31, 1}, {1, 31}}, 3},
	} {
		c := r.faultFree(t, src, dst, tc.chords)
		if got := c.checkPatched(t, r.g, dec, tc.name); !got.OK || got.Dist != tc.want {
			t.Errorf("%s: %+v, want dist %d", tc.name, got, tc.want)
		}
	}
}

// patchedBudgetAndTrace pins the budget and trace semantics of the
// one sketch: the budget caps every stored edge examined, patch owners'
// included, and is not spent on the patch edges; patch owners come
// after s, t and F, so under any budget the base sketch gets exactly
// what an unpatched query's would — a budget no larger than the number
// of patches included; and the trace counts patch edges at the lowest
// level.
func patchedBudgetAndTrace(t *testing.T) {
	r := newPatchedRing(t, 256)
	q := r.query(t, 3, 120, graph.FaultVertices(60, 61))
	chords := [][2]int{{5, 118}, {9, 40}, {44, 90}, {200, 230}}
	patches := r.patches(chords...)
	sc := getScratch()
	defer putScratch(sc)
	examined := func(tr *Trace) (n int) {
		for k := range tr.AdmittedPerLevel {
			n += tr.AdmittedPerLevel[k] + tr.RejectedPerLevel[k]
		}
		return n
	}

	var base, full Trace
	baseDist, _, err := sc.decode(q, Opts{Trace: &base})
	if err != nil || baseDist < 0 {
		t.Fatalf("unpatched decode: %d %v", baseDist, err)
	}
	fullDist, _, err := sc.decode(q, Opts{Patches: patches, Trace: &full})
	if err != nil || fullDist != 3 {
		t.Fatalf("patched decode: %d %v, want 3: 3–5, chord (5,118), 118–120", fullDist, err)
	}
	if got := full.AdmittedPerLevel[0] - base.AdmittedPerLevel[0]; got < len(chords) {
		t.Errorf("AdmittedPerLevel[0] grew by %d with %d patch edges", got, len(chords))
	}
	patchEdges := 0
	for _, e := range sc.sketchEdges() {
		for _, c := range chords {
			if unorderedKey(e.X, e.Y) == unorderedKey(int32(c[0]), int32(c[1])) {
				patchEdges++
				if e.W != 1 || e.Level != q.S.C+1 {
					t.Errorf("patch edge %v in the sketch as %+v, want weight 1 at the lowest level", c, e)
				}
			}
		}
	}
	if patchEdges != len(chords) {
		t.Errorf("%d of %d patch edges in the sketch", patchEdges, len(chords))
	}
	if examined(&full) <= examined(&base)+len(chords) {
		t.Fatalf("patched decode examined %d candidates, unpatched %d: patch owners were not scanned", examined(&full), examined(&base))
	}

	// charged is what a traced decode spent of its budget: everything it
	// tallied but the patch edges, which are free.
	charged := func(tr *Trace) int { return examined(tr) - len(chords) }
	// A budget the base decode alone would use up — down to one smaller
	// than the number of patches — is spent on s, t and F candidate for
	// candidate as without patches, and the answer is no worse.
	for _, budget := range []int{1, len(chords), examined(&base) / 2, examined(&base)} {
		bq := *q
		bq.Budget = budget
		var without, with Trace
		baseB, _, err := sc.decode(&bq, Opts{Trace: &without})
		if err != nil {
			t.Fatal(err)
		}
		dist, exhausted, err := sc.decode(&bq, Opts{Patches: patches, Trace: &with})
		if err != nil {
			t.Fatal(err)
		}
		if charged(&with) != examined(&without) || !exhausted {
			t.Errorf("budget %d: patched decode charged %d (exhausted=%v), unpatched %d: the patches took from the base sketch",
				budget, charged(&with), exhausted, examined(&without))
		}
		if baseB >= 0 && (dist < 0 || dist > baseB) {
			t.Errorf("budget %d: δ=%d with patches, %d without", budget, dist, baseB)
		}
	}
	covered := examined(&base) // s, t and F in full
	for _, budget := range []int{covered + 1, (covered + charged(&full)) / 2, charged(&full) - 1} {
		bq := *q
		bq.Budget = budget
		var tr Trace
		dist, exhausted, err := sc.decode(&bq, Opts{Patches: patches, Trace: &tr})
		if err != nil {
			t.Fatal(err)
		}
		if n := charged(&tr); n > budget {
			t.Errorf("budget %d: %d candidates charged", budget, n)
		}
		if !exhausted {
			t.Errorf("budget %d of %d not reported exhausted", budget, charged(&full))
		}
		if dist < 0 || dist > baseDist || dist < fullDist {
			t.Errorf("budget %d: δ=%d outside [patched %d, unpatched %d]", budget, dist, fullDist, baseDist)
		}
	}
	bq := *q
	bq.Budget = charged(&full)
	if dist, exhausted, _ := sc.decode(&bq, Opts{Patches: patches}); dist != fullDist || exhausted {
		t.Errorf("budget = work: δ=%d exhausted=%v, want %d false", dist, exhausted, fullDist)
	}
}

// patchedCapIsOneSketch: the serving layer's cap of 256 pending
// inserts is still a single decode — every patch edge sits in the one
// sketch the answer was read from.
func patchedCapIsOneSketch(t *testing.T) {
	r := newPatchedRing(t, 1024)
	var chords [][2]int
	for i := 0; i < 256; i++ {
		chords = append(chords, [2]int{4 * i, (4*i + 3) % 1024}) // span 3: not a lattice edge
	}
	src, dst := 1, 513
	c := r.faultFree(t, src, dst, chords)
	dec := NewDecoder()
	defer dec.Release()
	got := c.checkPatched(t, r.g, dec, "cap")
	if want := mutatedBFS(r.g, chords, nil, src, dst); !got.OK || got.Dist != want {
		t.Fatalf("256 patches: %+v, BFS %d", got, want)
	}
	var tr Trace
	if _, _, err := dec.scratch().decode(c.q, Opts{Patches: c.patches, Trace: &tr}); err != nil {
		t.Fatal(err)
	}
	in := 0
	want := c.admissible()
	for _, e := range dec.scratch().sketchEdges() {
		if want[unorderedKey(e.X, e.Y)] {
			in++
		}
	}
	if in != 256 {
		t.Fatalf("%d of 256 patch edges in the sketch", in)
	}
}

// TestPatchedDecodeAllocs: a patched decode through a held Decoder is
// allocation-free in steady state, path reporting included.
func TestPatchedDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unstable under -race (sync.Pool reuse is randomized)")
	}
	r := newPatchedRing(t, 256)
	q := r.query(t, 3, 120, graph.FaultVertices(60, 61))
	dec := NewDecoder()
	defer dec.Release()
	var buf []int32
	for _, k := range []int{1, 4, 16} {
		var chords [][2]int
		for i := 0; i < k; i++ {
			chords = append(chords, [2]int{5 + 7*i, 118 + 5*i})
		}
		patches := r.patches(chords...)
		switch k {
		case 4:
			// Once over private copies: the scheme's labels share their
			// saturated upper levels, these share nothing.
			q, patches = mapQuery(q, unsharedLabel), mapPatches(patches, unsharedLabel)
		case 16:
			// Once over the labels a factored container hands out: the
			// ring's lower levels are read off the level graphs' rows.
			balls := ballsOnlyLabels(t, r.s)
			q, patches = mapQuery(q, balls), mapPatches(patches, balls)
		}
		run := func() {
			buf = buf[:0]
			res := dec.Decode(q, Opts{Patches: patches, Path: &buf})
			if !res.OK || res.Dist > 5 {
				t.Fatalf("k=%d: %+v", k, res)
			}
			if res = dec.Decode(q, Opts{Patches: patches}); !res.OK {
				t.Fatalf("k=%d: %+v", k, res)
			}
		}
		run() // size the scratch and the path buffer
		if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
			t.Errorf("k=%d: patched decode steady-state allocs/op = %g, want 0", k, allocs)
		}
		// Budgeted: the same loops on truncated edge lists.
		bq := *q
		bq.Budget = 3000
		if res := dec.Decode(&bq, Opts{Patches: patches}); !res.BudgetExhausted {
			t.Fatalf("k=%d: budget %d did not cut the decode short: %+v", k, bq.Budget, res)
		}
		if allocs := testing.AllocsPerRun(50, func() { dec.Decode(&bq, Opts{Patches: patches}) }); allocs != 0 {
			t.Errorf("k=%d: budgeted patched decode steady-state allocs/op = %g, want 0", k, allocs)
		}
	}
}

// TestPatchedConcurrentSharedPatches: decoders on 8 goroutines share one
// patch slice and its labels (as the pairs of one served batch do).
func TestPatchedConcurrentSharedPatches(t *testing.T) {
	r := newPatchedRing(t, 256)
	chords := [][2]int{{5, 118}, {9, 40}, {44, 90}, {200, 230}, {130, 250}}
	patches := r.patches(chords...)
	f := graph.FaultVertices(60, 61)
	type pair struct {
		q    *Query
		want Result
	}
	var pairs []pair
	dec := NewDecoder()
	for i := 0; i < 24; i++ {
		src, dst := (11*i)%256, (11*i+97)%256
		if f.HasVertex(src) || f.HasVertex(dst) {
			continue
		}
		q := r.query(t, src, dst, f)
		pairs = append(pairs, pair{q, dec.Decode(q, Opts{Patches: patches})})
	}
	dec.Release()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dec := NewDecoder()
			defer dec.Release()
			for i := 0; i < 3*len(pairs); i++ {
				p := pairs[(i+3*w)%len(pairs)]
				var path []int32
				if got := dec.Decode(p.q, Opts{Patches: patches, Path: &path}); !reflect.DeepEqual(got, p.want) {
					t.Errorf("worker %d: %+v, want %+v", w, got, p.want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

var benchPatchedSink Result

// BenchmarkDecodePatched is the live workload's decode: ring lattice
// n=2048, two vertex faults, k pending inserts near the query.
func BenchmarkDecodePatched(b *testing.B) {
	r := newPatchedRing(b, 2048)
	q := r.query(b, 3, 1020, graph.FaultVertices(500, 501))
	for _, k := range []int{1, 4, 16} {
		var chords [][2]int
		for i := 0; i < k; i++ {
			chords = append(chords, [2]int{40 + 97*i, 40 + 97*i + 33})
		}
		patches := r.patches(chords...)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			dec := NewDecoder()
			defer dec.Release()
			dec.Decode(q, Opts{Patches: patches})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dec.scratch().keyed = false // a lone query: no frame from the op before
				benchPatchedSink = dec.Decode(q, Opts{Patches: patches})
			}
		})
	}
}
