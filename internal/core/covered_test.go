package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"fsdl/internal/gen"
	"fsdl/internal/graph"
)

// This file tests the covered-list rule of scanOwners: at a net level, an
// owner's edge list whose every point one center's protected ball holds
// admits nothing, so it is charged and tallied but not walked (nor, when
// the label leaves it to its level graphs, read), and an owner whose
// mayBeInPB row meets that cover loses every self edge of the level.

// listSeg is one owner level's edge list as a decode charges it to a
// Budget: where in the charge it starts, how many edges it has, and
// whether it is covered — a net level, and some center's PB_ℓ holds every
// point of the list.
type listSeg struct {
	start, n int
	covered  bool
}

// coveredLayout lists the edge lists of q's scan in the order a Budget
// is charged (s, t, then the fault owners, each vertex once; per owner
// and level the edge list, then the self-edge points unless the owner is
// forbidden), found from the labels alone with the paper's definitions
// (hash sets, no masks). It also counts the lists that are covered, have
// an edge, and whose owner is certified outside every covering ball
// (mayBeInPB) while some self edge of that level survives the rule: the
// lists whose self edges the cover must not take.
func coveredLayout(q *Query) (segs []listSeg, coveredButAdmitting int) {
	lowest := q.S.C + 1
	var centers, owners []*Label
	forbidden, seen, seenC := map[int32]bool{}, map[int32]bool{}, map[int32]bool{}
	addOwner := func(l *Label) {
		if !seen[l.V] {
			seen[l.V] = true
			owners = append(owners, l)
		}
	}
	addCenter := func(l *Label) {
		if !seenC[l.V] {
			seenC[l.V] = true
			centers = append(centers, l)
		}
	}
	addOwner(q.S)
	addOwner(q.T)
	for _, f := range q.VertexFaults {
		addOwner(f)
		addCenter(f)
		forbidden[f.V] = true
	}
	for _, ef := range q.EdgeFaults {
		for _, l := range ef {
			addOwner(l)
			addCenter(l)
		}
	}
	inPB := func(f *Label, k int, x int32) bool {
		if x == f.V {
			return true
		}
		d, ok := f.DistTo(lowest+k, x)
		return ok && d <= lambdaOf(lowest+k)
	}
	at := 0
	for _, o := range owners {
		for k, lv := range o.Levels {
			level, n := lowest+k, len(o.LevelEdges(k, nil))
			var cover []*Label
			for _, f := range centers {
				if k > 0 && len(lv.Points) > 0 && !slices.ContainsFunc(lv.Points, func(pe PointEntry) bool { return !inPB(f, k, pe.X) }) {
					cover = append(cover, f)
				}
			}
			segs = append(segs, listSeg{start: at, n: n, covered: len(cover) > 0})
			at += n
			if forbidden[o.V] {
				continue
			}
			certifiedOut, admits := true, false
			for _, f := range cover {
				certifiedOut = certifiedOut && !mayBeInPB(o, f, level)
			}
			for _, pe := range lv.Points {
				if !selfEdgePoint(pe, lambdaOf(level), o.V) {
					continue
				}
				at++
				if forbidden[pe.X] || slices.ContainsFunc(centers, func(f *Label) bool { return inPB(f, k, pe.X) && mayBeInPB(o, f, level) }) {
					continue
				}
				admits = true
			}
			if len(cover) > 0 && n > 0 && certifiedOut && admits {
				coveredButAdmitting++
			}
		}
	}
	return segs, coveredButAdmitting
}

// withIsolatedVertex returns g with one more vertex and no edge to it.
// The new vertex is a net point of every level that no ball of g holds,
// so no label of the rest is saturated: where a balls-only label of g
// holds the one whole list of a level, one of this graph leaves it to the
// level graphs, and a covered list of it is counted off their rows.
func withIsolatedVertex(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.NumVertices() + 1)
	for u := 0; u < g.NumVertices(); u++ {
		for _, w := range g.Neighbors(u) {
			if int(w) > u {
				b.AddEdge(u, int(w))
			}
		}
	}
	return b.MustBuild()
}

// checkCovered decodes q every way a caller can — traced, for its walk,
// for δ alone, Query.Sketch — on fresh Decoders, and holds δ, exhausted,
// the walk, the sketch and the trace's per-level tallies to
// referenceDecode's, and the traced decode to that of held, unshared
// copies of the labels.
func checkCovered(t *testing.T, name string, q *Query) {
	t.Helper()
	var ref Trace
	wd, wantEdges, _, wexh, err := referenceDecode(q, &ref)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	traced := func(q *Query) (Result, Trace) {
		var dec Decoder
		defer dec.Release()
		var tr Trace
		res := dec.Decode(q, Opts{Trace: &tr})
		tr.SharedLevelsSkipped = 0 // the reference has no such field
		return res, tr
	}
	res, tr := traced(q)
	if res.OK != (wd >= 0) || res.OK && res.Dist != wd || res.BudgetExhausted != wexh {
		t.Fatalf("%s: traced %+v, the reference δ=%d exhausted=%v", name, res, wd, wexh)
	}
	if !reflect.DeepEqual(tr, ref) {
		t.Fatalf("%s: trace\n got %+v\nwant %+v", name, tr, ref)
	}
	if hres, htr := traced(mapQuery(q, unsharedLabel)); !reflect.DeepEqual(hres, res) || !reflect.DeepEqual(htr, tr) {
		t.Fatalf("%s: over held copies %+v %+v, over the labels %+v %+v", name, hres, htr, res, tr)
	}
	var dec Decoder
	defer dec.Release()
	var walk []int32
	if res := dec.Decode(q, Opts{Path: &walk}); res.OK != (wd >= 0) || res.OK && (res.Dist != wd || !slices.Equal(walk, ref.Path)) || res.BudgetExhausted != wexh {
		t.Fatalf("%s: walk %v (%+v), the reference %v", name, walk, res, ref.Path)
	}
	if res := dec.Decode(q, Opts{}); res.OK != (wd >= 0) || res.OK && res.Dist != wd || res.BudgetExhausted != wexh {
		t.Fatalf("%s: δ alone %+v, the reference δ=%d exhausted=%v", name, res, wd, wexh)
	}
	if edges, err := q.Sketch(); err != nil || !reflect.DeepEqual(edges, wantEdges) {
		t.Fatalf("%s: Sketch has %d edges (%v), the reference %d", name, len(edges), err, len(wantEdges))
	}
}

// TestCoveredLists is the differential of the covered-list rule: grid24
// (alone, and beside an isolated vertex: withIsolatedVertex), the
// benchmark's rgg1024, a ring and a path, held and balls-only labels
// (LevelGraphs.Label), |F| from 0 to 16 mixed vertex and edge faults and
// 70 (more than one mask word), each decode checked by checkCovered with
// no budget and with budgets that end right before, inside and right
// after the first covered list of the scan. The rule must fire — on
// grid24 at |F| = 4 and on balls-only rgg1024 labels among others — and
// a search over a short path must find covered lists whose owner is
// certified outside the covering balls and keeps a self edge there.
func TestCoveredLists(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	rgg, _, err := gen.RandomGeometric(1024, 0.056, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid24", gridGraph(t, 24, 24)},
		{"grid24+isolated", withIsolatedVertex(gridGraph(t, 24, 24))},
		{"rgg1024", rgg},
		{"ring512", ringLattice(t, 512)},
		{"path300", pathGraph(t, 300)},
	}
	pairs := 2
	if raceEnabled || testing.Short() {
		pairs = 1
	}
	coveredButAdmitting := 0
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
			for _, nf := range []int{0, 1, 2, 4, 16, 70} {
				fired := DecoderPool().CoveredLists
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
					if f.HasVertex(src) || f.HasVertex(dst) || src == dst {
						i--
						continue
					}
					q, err := s.NewQuery(src, dst, f)
					if err != nil {
						t.Fatal(err)
					}
					q = mapQuery(q, fn)
					name := fmt.Sprintf("%s/%s/|F|=%d/%d→%d", gc.name, flavour, nf, src, dst)
					checkCovered(t, name, q)
					segs, admitting := coveredLayout(q)
					coveredButAdmitting += admitting
					j := slices.IndexFunc(segs, func(sg listSeg) bool { return sg.covered && sg.n >= 2 })
					if j < 0 {
						continue
					}
					sg := segs[j]
					for _, b := range []struct {
						where  string
						budget int
					}{{"before", sg.start}, {"inside", sg.start + sg.n/2}, {"after", sg.start + sg.n}} {
						if b.budget > 0 {
							bq := *q
							bq.Budget = b.budget
							checkCovered(t, fmt.Sprintf("%s/budget %d, %s a covered list", name, b.budget, b.where), &bq)
						}
					}
				}
				if fired = DecoderPool().CoveredLists - fired; fired == 0 && (gc.name == "grid24" && nf == 4 || gc.name == "rgg1024" && flavour == "balls-only" && nf > 0) {
					t.Errorf("%s/%s |F|=%d: no list was rejected as covered", gc.name, flavour, nf)
				}
			}
		}
	}
	// The self-edge side, found by search over every (s, f) of a path of
	// 60 with t half way round: with s = 0 and f = 33, f's level-4 ball
	// (λ = 32) holds every net point of s's level-4 list, and mayBeInPB
	// certifies s outside it, so s keeps its self edges of that level.
	path := pathGraph(t, 60)
	ps, err := BuildScheme(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	ballsOnly := ballsOnlyLabels(t, ps)
	for src := 0; src < 60; src++ {
		for f := 0; f < 60; f++ {
			dst := (src + 30) % 60
			if f == src || f == dst {
				continue
			}
			q, err := ps.NewQuery(src, dst, graph.FaultVertices(f))
			if err != nil {
				t.Fatal(err)
			}
			if _, admitting := coveredLayout(q); admitting > 0 {
				coveredButAdmitting += admitting
				name := fmt.Sprintf("path60/%d→%d, f=%d", src, dst, f)
				checkCovered(t, name+"/held", q)
				checkCovered(t, name+"/balls-only", mapQuery(q, ballsOnly))
			}
		}
	}
	t.Logf("%d covered lists whose owner keeps a self edge beside the covering ball", coveredButAdmitting)
	if coveredButAdmitting == 0 {
		t.Error("no covered list with an owner certified outside the covering balls: the self-edge side of the rule is untested")
	}
}
