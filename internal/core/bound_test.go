package core

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fsdl/internal/graph"
)

// This file tests the labels' lower bound (labelBound) and the two
// shortcuts a distance-only decode takes off it (decode): the certificate
// U = L, and the stop at L.

// refLabelBound is L computed the slow way: every point of every level
// of L(s), looked up in L(t) at the same level.
func refLabelBound(q *Query) int64 {
	var l int64
	for k := range q.S.Levels {
		for _, p := range q.S.Levels[k].Points {
			if d, ok := q.T.DistTo(q.S.Level(k), p.X); ok {
				l = max(l, int64(p.D-d), int64(d-p.D))
			}
		}
	}
	return l
}

// labelBound is L off the decode's merge (boundMerge).
func labelBound(s, t *Label) int64 {
	var sc decodeScratch
	l, _ := sc.boundMerge(s, t)
	return l
}

// boundCounts is what the decode counters of the bound moved by across f.
func boundCounts(f func()) (stops, certified int64) {
	before := DecoderPool()
	f()
	after := DecoderPool()
	return after.BoundStops - before.BoundStops, after.Certified - before.Certified
}

// TestLabelBoundMatchesReference: the merge per level finds what looking
// every point up finds, on labels of a grid, a ring and a random graph.
func TestLabelBoundMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, g := range []*graph.Graph{gridGraph(t, 9, 7), ringLattice(t, 300), randomConnected(t, 120, 60, rng)} {
		s, err := BuildScheme(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			q := &Query{S: s.Label(rng.Intn(g.NumVertices())), T: s.Label(rng.Intn(g.NumVertices()))}
			if got, want := labelBound(q.S, q.T), refLabelBound(q); got != want {
				t.Fatalf("L(%d, %d) = %d, want %d", q.S.V, q.T.V, got, want)
			}
		}
	}
}

// liar returns a copy of l, validated afresh, that puts x at distance d
// from l's vertex: in every ball that holds x and on every stored edge
// between the two.
func liar(t *testing.T, l *Label, x, d int32) *Label {
	t.Helper()
	c := &Label{V: l.V, Epsilon: l.Epsilon, C: l.C, MaxLevel: l.MaxLevel, RShrink: l.RShrink}
	for _, lv := range l.Levels {
		pts, edges := slices.Clone(lv.Points), slices.Clone(lv.Edges)
		for i := range pts {
			if pts[i].X == x {
				pts[i].D = d
			}
		}
		for i, e := range edges {
			if unorderedKey(pts[e.XI].X, pts[e.YI].X) == unorderedKey(l.V, x) {
				edges[i].D = d
			}
		}
		c.Levels = append(c.Levels, LevelLabel{Points: pts, Edges: edges})
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("the lying copy of L(%d) fails Validate: %v", l.V, err)
	}
	return c
}

// TestLabelBoundLiars pins the contract for labels that pass Validate and
// contradict each other. On the path 0–1–2–…, L(0) and L(2) each put the
// other endpoint at 3 instead of 2: L = 3 while d_H = 2 (0–1–2 is in H).
// The search relaxes 0's edges, finds 2 at 3 ≤ L and stops there, so a
// plain decode answers 3 — a walk of H, between d_H and L — while
// everything that reports a walk or H, and a patched decode, answers 2.
// Point 1 is 2 from the two together, below L, so nothing is certified
// here; a second pair of liars is, and answers L (d_H ≤ δ ≤ max(L, d_H)).
func TestLabelBoundLiars(t *testing.T) {
	s, err := BuildScheme(gridGraph(t, 8, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	q := &Query{S: liar(t, s.Label(0), 2, 3), T: liar(t, s.Label(2), 0, 3)}
	if l := labelBound(q.S, q.T); l != 3 {
		t.Fatalf("L = %d, want 3", l)
	}
	dH, _, _, _, err := referenceDecode(q, nil)
	if err != nil || dH != 2 {
		t.Fatalf("reference d_H = %d (%v), want 2", dH, err)
	}
	var dec Decoder
	defer dec.Release()
	if d, ok := q.Distance(); !ok || d != 3 {
		t.Errorf("Distance = (%d, %v), want 3 — the bound", d, ok)
	}
	var robust Result
	if _, certified := boundCounts(func() { robust = dec.Decode(q, Opts{}) }); certified != 0 || !robust.OK || robust.Dist != 3 {
		t.Errorf("Decode = %+v (certified %d), want 3 by the search", robust, certified)
	}
	var path []int32
	if res := dec.Decode(q, Opts{Path: &path}); !res.OK || res.Dist != 2 || !slices.Equal(path, []int32{0, 1, 2}) {
		t.Errorf("path decode = %+v %v, want 2 over 0 1 2", res, path)
	}
	var tr Trace
	if res := dec.Decode(q, Opts{Trace: &tr}); !res.OK || res.Dist != 2 {
		t.Errorf("traced = %+v, want 2", res)
	}
	// A pending insert may undercut d_G: a patched decode never uses L.
	if res := dec.Decode(q, Opts{Patches: patchesOf(s, [][2]int{{5, 7}})}); !res.OK || res.Dist != 2 {
		t.Errorf("patched decode = %+v, want 2", res)
	}
	checkCanonicalWalk(t, "lying labels", q, nil, 2, []int32{0, 1, 2}, true, 3)

	// Certified: L(0) and L(3) put each other at 4, not 3, and 0 puts 2 and
	// 3 puts 1 at 3, not 2. Every point both hold is then at least 4 from
	// the two together, 0 to 3 at L = 4, so the labels answer 4 alone —
	// a walk of H, 0–3, and above d_H = 3 (the unit edges 0–1–2–3) — where
	// the walk decode answers 3.
	q = &Query{S: liar(t, liar(t, s.Label(0), 3, 4), 2, 3), T: liar(t, liar(t, s.Label(3), 0, 4), 1, 3)}
	if l := labelBound(q.S, q.T); l != 4 {
		t.Fatalf("L = %d, want 4", l)
	}
	var res Result
	if _, certified := boundCounts(func() { res = dec.Decode(q, Opts{}) }); certified != 1 || !res.OK || res.Dist != 4 {
		t.Errorf("δ alone = %+v (certified %d), want 4 from the labels alone", res, certified)
	}
	checkCanonicalWalk(t, "certified lying labels", q, nil, 3, []int32{0, 1, 2, 3}, true, res.Dist)
}

// TestLabelBoundBatches is the distance-only differential: the corpus of
// TestBatchMatchesFreshAndReference plus a ring of 1 024, eight pairs
// through one Decoder under every fault side, each pair under its budget
// and then under none, each answer held to a fresh Decoder's and to
// referenceDecode's δ and exhausted flag — and, for the unpatched pairs,
// a path decode's walk and Query.Sketch's H to the reference's, since
// neither may take a shortcut. The counters must say what the rule in
// decode says: an answer of L is a certificate or a stop, never under a
// patch, and a certificate only with no budget and no degraded fault.
// Each ring must hit both the certificate and the stop.
func TestLabelBoundBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(2901))
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid12x10", gridGraph(t, 12, 10)},
		{"tree150", randomConnected(t, 150, 0, rng)},
		{"ring256", ringLattice(t, 256)},
		{"rand140", randomConnected(t, 140, 70, rng)},
		{"ring1024", ringLattice(t, 1024)},
	}
	kinds := []string{"vertex", "edge", "mixed", "degraded", "ablated"}
	for _, gc := range graphs {
		if raceEnabled && gc.name != "ring256" {
			continue // one goroutine: nothing to find, 10× the time
		}
		s, err := BuildScheme(gc.g, 2)
		if err != nil {
			t.Fatal(err)
		}
		s.SetCacheLimit(4096)
		var stops, certified int
		for ki, kind := range kinds {
			for ni, nf := range []int{0, 1, 2, 4, 16, 64} {
				if nf >= 64 && (kind == "degraded" || kind == "ablated" || testing.Short() || raceEnabled || gc.name == "ring1024") {
					continue
				}
				b := newFrameBatch(t, rng, gc.g, s, kind, nf, (ki+ni)%2 == 0)
				t.Run(gc.name+"/"+b.name, func(t *testing.T) {
					batch := NewDecoder()
					defer batch.Release()
					for i := range b.pairs {
						total, pair := frameWork(b.query(s, i, 0), b.patches)
						for _, budget := range []int{[]int{0, total + 7, total, total - 1, pair + (total-pair)/2, pair / 2, 0, 0}[i], 0} {
							q := b.query(s, i, max(budget, 0))
							var want Trace
							wantDist, wantEdges, _, wantExh, err := referenceDecode(q, &want, b.patches...)
							if err != nil {
								t.Fatal(err)
							}
							var res Result
							dStops, dCert := boundCounts(func() { res = batch.Decode(q, Opts{Patches: b.patches}) })
							fresh := NewDecoder()
							fRes := fresh.Decode(q, Opts{Patches: b.patches})
							fresh.Release()
							if res.OK != (wantDist >= 0) || res.OK && res.Dist != wantDist || res.BudgetExhausted != wantExh || !reflect.DeepEqual(res, fRes) {
								t.Fatalf("pair %d (budget %d): %+v, fresh Decoder %+v, reference (δ=%d, exhausted=%v)", i, q.Budget, res, fRes, wantDist, wantExh)
							}
							patched := len(b.patches) > 0
							atBound := !patched && wantDist >= 0 && wantDist == refLabelBound(q)
							mayCertify := atBound && q.Budget == 0 && kind != "degraded"
							if dStops+dCert != int64(btoi(atBound)) || dCert > int64(btoi(mayCertify)) {
								t.Fatalf("pair %d (budget %d, patched %v): %d stops, %d certified; δ=%d, L=%d",
									i, q.Budget, patched, dStops, dCert, wantDist, refLabelBound(q))
							}
							certified += int(dCert)
							stops += int(dStops)
							if patched {
								continue
							}
							var path []int32
							res = batch.Decode(q, Opts{Path: &path})
							if res.OK != (wantDist >= 0) || res.OK && (res.Dist != wantDist || !slices.Equal(path, want.Path)) {
								t.Fatalf("pair %d (budget %d): path decode %+v %v, the reference δ=%d over %v", i, q.Budget, res, path, wantDist, want.Path)
							}
							if edges, err := q.Sketch(); err != nil || !reflect.DeepEqual(edges, wantEdges) {
								t.Fatalf("pair %d (budget %d): Sketch has %d edges (%v), the reference %d", i, q.Budget, len(edges), err, len(wantEdges))
							}
						}
					}
				})
			}
		}
		t.Logf("%s: %d decodes certified, %d ended at the bound", gc.name, certified, stops)
		if strings.HasPrefix(gc.name, "ring") && (certified == 0 || stops == 0) {
			t.Errorf("%s: %d certified, %d stops: the corpus misses a case", gc.name, certified, stops)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
