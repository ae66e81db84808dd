package core

import (
	"math/rand"
	"testing"

	"fsdl/internal/gen"
	"fsdl/internal/graph"
)

// TestDistanceRobustMatchesDistanceWhenHealthy: with every label usable
// and no budget, Decode is exactly Distance with Degraded=false.
func TestDistanceRobustMatchesDistanceWhenHealthy(t *testing.T) {
	g := gen.Grid2D(7, 7)
	cs, err := BuildScheme(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		s, d := rng.Intn(49), rng.Intn(49)
		faults := gen.RandomVertexFaults(g, 3, []int{s, d}, rng)
		q, err := cs.NewQuery(s, d, faults)
		if err != nil {
			t.Fatal(err)
		}
		want, wantOK := q.Distance()
		got := q.decode(Opts{}, nil)
		if got.Degraded || got.BudgetExhausted || len(got.MissingFaultLabels) != 0 {
			t.Fatalf("healthy query flagged degraded: %+v", got)
		}
		if got.OK != wantOK || (wantOK && got.Dist != want) {
			t.Fatalf("robust (%d,%d): got %+v, want dist=%d ok=%v", s, d, got, want, wantOK)
		}
	}
}

// TestDegradedModeNeverUnderestimates is the acceptance-criteria safety
// check: with fault labels withheld (simulating loss or corruption), the
// degraded answer never drops below the exact d_{G\F} baseline.
func TestDegradedModeNeverUnderestimates(t *testing.T) {
	g := gen.Grid2D(8, 8)
	cs, err := BuildScheme(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	answered, degradedAnswered := 0, 0
	for trial := 0; trial < 60; trial++ {
		s, d := rng.Intn(64), rng.Intn(64)
		faults := gen.RandomVertexFaults(g, 4, []int{s, d}, rng)
		fv := faults.Vertices()
		if len(fv) == 0 {
			continue
		}
		truth := g.DistAvoiding(s, d, faults)

		// Withhold the label of one random fault: it is known only by id.
		missing := fv[rng.Intn(len(fv))]
		labeled := graph.NewFaultSet()
		for _, f := range fv {
			if f != missing {
				labeled.AddVertex(f)
			}
		}
		q, err := cs.NewQuery(s, d, labeled)
		if err != nil {
			t.Fatal(err)
		}
		q.DegradedVertexFaults = []int32{int32(missing)}
		res := q.decode(Opts{}, nil)
		if !res.Degraded {
			t.Fatalf("missing label not flagged degraded: %+v", res)
		}
		if res.OK {
			answered++
			degradedAnswered++
			if !graph.Reachable(truth) {
				t.Fatalf("(%d,%d,F=%v): degraded answer %d for a disconnected pair",
					s, d, fv, res.Dist)
			}
			if res.Dist < int64(truth) {
				t.Fatalf("(%d,%d,F=%v missing %d): degraded dist %d below true %d",
					s, d, fv, missing, res.Dist, truth)
			}
		}
	}
	// Degraded mode is conservative but must not be vacuous: on a grid
	// with unit edges everywhere it should still answer most queries.
	if degradedAnswered < 20 {
		t.Errorf("degraded mode answered only %d queries — too conservative to be useful", degradedAnswered)
	}
}

// TestDegradedSanitizesCorruptLabels: a fault label failing Validate (or
// carrying mismatched parameters) is demoted to the degraded tier rather
// than failing the query, and is reported in MissingFaultLabels.
func TestDegradedSanitizesCorruptLabels(t *testing.T) {
	g := gen.Grid2D(6, 6)
	cs, err := BuildScheme(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	faults := graph.NewFaultSet()
	faults.AddVertex(14)
	faults.AddVertex(21)
	q, err := cs.NewQuery(0, 35, faults)
	if err != nil {
		t.Fatal(err)
	}
	truth := g.DistAvoiding(0, 35, faults)

	// Corrupt the label of vertex 14: break its parameter block.
	for i, f := range q.VertexFaults {
		if f.V == 14 {
			bad := *f
			bad.C = f.C + 7
			q.VertexFaults[i] = &bad
		}
	}
	res := q.decode(Opts{}, nil)
	if !res.Degraded {
		t.Fatalf("corrupt label not flagged: %+v", res)
	}
	if len(res.MissingFaultLabels) != 1 || res.MissingFaultLabels[0] != 14 {
		t.Fatalf("MissingFaultLabels = %v, want [14]", res.MissingFaultLabels)
	}
	if res.OK && res.Dist < int64(truth) {
		t.Fatalf("degraded dist %d below true %d", res.Dist, truth)
	}
	// The plain strict path must still reject the corrupt query.
	if _, ok := q.Distance(); ok {
		t.Error("strict Distance accepted a corrupt fault label")
	}
}

// TestDegradedEdgeFaults: an edge fault identified only by endpoint ids
// keeps the safety direction.
func TestDegradedEdgeFaults(t *testing.T) {
	g := gen.Path(12)
	cs, err := BuildScheme(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	faults := graph.NewFaultSet()
	faults.AddEdge(5, 6)
	truth := g.DistAvoiding(0, 11, faults) // disconnected on a path

	q, err := cs.NewQuery(0, 11, graph.NewFaultSet())
	if err != nil {
		t.Fatal(err)
	}
	q.DegradedEdgeFaults = [][2]int32{{5, 6}}
	res := q.decode(Opts{}, nil)
	if !res.Degraded {
		t.Fatalf("degraded edge fault not flagged: %+v", res)
	}
	if res.OK && graph.Reachable(truth) && res.Dist < int64(truth) {
		t.Fatalf("degraded dist %d below true %d", res.Dist, truth)
	}
	if res.OK && !graph.Reachable(truth) {
		t.Fatalf("answered %d across a severed path graph", res.Dist)
	}
}

// TestBudgetTruncationIsSafe: a tiny budget may lose precision or
// connectivity but never yields an underestimate, and is reported.
func TestBudgetTruncationIsSafe(t *testing.T) {
	g := gen.Grid2D(7, 7)
	cs, err := BuildScheme(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	sawExhausted := false
	for trial := 0; trial < 25; trial++ {
		s, d := rng.Intn(49), rng.Intn(49)
		faults := gen.RandomVertexFaults(g, 2, []int{s, d}, rng)
		truth := g.DistAvoiding(s, d, faults)
		q, err := cs.NewQuery(s, d, faults)
		if err != nil {
			t.Fatal(err)
		}
		q.Budget = 40
		res := q.decode(Opts{}, nil)
		if res.BudgetExhausted {
			sawExhausted = true
			if !res.Degraded {
				t.Fatalf("BudgetExhausted without Degraded: %+v", res)
			}
		}
		if res.OK && graph.Reachable(truth) && res.Dist < int64(truth) {
			t.Fatalf("(%d,%d): budgeted dist %d below true %d", s, d, res.Dist, truth)
		}
		if res.OK && !graph.Reachable(truth) {
			t.Fatalf("(%d,%d): answered a disconnected pair", s, d)
		}
	}
	if !sawExhausted {
		t.Error("budget of 40 was never exhausted — test exercises nothing")
	}
}

// TestDistanceRobustRejectsHopeless: nil endpoint labels, nil fault
// labels, and degraded ids naming an endpoint all yield OK=false rather
// than a fabricated number.
func TestDistanceRobustRejectsHopeless(t *testing.T) {
	g := gen.Grid2D(5, 5)
	cs, err := BuildScheme(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	q, err := cs.NewQuery(0, 24, graph.NewFaultSet())
	if err != nil {
		t.Fatal(err)
	}
	nilS := *q
	nilS.S = nil
	if res := nilS.decode(Opts{}, nil); res.OK {
		t.Error("nil source label answered")
	}
	nilF := *q
	nilF.VertexFaults = []*Label{nil}
	if res := nilF.decode(Opts{}, nil); res.OK {
		t.Error("nil (unidentifiable) fault label answered")
	}
	selfDeg := *q
	selfDeg.DegradedVertexFaults = []int32{0}
	if res := selfDeg.decode(Opts{}, nil); res.OK {
		t.Error("degraded fault naming the source answered")
	}
}
