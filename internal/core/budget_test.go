package core

import (
	"reflect"
	"slices"
	"testing"

	"fsdl/internal/graph"
)

// scanSegment is one stretch of candidates a decode charges to
// Query.Budget: the stored edges of one owner level, or that level's
// owner-ball points.
type scanSegment struct {
	level       int  // index into Label.Levels
	ball, patch bool // an owner-ball scan; a patch endpoint's label
	n           int
}

// scanLayout lists the segments of a decode of (q, patches) in scan
// order, from the labels alone: owners are s, t, F and then the patch
// endpoints, each level's edge list comes before its owner ball, and a
// forbidden owner has no ball. The test checks its total against the
// decoder's own trace before relying on it.
func scanLayout(q *Query, patches []PatchEdge) []scanSegment {
	forbidden := map[int32]bool{}
	seen := map[int32]bool{}
	type owner struct {
		l     *Label
		patch bool
	}
	var owners []owner
	add := func(l *Label, patch bool) {
		if !seen[l.V] {
			seen[l.V] = true
			owners = append(owners, owner{l, patch})
		}
	}
	add(q.S, false)
	add(q.T, false)
	for _, f := range q.VertexFaults {
		add(f, false)
		forbidden[f.V] = true
	}
	for _, ef := range q.EdgeFaults {
		add(ef[0], false)
		add(ef[1], false)
	}
	for _, v := range q.DegradedVertexFaults {
		forbidden[v] = true
	}
	for _, p := range patches {
		add(p.U, true)
		add(p.V, true)
	}
	var segs []scanSegment
	for _, o := range owners {
		for k, lv := range o.l.Levels {
			segs = append(segs, scanSegment{level: k, patch: o.patch, n: len(lv.Edges)})
			if forbidden[o.l.V] {
				continue
			}
			ball := 0
			for _, pe := range lv.Points {
				if pe.D <= lambdaOf(q.S.C+1+k) && pe.X != o.l.V {
					ball++
				}
			}
			segs = append(segs, scanSegment{level: k, ball: true, patch: o.patch, n: ball})
		}
	}
	return segs
}

// TestBudgetBoundaries walks Query.Budget across every place the scan
// can stop — the end of each owner level's edge list and of each owner
// ball, the middle of a lowest-level scan, a net-level scan, an
// owner-ball scan and a patch owner's scans, and one either side of the
// total work C — and at each compares distance, exhausted, sketch edges
// and the whole Trace with referenceDecode, the traced decode with the
// untraced and the path decode, and the charge with what the layout
// says: min(budget, C), exhausted iff budget < C, patch edges free.
func TestBudgetBoundaries(t *testing.T) {
	grid, err := BuildScheme(gridGraph(t, 8, 8), 2)
	if err != nil {
		t.Fatal(err)
	}
	gridQuery := func(f *graph.FaultSet) *Query {
		q, err := grid.NewQuery(0, 63, f)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	mixed := graph.FaultVertices(27)
	mixed.AddEdge(35, 36)
	degraded := gridQuery(graph.FaultVertices(27))
	degraded.DegradedVertexFaults = []int32{36}
	degraded.DegradedEdgeFaults = [][2]int32{{9, 10}}
	ring := newPatchedRing(t, 256)

	type budgetCase struct {
		name    string
		q       *Query
		patches []PatchEdge
		shared  bool // scheme labels: every owner after s carries lists s already had scanned
	}
	cases := []budgetCase{
		{"faultfree", gridQuery(nil), nil, true},
		// The last owner is forbidden, so the scan ends on an edge list.
		{"vfaults", gridQuery(graph.FaultVertices(27, 36)), nil, true},
		{"mixed", gridQuery(mixed), nil, true},
		{"degraded", degraded, nil, true},
		{"patched", ring.query(t, 3, 120, graph.FaultVertices(60, 61)), ring.patches([2]int{5, 118}, [2]int{9, 40}), true},
	}
	// The same walks with nothing shared between the labels.
	for _, c := range cases {
		cases = append(cases, budgetCase{c.name + "+unshared", mapQuery(c.q, unsharedLabel), mapPatches(c.patches, unsharedLabel), false})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dec := NewDecoder()
			defer dec.Release()
			sc := dec.scratch()
			charged := func(tr *Trace) (n int) {
				for k := range tr.AdmittedPerLevel {
					n += tr.AdmittedPerLevel[k] + tr.RejectedPerLevel[k]
				}
				return n - len(tc.patches) // every patch here is admissible, and free
			}

			var full Trace
			fullDist, exhausted, err := sc.decode(tc.q, Opts{Patches: tc.patches, Trace: &full})
			if err != nil || exhausted {
				t.Fatalf("unbudgeted decode: exhausted=%v err=%v", exhausted, err)
			}
			fullEdges := slices.Clone(sc.sketchEdges())
			work := charged(&full)

			segs := scanLayout(tc.q, tc.patches)
			budgets := []int{1, work - 1, work, work + 1}
			mids := map[[3]bool]bool{} // (lowest level, ball, patch owner) kinds already cut in the middle
			end := 0
			for _, s := range segs {
				kind := [3]bool{s.level == 0, s.ball, s.patch}
				if s.n >= 2 && !mids[kind] {
					mids[kind] = true
					budgets = append(budgets, end+s.n/2)
				}
				if !s.ball && s.n >= 2 {
					// The middle of every edge list: past the first owner
					// these are the lists a shared decode would skip.
					budgets = append(budgets, end+s.n/2)
				}
				end += s.n
				budgets = append(budgets, end)
			}
			if end != work {
				t.Fatalf("layout sums to %d candidates, the trace to %d", end, work)
			}
			if want := 4 + 4*min(len(tc.patches), 1); len(mids) != want {
				t.Fatalf("%d kinds of scan cut mid-way, want %d", len(mids), want)
			}
			slices.Sort(budgets)

			for _, budget := range slices.Compact(budgets) {
				if budget <= 0 {
					continue
				}
				bq := *tc.q
				bq.Budget = budget
				var want, got Trace
				wantDist, wantEdges, _, wantExh, err := referenceDecode(&bq, &want, tc.patches...)
				if err != nil {
					t.Fatal(err)
				}
				dist, exh, err := sc.decode(&bq, Opts{Patches: tc.patches, Trace: &got})
				if err != nil {
					t.Fatal(err)
				}
				edges := slices.Clone(sc.sketchEdges())
				// What is on record as scanned (and so skippable) was
				// scanned: a list the budget cut is recorded as cut.
				recorded := 0
				for _, lists := range sc.scanned {
					for _, l := range lists {
						recorded += len(l.edges)
					}
				}
				if recorded > budget {
					t.Errorf("budget %d: edge lists of %d entries recorded as scanned", budget, recorded)
				}
				if dist != wantDist || exh != wantExh || !reflect.DeepEqual(edges, wantEdges) {
					t.Errorf("budget %d: (δ=%d, exhausted=%v, %d edges), reference (%d, %v, %d edges)",
						budget, dist, exh, len(edges), wantDist, wantExh, len(wantEdges))
				}
				if !tc.shared && got.SharedLevelsSkipped != 0 || tc.shared && budget >= work && got.SharedLevelsSkipped == 0 {
					t.Errorf("budget %d: %d levels skipped (labels shared: %v)", budget, got.SharedLevelsSkipped, tc.shared)
				}
				got.SharedLevelsSkipped, got.FrameReused = 0, false // the reference has no such fields
				if !reflect.DeepEqual(&got, &want) {
					t.Errorf("budget %d: trace diverges:\n got %+v\nwant %+v", budget, got, want)
				}
				if n := charged(&got); n != min(budget, work) || exh != (budget < work) {
					t.Errorf("budget %d of %d: charged %d, exhausted=%v", budget, work, n, exh)
				}
				if budget >= work && (dist != fullDist || !reflect.DeepEqual(edges, fullEdges)) {
					t.Errorf("budget %d ≥ work %d: sketch differs from the unbudgeted one", budget, work)
				}

				d2, exh2, _ := sc.decode(&bq, Opts{Patches: tc.patches})
				if d2 != dist || exh2 != exh || !reflect.DeepEqual(sc.sketchEdges(), edges) {
					t.Errorf("budget %d: untraced decode (δ=%d, exhausted=%v) differs from traced (%d, %v)", budget, d2, exh2, dist, exh)
				}
				var path []int32
				res := dec.Decode(&bq, Opts{Patches: tc.patches, Path: &path})
				if res.OK != (dist >= 0) || res.OK && res.Dist != dist || res.BudgetExhausted != exh {
					t.Errorf("budget %d: path decode %+v, traced decode (δ=%d, exhausted=%v)", budget, res, dist, exh)
				}
				if res.OK && !slices.Equal(path, got.Path) {
					t.Errorf("budget %d: path decode walks %v, the trace %v", budget, path, got.Path)
				}
			}
		})
	}
}
