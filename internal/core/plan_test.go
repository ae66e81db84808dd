package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// TestDecodePlan is the plan table: every combination of what a decode
// reports (δ alone, its walk, a trace, Query.Sketch's traced decode), a
// patch (none, admitted, rejected: its endpoint is a fault), a budget
// (none, covering the frame's run, one short of it), t (outside the frame,
// or one of its owners) and a shared frame (none, of this fault side, of
// another: one of its vertex faults, which the side holds) gets the plan
// the table below says — and the δ, exhausted flag and walk
// referenceDecode gives. Two more rows take δ alone, no patch and no
// budget to a fault side with a degraded fault, and to an ablated one.
//
//	          framed        lean     bound              certify                       shared              composed
//	δ alone   budget ≠ short  yes    no admitted patch  bound, no budget, no degraded  frame of this side  other frame, no budget
//	walk      budget ≠ short  no     no                 no                            frame of this side  other frame, no budget
//	trace     budget ≠ short  no     no                 no                            frame of this side  no
//	Sketch    as trace
func TestDecodePlan(t *testing.T) {
	s, err := BuildScheme(ringLattice(t, 256), 2)
	if err != nil {
		t.Fatal(err)
	}
	s.SetCacheLimit(4096)
	side := func(tv int) *Query {
		return &Query{S: s.Label(3), T: s.Label(tv),
			VertexFaults: []*Label{s.Label(60), s.Label(200)},
			EdgeFaults:   [][2]*Label{{s.Label(90), s.Label(91)}}}
	}
	kinds := []string{"δ alone", "walk", "trace", "Sketch"}
	patchSets := map[string][]PatchEdge{
		"no patch":       nil,
		"admitted patch": patchesOf(s, [][2]int{{5, 118}}),
		"rejected patch": patchesOf(s, [][2]int{{60, 118}}),
	}
	for _, kind := range kinds {
		for pname, patches := range patchSets {
			for _, budget := range []string{"no budget", "covering budget", "short budget"} {
				for _, tOwner := range []bool{false, true} {
					for _, frame := range []string{"no frame", "matching frame", "other frame"} {
						q := side(120)
						if tOwner {
							q = side(91) // an endpoint of the edge fault
						}
						admitted := patches
						if pname == "rejected patch" {
							admitted = nil // no owners, no edge
						}
						total, _ := frameWork(q, admitted)
						switch budget {
						case "covering budget":
							q.Budget = total
						case "short budget":
							q.Budget = total - 1
						}
						var f *Frame
						switch frame {
						case "matching frame":
							f = NewFrame(q, patches)
						case "other frame":
							f = NewFrame(&Query{S: q.S, T: q.T, VertexFaults: q.VertexFaults[:1]}, patches)
						}
						name := fmt.Sprintf("%s/%s/%s/t owner %v/%s", kind, pname, budget, tOwner, frame)
						want := plan{
							shared:   frame == "matching frame",
							composed: frame == "other frame" && budget == "no budget" && (kind == "δ alone" || kind == "walk"),
							framed:   budget != "short budget",
							lean:     kind == "δ alone",
						}
						want.bound = want.lean && pname != "admitted patch"
						want.certify = want.bound && budget == "no budget"
						checkPlan(t, name, q, patches, f, kind, want)
					}
				}
			}
		}
	}
	degraded, ablated := side(120), side(120)
	degraded.DegradedVertexFaults = []int32{33}
	ablated.UnsafeIgnoreProtectedBalls = true
	lone := plan{framed: true, lean: true, bound: true}
	checkPlan(t, "δ alone/degraded", degraded, nil, nil, "δ alone", lone)
	lone.certify = true
	checkPlan(t, "δ alone/ablated", ablated, nil, nil, "δ alone", lone)

	// A fault side whose one center covers a level: on this ring a
	// protected ball of level 5 (λ = 64 hops, 128 ring steps either way)
	// holds every vertex, so every owner's list of that level and above
	// is rejected whole, unread. Each kind of decode gets the plan it gets
	// anywhere and the reference's δ and walk; all but δ alone, which the
	// labels may answer before any scan, must count covered lists.
	covering := &Query{S: s.Label(3), T: s.Label(120), VertexFaults: []*Label{s.Label(64)}}
	for _, kind := range kinds {
		want := plan{framed: true, lean: kind == "δ alone"}
		want.bound, want.certify = want.lean, want.lean
		before := DecoderPool().CoveredLists
		checkPlan(t, "covering/"+kind, covering, nil, nil, kind, want)
		if kind != "δ alone" && DecoderPool().CoveredLists == before {
			t.Errorf("covering/%s: no list rejected as covered", kind)
		}
	}
}

// checkPlan decodes q as kind asks on a fresh Decoder, handing it patches
// and f, and holds the plan to want and the answer to referenceDecode's.
func checkPlan(t *testing.T, name string, q *Query, patches []PatchEdge, f *Frame, kind string, want plan) {
	t.Helper()
	o := Opts{Patches: patches, Frame: f}
	var path []int32
	switch kind {
	case "walk":
		o.Path = &path
	case "trace", "Sketch":
		o.Trace = new(Trace)
	}
	dec := NewDecoder()
	defer dec.Release()
	if got := dec.scratch().plan(q, o); got != want {
		t.Errorf("%s: plan %+v, want %+v", name, got, want)
	}
	var ref Trace
	wd, wantEdges, _, wexh, err := referenceDecode(q, &ref, patches...)
	if err != nil {
		t.Fatal(err)
	}
	res := dec.Decode(q, o)
	if res.OK != (wd >= 0) || res.OK && res.Dist != wd || res.BudgetExhausted != wexh {
		t.Errorf("%s: %+v, the reference δ=%d, exhausted=%v", name, res, wd, wexh)
	}
	if o.Trace != nil {
		path = o.Trace.Path
	}
	if res.OK && kind != "δ alone" && !slices.Equal(path, ref.Path) {
		t.Errorf("%s: walks %v, the reference %v", name, path, ref.Path)
	}
	if kind == "Sketch" && patches == nil {
		if edges, err := q.Sketch(); err != nil || !reflect.DeepEqual(edges, wantEdges) {
			t.Errorf("%s: Sketch has %d edges (%v), the reference %d", name, len(edges), err, len(wantEdges))
		}
	}
}
