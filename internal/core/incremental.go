package core

import (
	"fmt"
	"slices"
	"sync"

	"fsdl/internal/graph"
	"fsdl/internal/nets"
)

// This file implements delta-scoped scheme rebuilds: given the scheme of a
// graph G and a batch of edge mutations turning G into G', it produces the
// scheme of G' while recomputing only the (level, net-point) BFS tasks whose
// truncated balls a mutation can reach, and reports exactly which vertices'
// labels may differ — everything else is provably byte-identical, so a
// compaction can splice the untouched label bytes forward instead of
// re-extracting them.
//
// The locality argument is the paper's own: every structure the scheme
// stores is a function of a bounded-radius ball. A truncated BFS of radius r
// from a source s never relaxes an edge with both endpoints outside B(s, r),
// and the net-membership filter it applies is a per-vertex function. So if
// no mutated-edge endpoint and no vertex whose net membership changed lies
// within r of s — in either the old or the new graph — the search explores
// an identical subgraph under an identical filter and returns identical
// output. "Seeds" below are exactly those change witnesses: mutated-edge
// endpoints plus net-membership diffs, and one multi-source BFS per graph
// prices every ball-cleanliness test at O(1).

// IncrementalStats counts what the delta-scoped rebuild reused vs redid.
type IncrementalStats struct {
	// Seeds is the number of change witnesses: mutated-edge endpoints
	// plus vertices whose net-hierarchy membership level changed.
	Seeds int
	// RowsTotal counts the store's (level, net-point) adjacency rows;
	// RowsReused of them were aliased from the previous store without a
	// BFS, and RowsChanged hold different content than before (a subset
	// of the recomputed rows).
	RowsTotal, RowsReused, RowsChanged int
	// NetDiffed counts the per-net-point ball diffs run to bound the
	// dirty label set.
	NetDiffed int
	// DirtyLow, DirtyNet and DirtyPair attribute the dirty set to its
	// three marking rules — lowest-level seed proximity, per-net-point
	// ball diffs, and changed net-graph edge entries. A vertex marked by
	// several rules counts once, under the first that caught it.
	DirtyLow, DirtyNet, DirtyPair int
}

// IncrementalBuild is the result of BuildSchemeIncremental.
type IncrementalBuild struct {
	// Scheme is the scheme of the mutated graph, bit-identical to a
	// from-scratch BuildSchemeWorkers on it.
	Scheme *Scheme
	// Dirty lists, sorted ascending, every vertex whose label may
	// differ from its label under the previous scheme. Labels of
	// vertices not listed are guaranteed byte-identical, so their
	// serialized form can be copied forward.
	Dirty []int32
	// Stats describes the work avoided.
	Stats IncrementalStats
}

// reachWithin reports whether a BFS distance (Infinity = unreachable)
// is within r.
func reachWithin(d, r int32) bool { return d != graph.Infinity && d <= r }

// BuildSchemeIncremental builds the scheme of gNew from the scheme of the
// graph it was derived from by mutating (inserting or deleting) the listed
// undirected edges. The vertex space must be unchanged. The result is
// bit-identical to BuildSchemeWorkers(gNew, prev.Params().Epsilon, workers)
// for any worker count; only work provably unaffected by the mutations is
// reused from prev.
func BuildSchemeIncremental(prev *Scheme, gNew *graph.Graph, mutated [][2]int32, workers int) (*IncrementalBuild, error) {
	if prev == nil {
		return nil, fmt.Errorf("core: incremental build needs a previous scheme")
	}
	n := gNew.NumVertices()
	if pn := prev.g.NumVertices(); pn != n {
		return nil, fmt.Errorf("core: incremental build: vertex space changed (%d -> %d)", pn, n)
	}
	p := prev.params // same ε and n ⇒ identical derived parameters

	// The net hierarchy is rebuilt from scratch: its greedy covering is
	// global (one far-away mutation can, in principle, shift a W-set),
	// and it is cheap next to store construction and label extraction.
	// The scattered scan order — the same one BuildSchemeWorkers uses,
	// which keeps the rebuild byte-compatible with the offline build —
	// confines reseated net points to the mutation's neighborhood, so
	// the seed set below stays proportional to the delta, not to n.
	hNew, err := nets.BuildWithOrderWorkers(gNew, nets.ScatteredOrder(n), workers)
	if err != nil {
		return nil, fmt.Errorf("core: incremental build net hierarchy: %w", err)
	}
	netOld, netNew := prev.h.NetLevels(), hNew.NetLevels()

	// Seeds: every vertex at which old and new structure can first
	// disagree — mutated-edge endpoints and net-membership changes.
	seedSet := make(map[int32]struct{})
	for _, e := range mutated {
		seedSet[e[0]] = struct{}{}
		seedSet[e[1]] = struct{}{}
	}
	for v := 0; v < n; v++ {
		if netOld[v] != netNew[v] {
			seedSet[int32(v)] = struct{}{}
		}
	}
	seeds := make([]int, 0, len(seedSet))
	for v := range seedSet {
		seeds = append(seeds, int(v))
	}
	slices.Sort(seeds)

	// One multi-source BFS per graph answers every "is any seed within
	// r of v" test the cleanliness criteria below need.
	seedOld, _ := prev.g.MultiSourceBFS(seeds)
	seedNew, _ := gNew.MultiSourceBFS(seeds)

	st, changedRows, reused := buildStore(gNew, hNew, p, workers, prev.store, seedOld, seedNew)
	stats := IncrementalStats{Seeds: len(seeds), RowsReused: reused}
	for li := 1; li < len(st.levels); li++ {
		stats.RowsTotal += len(st.levels[li].members)
		stats.RowsChanged += len(changedRows[li])
	}
	dirty := markDirtyLabels(prev, gNew, hNew, st, changedRows, seedOld, seedNew, workers, &stats)
	return &IncrementalBuild{
		Scheme: newScheme(gNew, hNew, p, st),
		Dirty:  dirty,
		Stats:  stats,
	}, nil
}

// markDirtyLabels computes a sound over-approximation of the vertices
// whose label under the new scheme differs from their label under prev.
//
// Lowest level: the level-(c+1) slice of L(v) is a pure function of the
// radius-r ball subgraph around v (all vertices qualify as points, edges
// are original graph edges), so it is unchanged whenever no seed lies
// within r of v in either graph — one scan of the precomputed seed
// distances.
//
// Upper levels: the slice stores (net point, distance) entries within r
// of v plus the store rows between them, and r at the top level spans the
// whole graph — proximity to a seed would mark everything. Instead the
// diff walks the few net points that could contribute a changed entry:
// a net point w can do so only if a seed lies within r of w (otherwise
// w's r-ball — which contains every vertex holding an entry for w — is
// identical in both graphs). For each such w, truncated BFSes in the old
// and new graphs diff its entries directly: vertices whose distance to w
// changed get marked; if w's net membership changed, every vertex that
// sees w at all gains or loses its point entry, so the whole ball is
// marked. A changed adjacency row is scoped tighter still: an edge entry
// (w,x) appears only in labels whose ball holds BOTH endpoints, so each
// changed row entry marks the intersection of the two endpoint balls
// rather than all of w's (see markChangedPairEntries).
func markDirtyLabels(prev *Scheme, gNew *graph.Graph, hNew *nets.Hierarchy, st *LevelGraphs,
	changedRows [][]int32, seedOld, seedNew []int32, workers int, stats *IncrementalStats) []int32 {

	n := gNew.NumVertices()
	p := st.params
	dirty := make([]bool, n)

	r0 := p.R(p.LowestLevel())
	for v := 0; v < n; v++ {
		if reachWithin(seedOld[v], r0) || reachWithin(seedNew[v], r0) {
			dirty[v] = true
		}
	}
	countDirty := func() int {
		c := 0
		for _, d := range dirty {
			if d {
				c++
			}
		}
		return c
	}
	stats.DirtyLow = countDirty()

	type diffTask struct {
		w         int32
		r         int32
		memberOld bool
		memberNew bool
		markAll   bool
	}
	var tasks []diffTask
	var pairs []ballPair
	pairSeen := make(map[ballPair]struct{})
	for li := 1; li < len(st.levels); li++ {
		sl := &st.levels[li]
		r := p.R(sl.level)
		rowChanged := make(map[int32]struct{}, len(changedRows[li]))
		for _, w := range changedRows[li] {
			rowChanged[w] = struct{}{}
		}
		oldMembers := prev.h.Level(int(sl.netLvl))
		newMembers := hNew.Level(int(sl.netLvl))
		oi, ni := 0, 0
		for oi < len(oldMembers) || ni < len(newMembers) {
			var w int32
			var mo, mn bool
			switch {
			case ni >= len(newMembers) || (oi < len(oldMembers) && oldMembers[oi] < newMembers[ni]):
				w, mo = oldMembers[oi], true
				oi++
			case oi >= len(oldMembers) || newMembers[ni] < oldMembers[oi]:
				w, mn = newMembers[ni], true
				ni++
			default:
				w, mo, mn = oldMembers[oi], true, true
				oi++
				ni++
			}
			if !reachWithin(seedOld[w], r) && !reachWithin(seedNew[w], r) {
				continue // w's r-ball is unchanged: no entry involving w moved
			}
			if _, rc := rowChanged[w]; rc && mo && mn {
				appendChangedPairs(prev.store.levels[li].row(w), sl.row(w), w, r, pairSeen, &pairs)
			}
			tasks = append(tasks, diffTask{w: w, r: r, memberOld: mo, memberNew: mn, markAll: mo != mn})
		}
	}
	stats.NetDiffed = len(tasks)

	var mu sync.Mutex
	nets.RunParallel(workers, len(tasks), func() func(int) {
		// The worker's state is one allocation the task closure keeps.
		w := &struct {
			scOld, scNew            graph.BFSScratch
			oldDist, visited, marks []int32
		}{scOld: *graph.NewBFSScratch(n), scNew: *graph.NewBFSScratch(n), oldDist: make([]int32, n)}
		for i := range w.oldDist {
			w.oldDist[i] = graph.Infinity
		}
		return func(ti int) {
			t := tasks[ti]
			oldDist, visited, marks := w.oldDist, w.visited[:0], w.marks[:0]
			if t.memberOld {
				w.scOld.TruncatedBFS(prev.g, int(t.w), t.r, func(v, d int32) {
					oldDist[v] = d
					visited = append(visited, v)
				})
			}
			if t.memberNew {
				w.scNew.TruncatedBFS(gNew, int(t.w), t.r, func(v, d int32) {
					if t.markAll {
						marks = append(marks, v)
						return
					}
					if oldDist[v] == d {
						oldDist[v] = -2 // matched: entry for w unchanged at v
					} else {
						marks = append(marks, v)
					}
				})
			}
			for _, v := range visited {
				if oldDist[v] != -2 || t.markAll {
					marks = append(marks, v)
				}
				oldDist[v] = graph.Infinity
			}
			mu.Lock()
			for _, v := range marks {
				dirty[v] = true
			}
			mu.Unlock()
			w.visited, w.marks = visited, marks
		}
	})

	stats.DirtyNet = countDirty() - stats.DirtyLow
	markChangedPairEntries(prev.g, gNew, pairs, dirty)
	stats.DirtyPair = countDirty() - stats.DirtyLow - stats.DirtyNet

	out := make([]int32, 0, n/8)
	for v := 0; v < n; v++ {
		if dirty[v] {
			out = append(out, int32(v))
		}
	}
	return out
}

// ballPair is one changed net-graph entry: endpoints w < x of a store
// level whose ball radius is r.
type ballPair struct {
	w, x, r int32
}

// appendChangedPairs merge-diffs a net point's old and new adjacency
// rows (both sorted by partner id) and records one ballPair per entry
// that appears on only one side or changed distance. Entries are
// symmetric — the partner's row changed identically — so pairs are
// deduplicated under w < x normalization.
func appendChangedPairs(oldRow, newRow []pointDist, w, r int32, seen map[ballPair]struct{}, pairs *[]ballPair) {
	emit := func(x int32) {
		k := ballPair{w: min(w, x), x: max(w, x), r: r}
		if _, ok := seen[k]; !ok {
			seen[k] = struct{}{}
			*pairs = append(*pairs, k)
		}
	}
	oi, ni := 0, 0
	for oi < len(oldRow) || ni < len(newRow) {
		switch {
		case ni >= len(newRow) || (oi < len(oldRow) && oldRow[oi].x < newRow[ni].x):
			emit(oldRow[oi].x)
			oi++
		case oi >= len(oldRow) || newRow[ni].x < oldRow[oi].x:
			emit(newRow[ni].x)
			ni++
		default:
			if oldRow[oi].d != newRow[ni].d {
				emit(oldRow[oi].x)
			}
			oi++
			ni++
		}
	}
}

// markChangedPairEntries marks the labels that hold a changed net-graph
// edge entry (w,x): exactly the vertices with BOTH endpoints inside
// their radius-r label ball, in the old graph (entry removed or
// re-lengthened) or the new one (entry added or re-lengthened). Both
// intersections are marked unconditionally — the union is a superset of
// either direction of change. Endpoint balls are memoized per
// (endpoint, radius) since changed entries cluster around the mutation
// and share endpoints; each intersection then costs two list walks over
// a shared stamp array. Marking a boolean per vertex is idempotent, so
// the result is independent of pair order (and of the worker count used
// elsewhere in the build).
func markChangedPairEntries(gOld, gNew *graph.Graph, pairs []ballPair, dirty []bool) {
	if len(pairs) == 0 {
		return
	}
	n := len(dirty)
	scratch := graph.NewBFSScratch(n)
	type ballKey struct {
		v, r int32
	}
	memoOld := make(map[ballKey][]int32)
	memoNew := make(map[ballKey][]int32)
	ball := func(memo map[ballKey][]int32, g *graph.Graph, v, r int32) []int32 {
		k := ballKey{v: v, r: r}
		if l, ok := memo[k]; ok {
			return l
		}
		var l []int32
		scratch.TruncatedBFS(g, int(v), r, func(u, _ int32) {
			l = append(l, u)
		})
		memo[k] = l
		return l
	}
	stamp := make([]int32, n)
	for i := range stamp {
		stamp[i] = -1
	}
	gen := int32(-1)
	intersectMark := func(memo map[ballKey][]int32, g *graph.Graph, pr ballPair) {
		gen++
		for _, v := range ball(memo, g, pr.x, pr.r) {
			stamp[v] = gen
		}
		for _, v := range ball(memo, g, pr.w, pr.r) {
			if stamp[v] == gen {
				dirty[v] = true
			}
		}
	}
	for _, pr := range pairs {
		intersectMark(memoOld, gOld, pr)
		intersectMark(memoNew, gNew, pr)
	}
}
