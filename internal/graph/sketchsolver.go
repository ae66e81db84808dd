package graph

import "slices"

// DenseEdge is one undirected edge of a query-time sketch graph as the
// solver takes it: dense endpoint ids and a nonnegative weight (labels
// store distances as int32, so that is what an edge weighs).
type DenseEdge struct {
	U, V int32
	W    int32
}

// Arcs is a weighted multigraph as CSR arcs — those out of v are
// arcs[off[v]:off[v+1]] — whose arrays outlive a Pack. Edges that stand
// for many pairs are packed once and passed to every ShortestPath.
type Arcs struct {
	off       []int32
	arcs      []sketchArc
	collapsed bool
	// at[u] is where Collapse kept the arc to u of the vertex at hand.
	at []int32
}

type sketchArc struct{ to, w int32 }

// Pack replaces a's arcs with those of the multigraph on the vertices
// 0..n-1 whose edges are edges: one counting pass, a prefix sum, then
// the fill. It panics on an endpoint out of range or a negative weight.
func (a *Arcs) Pack(n int, edges []DenseEdge) {
	off := slices.Grow(a.off[:0], n+1)[:n+1]
	clear(off)
	arcs := slices.Grow(a.arcs[:0], 2*len(edges))[:2*len(edges)]
	for _, e := range edges {
		if uint32(e.U) >= uint32(n) || uint32(e.V) >= uint32(n) {
			panic("graph: sketch edge endpoint out of range")
		}
		if e.W < 0 {
			panic("graph: negative edge weight")
		}
		off[e.U]++
		off[e.V]++
	}
	// off[v] holds v's degree: turn it into the end of v's range, which
	// the fill walks down to its start.
	var sum int32
	for v := 0; v < n; v++ {
		sum += off[v]
		off[v] = sum
	}
	off[n] = sum
	for _, e := range edges {
		off[e.U]--
		arcs[off[e.U]] = sketchArc{to: e.V, w: e.W}
		off[e.V]--
		arcs[off[e.V]] = sketchArc{to: e.U, w: e.W}
	}
	a.off, a.arcs, a.collapsed = off, arcs, false
}

// Collapse keeps, of every bundle of parallel arcs of a packed Arcs, one
// of the lightest: one stamp pass that compacts the arcs in place, and a
// no-op until the next Pack. Shortest distances are unchanged, and so is
// every tight predecessor (a heavier parallel never is one; equal ones
// are the same predecessor), hence ShortestPath's walk.
func (a *Arcs) Collapse() {
	if a.collapsed {
		return
	}
	n := len(a.off) - 1
	// at needs no reset: an entry counts only if it points into v's kept
	// range (distinct targets) at an arc to the vertex asked about.
	a.at = slices.Grow(a.at[:0], n)[:n]
	at, arcs := a.at, a.arcs
	var kept, lo int32
	for v := 0; v < n; v++ {
		hi, start := a.off[v+1], kept
		for i := lo; i < hi; i++ {
			arc := arcs[i]
			if p := at[arc.to]; p >= start && p < kept && arcs[p].to == arc.to {
				arcs[p].w = min(arcs[p].w, arc.w)
				continue
			}
			at[arc.to] = kept
			arcs[kept] = arc
			kept++
		}
		a.off[v], lo = start, hi
	}
	a.off[n] = kept
	a.arcs, a.collapsed = arcs[:kept], true
}

// SketchSolver is reusable scratch for the query-time sketch graphs
// H(s,t,F): the packed arcs of one pair's weighted multigraph plus the
// Dijkstra state (distance, parent and heap arrays) needed to solve it
// beside a fixed Arcs. A decode builds thousands of tiny sketch graphs
// over a query stream, so the solver keeps every array between uses,
// growing to the largest sketch it has seen.
//
// H is a set of edges and the solver takes it as it comes: a run packed
// (and perhaps collapsed) once, a pair's edges in any order, parallel
// edges and all — a lighter parallel simply wins the relaxation. What it
// reports is a function of the set alone: the distance, and the walk on
// which every vertex's predecessor is, of its tight predecessors
// (d(u) + w(u,v) = d(v)), the one with the smallest name in the ids the
// caller passes. Every weight of a sketch is positive, so a tight
// predecessor of a vertex at distance ≤ d(dst) is settled — and has
// relaxed all its arcs — before dst is, whatever order the queue breaks
// its ties in; neither the split between run and pair nor the order of
// the edges can show. A SketchSolver is not safe for concurrent use.
type SketchSolver struct {
	// DistanceOnly makes the searches that follow keep no parent tree: a
	// relaxation only lowers a distance, and breaks no tie. The distance
	// is the same; PathTo after such a search is invalid.
	DistanceOnly bool

	pair Arcs
	// Dijkstra state.
	dist   []int64
	parent []int32
	pq     []distEntry
}

// unreached is the solver's own mark of a vertex no relaxation has got
// to: above every distance, so the relaxation is one comparison.
const unreached = 1<<63 - 1

// ShortestPath returns d(src,dst) in the multigraph on the vertices
// 0..len(ids)-1 whose edges are run's (nil: none; its vertices are the
// first of ids) and pair's together, or WeightedInfinity when dst is
// unreachable. ids[v] is the name that breaks ties between predecessors
// (see the type comment); names are distinct. A settled vertex relaxes
// its run arcs, then its pair arcs. The search terminates once dst is
// settled, or earlier, once dst's tentative distance is at most bound
// (negative: never) — a caller that knows no src–dst path is shorter
// than bound gets d(src,dst) that much sooner, one that is wrong about it
// the length of some path no longer than bound. Unless DistanceOnly, the
// parent tree of the settled region remains available to PathTo until the
// next call, which is a shortest path only if the search settled dst.
func (s *SketchSolver) ShortestPath(ids []int32, src, dst int, run *Arcs, pair []DenseEdge, bound int64) int64 {
	n := len(ids)
	s.dist = slices.Grow(s.dist[:0], n)[:n]
	s.parent = s.parent[:0] // none in the DistanceOnly mode, for PathTo to trip on
	if !s.DistanceOnly {
		s.parent = slices.Grow(s.parent, n)[:n]
	}
	for i := range s.dist {
		s.dist[i] = unreached
	}
	for i := range s.parent {
		s.parent[i] = -1
	}
	s.pq = s.pq[:0]
	s.dist[src] = 0
	s.push(distEntry{v: int32(src), d: 0})
	s.pair.Pack(n, pair)
	if run == nil {
		run = &Arcs{}
	}
	if len(run.off) > n+1 {
		panic("graph: run has more vertices than ids")
	}
	runOff, runArcs, nRun := run.off, run.arcs, int32(max(len(run.off)-1, 0))
	dist, relax := s.dist, s.relax
	if s.DistanceOnly {
		relax = s.lower
	}
	off, arcs := s.pair.off, s.pair.arcs
	for len(s.pq) > 0 && dist[dst] > bound {
		e := s.pop()
		if e.d != dist[e.v] {
			continue // stale entry
		}
		if e.d >= dist[dst] {
			break // dst is settled: nothing left in the queue shortens it
		}
		if e.v < nRun {
			relax(ids, e, runArcs[runOff[e.v]:runOff[e.v+1]])
		}
		relax(ids, e, arcs[off[e.v]:off[e.v+1]])
	}
	if dist[dst] == unreached {
		return WeightedInfinity
	}
	return dist[dst]
}

// relax relaxes the arcs as out of the settled vertex e.v, in a call of
// its own so that the arc loop keeps its values in registers.
func (s *SketchSolver) relax(ids []int32, e distEntry, as []sketchArc) {
	dist, parent := s.dist, s.parent
	for _, a := range as {
		t, nd := a.to, e.d+int64(a.w)
		switch {
		case nd < dist[t]:
			dist[t] = nd
			parent[t] = e.v
			s.push(distEntry{v: t, d: nd})
		case nd == dist[t] && e.d < nd && ids[e.v] < ids[parent[t]]:
			// As short a way to t through a predecessor of smaller name.
			// (Over a weightless edge the first to get there stays: t may
			// be settled already, and on e.v's own path.)
			parent[t] = e.v
		}
	}
}

// lower is relax keeping no parent tree: the DistanceOnly mode's.
func (s *SketchSolver) lower(_ []int32, e distEntry, as []sketchArc) {
	dist := s.dist
	for _, a := range as {
		if t, nd := a.to, e.d+int64(a.w); nd < dist[t] {
			dist[t] = nd
			s.push(distEntry{v: t, d: nd})
		}
	}
}

// PathTo appends the shortest path src..dst found by the last
// ShortestPath call onto out and returns it. It must only be called when
// that search reached dst, and kept its parent tree: after a DistanceOnly
// one there is none, and a step along it panics.
func (s *SketchSolver) PathTo(src, dst int, out []int32) []int32 {
	start := len(out)
	for v := int32(dst); v != int32(src); v = s.parent[v] {
		out = append(out, v)
	}
	out = append(out, int32(src))
	for i, j := start, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Dist is the distance the last search settled v at, for v on the path
// PathTo reports.
func (s *SketchSolver) Dist(v int32) int64 { return s.dist[v] }

// push and pop are container/heap's up and down on a min-heap ordered by
// distance.
func (s *SketchSolver) push(e distEntry) {
	s.pq = append(s.pq, e)
	j := len(s.pq) - 1
	for j > 0 {
		i := (j - 1) / 2
		if s.pq[j].d >= s.pq[i].d {
			break
		}
		s.pq[i], s.pq[j] = s.pq[j], s.pq[i]
		j = i
	}
}

func (s *SketchSolver) pop() distEntry {
	n := len(s.pq) - 1
	s.pq[0], s.pq[n] = s.pq[n], s.pq[0]
	// sift down over pq[:n], mirroring container/heap.down.
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && s.pq[j2].d < s.pq[j1].d {
			j = j2
		}
		if s.pq[j].d >= s.pq[i].d {
			break
		}
		s.pq[i], s.pq[j] = s.pq[j], s.pq[i]
		i = j
	}
	e := s.pq[n]
	s.pq = s.pq[:n]
	return e
}
