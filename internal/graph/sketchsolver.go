package graph

import "math"

// DenseEdge is one undirected edge of a query-time sketch graph as the
// solver takes it: dense endpoint ids and a nonnegative weight (labels
// store distances as int32, so that is what an edge weighs).
type DenseEdge struct {
	U, V int32
	W    int32
}

// SketchSolver is reusable scratch for the query-time sketch graphs
// H(s,t,F): the CSR arcs of one weighted multigraph plus the Dijkstra
// state (distance, parent and heap arrays) needed to solve it. A decode
// builds thousands of tiny sketch graphs over a query stream, so the
// solver keeps every array between uses, growing to the largest sketch it
// has seen.
//
// H is a set of edges and the solver takes it as it was scanned: edge
// lists in any order, parallel edges and all — a lighter parallel simply
// wins the relaxation. What it reports is a function of the set alone:
// the distance, and the walk on which every vertex's predecessor is, of
// its tight predecessors (d(u) + w(u,v) = d(v)), the one with the
// smallest name in the ids the caller passes. Every weight of a sketch is
// positive, so a tight predecessor of a vertex at distance ≤ d(dst) is
// settled — and has relaxed all its arcs — before dst is, whatever order
// the queue breaks its ties in; neither the order of the lists nor of
// the edges in them can show. A SketchSolver is not safe for concurrent
// use.
type SketchSolver struct {
	// CSR arcs: the arcs of vertex v are arcs[off[v]:off[v+1]].
	off  []int32
	arcs []sketchArc
	// Dijkstra state.
	dist   []int64
	parent []int32
	pq     []distEntry
}

type sketchArc struct{ to, w int32 }

// unreached is the solver's own mark of a vertex no relaxation has got
// to: above every distance, so the relaxation is one comparison.
const unreached = math.MaxInt64

// pack builds the CSR arcs of the multigraph on n vertices whose edges
// are the concatenation of lists: one counting pass, a prefix sum, then
// the fill.
func (s *SketchSolver) pack(n int, lists [][]DenseEdge) {
	nArcs := 0
	for _, edges := range lists {
		nArcs += 2 * len(edges)
	}
	if cap(s.off) < n+1 {
		s.off = make([]int32, n+1)
	}
	off := s.off[:n+1]
	clear(off)
	if cap(s.arcs) < nArcs {
		s.arcs = make([]sketchArc, nArcs)
	}
	arcs := s.arcs[:nArcs]
	for _, edges := range lists {
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
	}
	// off[v] holds v's degree: turn it into the end of v's range, which
	// the fill walks down to its start.
	var sum int32
	for v := 0; v < n; v++ {
		sum += off[v]
		off[v] = sum
	}
	off[n] = sum
	for _, edges := range lists {
		for _, e := range edges {
			off[e.U]--
			arcs[off[e.U]] = sketchArc{to: e.V, w: e.W}
			off[e.V]--
			arcs[off[e.V]] = sketchArc{to: e.U, w: e.W}
		}
	}
}

// ShortestPath returns d(src,dst) in the multigraph on the vertices
// 0..len(ids)-1 whose edges are the given lists together, or
// WeightedInfinity when dst is unreachable. ids[v] is the name that
// breaks ties between predecessors (see the type comment); names are
// distinct. The search terminates once dst is settled; the parent tree of
// the settled region remains available to PathTo until the next call.
func (s *SketchSolver) ShortestPath(ids []int32, src, dst int, lists ...[]DenseEdge) int64 {
	n := len(ids)
	s.pack(n, lists)
	if cap(s.dist) < n {
		s.dist = make([]int64, n)
		s.parent = make([]int32, n)
	}
	dist, parent := s.dist[:n], s.parent[:n]
	for i := range dist {
		dist[i] = unreached
		parent[i] = -1
	}
	off, arcs := s.off, s.arcs
	s.pq = s.pq[:0]
	dist[src] = 0
	s.push(distEntry{v: int32(src), d: 0})
	for len(s.pq) > 0 {
		e := s.pop()
		if e.d != dist[e.v] {
			continue // stale entry
		}
		if int(e.v) == dst {
			break
		}
		for _, a := range arcs[off[e.v]:off[e.v+1]] {
			t, nd := a.to, e.d+int64(a.w)
			switch {
			case nd < dist[t]:
				dist[t] = nd
				parent[t] = e.v
				s.push(distEntry{v: t, d: nd})
			case nd == dist[t] && e.d < nd && ids[e.v] < ids[parent[t]]:
				// As short a way to t through a predecessor of smaller
				// name. (Over a weightless edge the first to get there
				// stays: t may be settled already, and on e.v's own path.)
				parent[t] = e.v
			}
		}
	}
	if dist[dst] == unreached {
		return WeightedInfinity
	}
	return dist[dst]
}

// PathTo appends the shortest path src..dst found by the last
// ShortestPath call onto out and returns it. It must only be called when
// that search reached dst.
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
