// Package routing implements the forbidden-set compact routing scheme of
// Section 2.2 (Theorem 2.7): each vertex stores its distance label plus,
// for every vertex x appearing in the label, the port of the outgoing edge
// on a shortest path toward x. A source computes the sketch path from the
// labels of (s, t, F) and routes hop by hop through its waypoints; since
// every sketch edge's shortest paths avoid F (Lemma 2.3), the packet
// arrives over a path of length at most (1+ε)·d_{G\F}(s,t).
//
// The package also implements the failure-recovery loop from the paper's
// Applications section: a router that discovers a failure en route adds it
// to its forbidden set and immediately recomputes, without waiting for a
// global route recomputation.
package routing

import (
	"fmt"
	"math/bits"

	"fsdl/internal/core"
	"fsdl/internal/graph"
)

// Scheme is a forbidden-set routing scheme over a preprocessed distance
// labeling scheme.
type Scheme struct {
	cs *core.Scheme
	g  *graph.Graph
}

// New wraps a distance labeling scheme into a routing scheme.
func New(cs *core.Scheme) *Scheme {
	return &Scheme{cs: cs, g: cs.Graph()}
}

// Core returns the underlying distance labeling scheme.
func (s *Scheme) Core() *core.Scheme { return s.cs }

// Route is the result of routing one packet.
type Route struct {
	// Path is the exact sequence of vertices traversed, from source to
	// destination inclusive.
	Path []int
	// Length is the number of edges traversed (len(Path)-1).
	Length int
	// Waypoints is the sketch path the header carried (global vertex ids).
	Waypoints []int32
	// Recomputes counts route recomputations (0 for full-knowledge
	// routing; up to |F| for adaptive routing).
	Recomputes int
}

// TableBits returns the size in bits of v's routing table: the distance
// label plus one port number per vertex mentioned in the label. A port
// needs ⌈log₂ deg(v)⌉ bits.
func (s *Scheme) TableBits(v int) int {
	l := s.cs.Label(v)
	portBits := bits.Len(uint(s.g.Degree(v)))
	return l.BitLen() + l.NumPoints()*portBits
}

// NextHop returns v's port toward target: the neighbor of v on a shortest
// v→target path (smallest-id tie-break), mirroring the port table entry
// the scheme stores. ok is false when target is unreachable from v.
//
// The simulation computes the entry on demand rather than materializing
// every table; the value is exactly what the stored port would be.
func (s *Scheme) NextHop(v, target int) (int, bool) {
	if v == target {
		return v, true
	}
	dist := s.g.BFS(target)
	return nextHopOnTree(s.g, dist, v)
}

func nextHopOnTree(g *graph.Graph, distToTarget []int32, v int) (int, bool) {
	dv := distToTarget[v]
	if !graph.Reachable(dv) {
		return 0, false
	}
	for _, nb := range g.Neighbors(v) {
		if graph.Reachable(distToTarget[nb]) && distToTarget[nb] == dv-1 {
			return int(nb), true
		}
	}
	return 0, false
}

// RouteWithFaults routes a packet from src to dst where the source knows
// the full fault set F up front. It returns ok=false when src and dst are
// disconnected in G\F.
func (s *Scheme) RouteWithFaults(src, dst int, faults *graph.FaultSet) (Route, bool) {
	if src == dst {
		return Route{Path: []int{src}}, true
	}
	q, err := s.cs.NewQuery(src, dst, faults)
	if err != nil {
		return Route{}, false
	}
	waypoints, ok := walk(q)
	if !ok {
		return Route{}, false
	}
	r := Route{Waypoints: waypoints, Path: []int{src}}
	cur := src
	for wi := 1; wi < len(waypoints); wi++ {
		target := int(waypoints[wi])
		dist := s.g.BFS(target)
		for cur != target {
			next, ok := nextHopOnTree(s.g, dist, cur)
			if !ok {
				return Route{}, false
			}
			cur = next
			r.Path = append(r.Path, cur)
		}
	}
	r.Length = len(r.Path) - 1
	return r, true
}

// walk decodes q for the s..t walk of its sketch, the waypoints a route
// follows; ok is false when s and t are disconnected.
func walk(q *core.Query) ([]int32, bool) {
	var dec core.Decoder
	defer dec.Release()
	var path []int32
	res := dec.Decode(q, core.Opts{Path: &path})
	return path, res.OK
}

// AdaptiveRoute simulates the Applications-section recovery scenario: the
// source knows only the subset known ⊆ faults of failures (nil for none)
// and routes toward dst. Whenever the packet is about to step onto a
// failed vertex or edge, the current router discovers that failure, adds
// it to the known set, and recomputes the route from its own position.
// At most |F| recomputations occur. ok is false when src and dst are
// disconnected in G\faults.
//
// known is mutated to reflect everything discovered along the way, so the
// caller can observe (and reuse) the propagated failure knowledge.
func (s *Scheme) AdaptiveRoute(src, dst int, faults, known *graph.FaultSet) (Route, bool) {
	if faults.HasVertex(src) || faults.HasVertex(dst) {
		return Route{}, false
	}
	if known == nil {
		known = graph.NewFaultSet()
	}
	r := Route{Path: []int{src}}
	cur := src
	maxRecomputes := faults.Size() + 1
	for attempt := 0; attempt < maxRecomputes+1; attempt++ {
		sub, ok := s.RouteWithFaults(cur, dst, known)
		if !ok {
			// Disconnected under a subset of the true faults implies
			// disconnected under all of them.
			return Route{}, false
		}
		progressed, discovered := s.walkUntilFault(&r, sub.Path, faults, known)
		cur = r.Path[len(r.Path)-1]
		if cur == dst {
			r.Length = len(r.Path) - 1
			r.Recomputes = attempt
			return r, true
		}
		if !discovered && !progressed {
			// No new knowledge and no progress: cannot happen when the
			// scheme's guarantees hold; bail out rather than loop.
			return Route{}, false
		}
		if discovered {
			continue
		}
	}
	return Route{}, false
}

// walkUntilFault advances the packet along path (path[0] must equal the
// current position), appending to r.Path, until it reaches the end or the
// next step would use a failed vertex or edge. In the latter case the
// failure is added to known. It reports whether any step was taken and
// whether a failure was discovered.
func (s *Scheme) walkUntilFault(r *Route, path []int, faults, known *graph.FaultSet) (progressed, discovered bool) {
	for i := 1; i < len(path); i++ {
		cur, next := path[i-1], path[i]
		if faults.HasVertex(next) {
			known.AddVertex(next)
			return progressed, true
		}
		if faults.HasEdge(cur, next) {
			known.AddEdge(cur, next)
			return progressed, true
		}
		r.Path = append(r.Path, next)
		progressed = true
	}
	return progressed, false
}

// VerifyLabelContainment checks the structural claim Section 2.2 relies
// on: for a sketch edge (x,y) of a query, every vertex z on a shortest
// x→y path in G has each net-point endpoint of the edge in its label at
// the level that contributed the edge — so z can route toward that
// endpoint with stretch 1 using only its own table. (Owner endpoints —
// s or t themselves — are carried by name in the header instead.) Used by
// tests; returns an error describing the first violation.
func (s *Scheme) VerifyLabelContainment(e core.SketchEdge) error {
	p := s.cs.Params()
	h := s.cs.Hierarchy()
	netLvl := p.NetLevel(e.Level)
	if netLvl > h.MaxLevel() {
		netLvl = h.MaxLevel()
	}
	dist := s.g.BFS(int(e.X))
	distY := s.g.BFS(int(e.Y))
	total := dist[e.Y]
	if !graph.Reachable(total) {
		return fmt.Errorf("routing: sketch edge (%d,%d) endpoints disconnected", e.X, e.Y)
	}
	checkX := h.InNet(int(e.X), netLvl)
	checkY := h.InNet(int(e.Y), netLvl)
	for z := 0; z < s.g.NumVertices(); z++ {
		if !graph.Reachable(dist[z]) || !graph.Reachable(distY[z]) || dist[z]+distY[z] != total {
			continue // not on any shortest path
		}
		lz := s.cs.Label(z)
		if checkX && int32(z) != e.X {
			if _, ok := lz.DistTo(e.Level, e.X); !ok {
				return fmt.Errorf("routing: %d on shortest (%d,%d)-path misses %d at level %d",
					z, e.X, e.Y, e.X, e.Level)
			}
		}
		if checkY && int32(z) != e.Y {
			if _, ok := lz.DistTo(e.Level, e.Y); !ok {
				return fmt.Errorf("routing: %d on shortest (%d,%d)-path misses %d at level %d",
					z, e.X, e.Y, e.Y, e.Level)
			}
		}
	}
	return nil
}

// PortTable materializes v's full routing table: for every vertex x
// appearing in v's label, the neighbor of v on a shortest v→x path. This
// is the stored structure Theorem 2.7 describes; the simulation methods
// compute entries on demand, but PortTable lets callers export the real
// artifact. Unreachable targets (other components) are omitted.
func (s *Scheme) PortTable(v int) map[int32]int32 {
	l := s.cs.Label(v)
	targets := map[int32]bool{}
	for _, lv := range l.Levels {
		for _, pe := range lv.Points {
			if int(pe.X) != v {
				targets[pe.X] = true
			}
		}
	}
	// One BFS per neighbor of v (plus v itself) prices every target:
	// port(v→x) is any neighbor nb with d(nb,x) = d(v,x) − 1.
	distV := s.g.BFS(v)
	nbs := s.g.Neighbors(v)
	nbDist := make([][]int32, len(nbs))
	for i, nb := range nbs {
		nbDist[i] = s.g.BFS(int(nb))
	}
	table := make(map[int32]int32, len(targets))
	for x := range targets {
		if !graph.Reachable(distV[x]) {
			continue
		}
		for i, nb := range nbs {
			if graph.Reachable(nbDist[i][x]) && nbDist[i][x] == distV[x]-1 {
				table[x] = nb
				break
			}
		}
	}
	return table
}
