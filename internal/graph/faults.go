package graph

import "slices"

// FaultSet is a set of forbidden vertices and/or edges, the F of a
// forbidden-set query. The zero value, and a nil *FaultSet, are both valid
// empty sets, so callers can pass nil for failure-free queries.
type FaultSet struct {
	vertices map[int32]struct{}
	edges    map[uint64]struct{}
}

// NewFaultSet returns an empty fault set.
func NewFaultSet() *FaultSet { return &FaultSet{} }

// FaultVertices builds a fault set from forbidden vertices only.
func FaultVertices(vs ...int) *FaultSet {
	f := NewFaultSet()
	for _, v := range vs {
		f.AddVertex(v)
	}
	return f
}

// AddVertex marks vertex v forbidden.
func (f *FaultSet) AddVertex(v int) {
	if f.vertices == nil {
		f.vertices = make(map[int32]struct{})
	}
	f.vertices[int32(v)] = struct{}{}
}

// AddEdge marks the undirected edge (u,v) forbidden.
func (f *FaultSet) AddEdge(u, v int) {
	if f.edges == nil {
		f.edges = make(map[uint64]struct{})
	}
	f.edges[edgeKey(u, v)] = struct{}{}
}

// RemoveVertex unmarks a forbidden vertex (used by the dynamic oracle when a
// failed vertex recovers). Removing an absent vertex is a no-op.
func (f *FaultSet) RemoveVertex(v int) {
	if f != nil && f.vertices != nil {
		delete(f.vertices, int32(v))
	}
}

// RemoveEdge unmarks a forbidden edge. Removing an absent edge is a no-op.
func (f *FaultSet) RemoveEdge(u, v int) {
	if f != nil && f.edges != nil {
		delete(f.edges, edgeKey(u, v))
	}
}

// HasVertex reports whether v is forbidden.
func (f *FaultSet) HasVertex(v int) bool {
	if f == nil || f.vertices == nil {
		return false
	}
	_, ok := f.vertices[int32(v)]
	return ok
}

// HasEdge reports whether the undirected edge (u,v) is forbidden.
func (f *FaultSet) HasEdge(u, v int) bool {
	if f == nil || f.edges == nil {
		return false
	}
	_, ok := f.edges[edgeKey(u, v)]
	return ok
}

// NumVertices returns the number of forbidden vertices.
func (f *FaultSet) NumVertices() int {
	if f == nil {
		return 0
	}
	return len(f.vertices)
}

// NumEdges returns the number of forbidden edges.
func (f *FaultSet) NumEdges() int {
	if f == nil {
		return 0
	}
	return len(f.edges)
}

// Size returns |F|, the total number of forbidden elements.
func (f *FaultSet) Size() int { return f.NumVertices() + f.NumEdges() }

// Vertices returns the forbidden vertices in unspecified order.
func (f *FaultSet) Vertices() []int {
	if f == nil {
		return nil
	}
	out := make([]int, 0, len(f.vertices))
	for v := range f.vertices {
		out = append(out, int(v))
	}
	return out
}

// Edges returns the forbidden edges as (u,v) pairs with u < v, in
// unspecified order.
func (f *FaultSet) Edges() [][2]int {
	if f == nil {
		return nil
	}
	out := make([][2]int, 0, len(f.edges))
	for k := range f.edges {
		out = append(out, [2]int{int(k >> 32), int(k & 0xffffffff)})
	}
	return out
}

// Sorted returns the forbidden vertices ascending and the forbidden
// edges in ascending (u,v) order — the canonical order of a fault set,
// shared by the result-cache hash, traces and label resolution.
func (f *FaultSet) Sorted() ([]int, [][2]int) {
	vs, es := f.Vertices(), f.Edges()
	slices.Sort(vs)
	slices.SortFunc(es, func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
	return vs, es
}

// Clone returns an independent deep copy of the fault set.
func (f *FaultSet) Clone() *FaultSet {
	c := NewFaultSet()
	if f == nil {
		return c
	}
	if len(f.vertices) > 0 {
		c.vertices = make(map[int32]struct{}, len(f.vertices))
		for v := range f.vertices {
			c.vertices[v] = struct{}{}
		}
	}
	if len(f.edges) > 0 {
		c.edges = make(map[uint64]struct{}, len(f.edges))
		for e := range f.edges {
			c.edges[e] = struct{}{}
		}
	}
	return c
}

func edgeKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}
