// Package oracle packages the labeling scheme as centralized data
// structures: a static forbidden-set distance oracle (the table of all
// labels — "the size of the oracle is at most n times the label length"),
// and the fully dynamic (1+ε) distance oracle obtained from the
// forbidden-set labels via the transform of Abraham, Chechik and Gavoille
// (STOC 2012), cited in the paper's Related Work: failures and recoveries
// accumulate in a forbidden set, and the structure rebuilds itself on the
// surviving graph when the set grows past a threshold (≈√n), keeping
// query cost bounded independently of the total number of updates.
package oracle

import (
	"fmt"
	"math"
	"sync"

	"fsdl/internal/core"
	"fsdl/internal/graph"
)

// Static is a forbidden-set distance oracle: the table T[v] = L(v) of all
// serialized labels. Queries load the required labels from the table and
// run the label decoder — no other state is consulted.
type Static struct {
	epsilon float64
	labels  [][]byte
	bits    []int
}

// BuildStatic materializes the oracle for g at precision ε. Label
// extraction is embarrassingly parallel, so it runs on a worker pool sized
// to the machine.
func BuildStatic(g *graph.Graph, epsilon float64) (*Static, error) {
	s, err := core.BuildScheme(g, epsilon)
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	o := &Static{
		epsilon: epsilon,
		labels:  make([][]byte, n),
		bits:    make([]int, n),
	}
	// Extract through the scheme's bulk API (parallel, pooled BFS
	// scratch, no label cache), one chunk at a time so only a chunk's
	// worth of decoded labels is ever live alongside the encoded table.
	const chunk = 512
	vs := make([]int, 0, chunk)
	for base := 0; base < n; base += chunk {
		hi := min(base+chunk, n)
		vs = vs[:0]
		for v := base; v < hi; v++ {
			vs = append(vs, v)
		}
		for i, l := range s.Labels(vs) {
			buf, nbits := l.Encode()
			o.labels[base+i] = buf
			o.bits[base+i] = nbits
		}
	}
	return o, nil
}

// NumVertices returns the number of table entries.
func (o *Static) NumVertices() int { return len(o.labels) }

// SizeBits returns the total oracle size in bits (the sum of all label
// lengths).
func (o *Static) SizeBits() int64 {
	var total int64
	for _, b := range o.bits {
		total += int64(b)
	}
	return total
}

// MaxLabelBits returns the label length of the underlying scheme — the
// size of the largest label.
func (o *Static) MaxLabelBits() int {
	maxBits := 0
	for _, b := range o.bits {
		if b > maxBits {
			maxBits = b
		}
	}
	return maxBits
}

// label loads and decodes T[v].
func (o *Static) label(v int) (*core.Label, error) {
	if v < 0 || v >= len(o.labels) {
		return nil, fmt.Errorf("oracle: vertex %d out of range [0,%d)", v, len(o.labels))
	}
	return core.DecodeLabel(o.labels[v], o.bits[v])
}

// Distance answers the forbidden-set query (u,v,F) from the label table.
// ok is false when u and v are disconnected in G\F or an endpoint is
// forbidden. A non-nil error means the query itself was malformed — an
// out-of-range endpoint or fault id — and carries no verdict about
// connectivity.
func (o *Static) Distance(u, v int, faults *graph.FaultSet) (int64, bool, error) {
	q, err := core.ResolveQuery(u, v, faults, o.label, false)
	if err != nil || q == nil {
		return 0, false, err
	}
	// Query.Distance decodes on a pooled scratch: steady-state queries
	// reuse one warmed-up scratch instead of allocating per call.
	d, ok := q.Distance()
	return d, ok, nil
}

// Connected answers a forbidden-set connectivity query. A non-nil error
// means an out-of-range endpoint or fault id.
func (o *Static) Connected(u, v int, faults *graph.FaultSet) (bool, error) {
	if u < 0 || u >= len(o.labels) {
		return false, fmt.Errorf("oracle: vertex %d out of range [0,%d)", u, len(o.labels))
	}
	if v < 0 || v >= len(o.labels) {
		return false, fmt.Errorf("oracle: vertex %d out of range [0,%d)", v, len(o.labels))
	}
	if u == v {
		return !faults.HasVertex(u), nil
	}
	_, ok, err := o.Distance(u, v, faults)
	return ok, err
}

// Dynamic is a fully dynamic (1+ε)-approximate distance oracle: vertices
// and edges can fail and recover online, and queries reflect the current
// surviving graph. Between rebuilds, updates cost O(1) and a query costs
// what a forbidden-set query with the current delta set costs; a rebuild
// is triggered when the delta exceeds the threshold.
//
// Dynamic is safe for concurrent use: queries take a read lock, updates
// (and the rebuilds they may trigger) take the write lock, so a serving
// layer can answer Distance calls while failures and recoveries stream in.
type Dynamic struct {
	mu        sync.RWMutex
	base      *graph.Graph
	epsilon   float64
	threshold int

	scheme *core.Scheme
	// origOf / compactOf map between original ids and the compacted ids
	// of the currently built scheme. compactOf[v] < 0 when v was removed
	// at the last rebuild.
	origOf    []int32
	compactOf []int32
	// removedV / removedE are the failures baked into the current build.
	removedV map[int32]bool
	removedE map[[2]int32]bool
	// delta holds the failures accumulated since the last rebuild, in
	// original ids.
	delta *graph.FaultSet
	// rebuilds counts rebuilds, exposed for tests and benchmarks.
	rebuilds int
}

// NewDynamic builds a dynamic oracle over g with precision ε. threshold
// ≤ 0 selects the default ⌈√n⌉.
func NewDynamic(g *graph.Graph, epsilon float64, threshold int) (*Dynamic, error) {
	if threshold <= 0 {
		threshold = int(math.Ceil(math.Sqrt(float64(g.NumVertices()))))
		if threshold < 1 {
			threshold = 1
		}
	}
	d := &Dynamic{
		base:      g,
		epsilon:   epsilon,
		threshold: threshold,
		removedV:  map[int32]bool{},
		removedE:  map[[2]int32]bool{},
		delta:     graph.NewFaultSet(),
	}
	if err := d.rebuild(); err != nil {
		return nil, err
	}
	d.rebuilds = 0
	return d, nil
}

// Rebuilds returns the number of rebuilds performed so far.
func (d *Dynamic) Rebuilds() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.rebuilds
}

// DeltaSize returns the size of the forbidden set accumulated since the
// last rebuild.
func (d *Dynamic) DeltaSize() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.delta.Size()
}

// FailVertex marks v failed. No-op if already failed.
func (d *Dynamic) FailVertex(v int) error {
	if err := d.checkVertex(v); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.removedV[int32(v)] || d.delta.HasVertex(v) {
		return nil
	}
	d.delta.AddVertex(v)
	return d.maybeRebuild()
}

// RecoverVertex marks v alive again. Recovering a vertex that was baked
// into the current build forces an immediate rebuild.
func (d *Dynamic) RecoverVertex(v int) error {
	if err := d.checkVertex(v); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.delta.HasVertex(v) {
		d.delta.RemoveVertex(v)
		return nil
	}
	if d.removedV[int32(v)] {
		delete(d.removedV, int32(v))
		return d.rebuild()
	}
	return nil
}

// FailEdge marks the edge (u,v) failed.
func (d *Dynamic) FailEdge(u, v int) error {
	if err := d.checkVertex(u); err != nil {
		return err
	}
	if err := d.checkVertex(v); err != nil {
		return err
	}
	if !d.base.HasEdge(u, v) {
		return fmt.Errorf("oracle: (%d,%d) is not an edge", u, v)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	k := edgeID(u, v)
	if d.removedE[k] || d.delta.HasEdge(u, v) {
		return nil
	}
	d.delta.AddEdge(u, v)
	return d.maybeRebuild()
}

// RecoverEdge marks the edge (u,v) alive again.
func (d *Dynamic) RecoverEdge(u, v int) error {
	if err := d.checkVertex(u); err != nil {
		return err
	}
	if err := d.checkVertex(v); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.delta.HasEdge(u, v) {
		d.delta.RemoveEdge(u, v)
		return nil
	}
	k := edgeID(u, v)
	if d.removedE[k] {
		delete(d.removedE, k)
		return d.rebuild()
	}
	return nil
}

// Distance answers a (1+ε)-approximate distance query on the current
// surviving graph. ok is false when u and v are disconnected (or failed).
// A non-nil error means an out-of-range vertex id and carries no verdict.
func (d *Dynamic) Distance(u, v int) (int64, bool, error) {
	if err := d.checkVertex(u); err != nil {
		return 0, false, err
	}
	if err := d.checkVertex(v); err != nil {
		return 0, false, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	cu, cv := d.compactOf[u], d.compactOf[v]
	if cu < 0 || cv < 0 || d.delta.HasVertex(u) || d.delta.HasVertex(v) {
		return 0, false, nil
	}
	// Translate the delta set into compact ids.
	f := graph.NewFaultSet()
	for _, fv := range d.delta.Vertices() {
		f.AddVertex(int(d.compactOf[fv]))
	}
	for _, fe := range d.delta.Edges() {
		a, b := d.compactOf[fe[0]], d.compactOf[fe[1]]
		if a >= 0 && b >= 0 {
			f.AddEdge(int(a), int(b))
		}
	}
	dist, ok := d.scheme.Distance(int(cu), int(cv), f)
	return dist, ok, nil
}

func (d *Dynamic) checkVertex(v int) error {
	if v < 0 || v >= d.base.NumVertices() {
		return fmt.Errorf("oracle: vertex %d out of range [0,%d)", v, d.base.NumVertices())
	}
	return nil
}

func (d *Dynamic) maybeRebuild() error {
	if d.delta.Size() > d.threshold {
		return d.rebuild()
	}
	return nil
}

// rebuild folds the delta into the removed sets and rebuilds the scheme on
// the surviving graph with compacted vertex ids.
func (d *Dynamic) rebuild() error {
	for _, v := range d.delta.Vertices() {
		d.removedV[int32(v)] = true
	}
	for _, e := range d.delta.Edges() {
		d.removedE[edgeID(e[0], e[1])] = true
	}
	d.delta = graph.NewFaultSet()

	n := d.base.NumVertices()
	d.compactOf = make([]int32, n)
	d.origOf = d.origOf[:0]
	for v := 0; v < n; v++ {
		if d.removedV[int32(v)] {
			d.compactOf[v] = -1
			continue
		}
		d.compactOf[v] = int32(len(d.origOf))
		d.origOf = append(d.origOf, int32(v))
	}
	b := graph.NewBuilder(len(d.origOf))
	d.base.ForEachEdge(func(u, v int) {
		cu, cv := d.compactOf[u], d.compactOf[v]
		if cu < 0 || cv < 0 || d.removedE[edgeID(u, v)] {
			return
		}
		b.AddEdge(int(cu), int(cv))
	})
	g, err := b.Build()
	if err != nil {
		return fmt.Errorf("oracle: rebuild surviving graph: %w", err)
	}
	s, err := core.BuildScheme(g, d.epsilon)
	if err != nil {
		return fmt.Errorf("oracle: rebuild scheme: %w", err)
	}
	d.scheme = s
	d.rebuilds++
	return nil
}

func edgeID(u, v int) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{int32(u), int32(v)}
}
