// Package nets builds the hierarchy of nets at the heart of the labeling
// scheme of Abraham, Chechik, Gavoille and Peleg: vertex sets
// N_0 ⊇ N_1 ⊇ … ⊇ N_L (L = ⌈log₂ n⌉) where N_i is a (2^i − 1)-dominating
// set of the graph, obtained as N_i = ⋃_{j≥i} W(2^j) with each W(r) the
// greedy r-separated dominating set of Fact 1 (Gupta–Krauthgamer–Lee).
//
// For a graph of doubling dimension α the hierarchy satisfies the packing
// bound of Lemma 2.2: |B(v,R) ∩ N_i| ≤ 2·(4R/2^i)^α for every v, R, i.
package nets

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"fsdl/internal/graph"
)

// Hierarchy is an immutable hierarchy of nets over a graph.
type Hierarchy struct {
	g      *graph.Graph
	levels [][]int32 // levels[i] = members of N_i in increasing order
	wsets  [][]int32 // wsets[j] = members of W(2^j) in selection order
	// netLevel[v] = largest i such that v ∈ N_i (≥ 0 since N_0 = V).
	netLevel []int32
	// nearest[i][v] = M_i(v), the net point of N_i nearest to v (ties
	// broken by BFS order); nearestDist[i][v] = d_G(v, M_i(v)).
	nearest     [][]int32
	nearestDist [][]int32
}

// NumLevels returns L+1, the number of levels 0..L with L = ⌈log₂ n⌉.
func NumLevels(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n-1)) + 1 // ⌈log₂ n⌉ + 1
}

// MaxLevel returns L = ⌈log₂ n⌉, the index of the topmost net.
func (h *Hierarchy) MaxLevel() int { return len(h.levels) - 1 }

// Graph returns the underlying graph.
func (h *Hierarchy) Graph() *graph.Graph { return h.g }

// Level returns the members of N_i in increasing vertex order. The returned
// slice aliases internal storage and must not be modified.
func (h *Hierarchy) Level(i int) []int32 { return h.levels[i] }

// WSet returns the members of the greedy set W(2^j) in selection order.
func (h *Hierarchy) WSet(j int) []int32 { return h.wsets[j] }

// NetLevelOf returns the largest i such that v ∈ N_i.
func (h *Hierarchy) NetLevelOf(v int) int { return int(h.netLevel[v]) }

// NetLevels returns the per-vertex membership function netLevel[v] =
// max{i : v ∈ N_i}. The returned slice aliases internal storage and must
// not be modified; it exists so hot loops can test net membership with a
// direct comparison instead of per-level boolean arrays.
func (h *Hierarchy) NetLevels() []int32 { return h.netLevel }

// InNet reports whether v ∈ N_i. Because the nets are nested this is simply
// NetLevelOf(v) ≥ i.
func (h *Hierarchy) InNet(v, i int) bool { return int(h.netLevel[v]) >= i }

// Nearest returns M_i(v) — the net point of N_i nearest to v — and its
// distance d_G(v, M_i(v)). For connected graphs the distance is < 2^i; in a
// disconnected graph the nearest point is within v's component. The second
// return is graph.Infinity only for a vertex isolated from every net point,
// which cannot happen since N_i dominates every component.
func (h *Hierarchy) Nearest(i, v int) (point int, dist int32) {
	return int(h.nearest[i][v]), h.nearestDist[i][v]
}

// Build constructs the hierarchy for g. The greedy selection scans vertices
// in increasing vertex order, making the construction deterministic.
func Build(g *graph.Graph) (*Hierarchy, error) {
	return BuildWithOrderWorkers(g, nil, 0)
}

// ScatteredOrder returns a fixed pseudo-random permutation of 0..n-1:
// vertices sorted by a splitmix64 hash of their id. The permutation
// depends only on n, never on the graph's edges.
//
// The greedy W(r) scan is the lexicographically-first maximal
// independent set of the (r−1)-ball graph under the scan order, so a
// vertex's selection depends on earlier-ranked picks within one ball —
// recursively, on rank-decreasing chains of overlapping balls. Under
// increasing-id order those chains follow the id gradient and one edge
// mutation can phase-shift every later pick (on a ring lattice it
// reseats nearly all net points). Under a hashed order the chains have
// expected O(log n) length, so a local edge change only reseats nearby
// net points — which is what keeps incremental rebuilds delta-scoped.
// The scheme builders in internal/core scan in this order.
func ScatteredOrder(n int) []int {
	type keyed struct {
		key uint64
		v   int32
	}
	ks := make([]keyed, n)
	for v := range ks {
		// splitmix64 finalizer: a full-avalanche mix of the vertex id.
		z := uint64(v) + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		ks[v] = keyed{key: z ^ (z >> 31), v: int32(v)}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		if a.key != b.key {
			if a.key < b.key {
				return -1
			}
			return 1
		}
		return int(a.v - b.v)
	})
	order := make([]int, n)
	for i, k := range ks {
		order[i] = int(k.v)
	}
	return order
}

// BuildWorkers is Build with an explicit worker count for the parallel
// phases (≤ 0 means GOMAXPROCS). The result is identical for any count.
func BuildWorkers(g *graph.Graph, workers int) (*Hierarchy, error) {
	return BuildWithOrderWorkers(g, nil, workers)
}

// BuildWithOrder constructs the hierarchy selecting greedy candidates in the
// given vertex order (a permutation of 0..n-1). A nil order means increasing
// vertex order. Any order yields a valid hierarchy; the order only changes
// which vertices become net points.
func BuildWithOrder(g *graph.Graph, order []int) (*Hierarchy, error) {
	return BuildWithOrderWorkers(g, order, 0)
}

// BuildWithOrderWorkers is BuildWithOrder on a worker pool. The two
// expensive phases are embarrassingly parallel across levels — each greedy
// W(2^j) scan owns a private covered array, and each per-level
// nearest-net-point pass is one independent MultiSourceBFS — so they fan
// out over the pool while the greedy scan order within every level stays
// the deterministic sequential one. Schemes built with different worker
// counts are identical.
func BuildWithOrderWorkers(g *graph.Graph, order []int, workers int) (*Hierarchy, error) {
	n := g.NumVertices()
	if order != nil {
		if err := checkPermutation(order, n); err != nil {
			return nil, err
		}
	}
	numLevels := NumLevels(n)
	h := &Hierarchy{
		g:           g,
		levels:      make([][]int32, numLevels),
		wsets:       make([][]int32, numLevels),
		netLevel:    make([]int32, n),
		nearest:     make([][]int32, numLevels),
		nearestDist: make([][]int32, numLevels),
	}
	if n == 0 {
		for i := range h.levels {
			h.levels[i] = []int32{}
		}
		return h, nil
	}

	// Phase 1: the greedy W(2^j) sets. Levels are independent (each scan
	// starts from an all-uncovered state), so workers pull levels off a
	// shared counter, each with its own covered/touched/BFS state.
	RunParallel(workers, numLevels, func() func(j int) {
		covered := make([]bool, n)
		touched := make([]int32, 0, n)
		scratch := graph.NewBFSScratch(n)
		return func(j int) {
			r := int32(1) << uint(j) // W(2^j): greedy with radius 2^j
			w := []int32{}
			for k := 0; k < n; k++ {
				v := k
				if order != nil {
					v = order[k]
				}
				if covered[v] {
					continue
				}
				w = append(w, int32(v))
				// Mark every u with d_G(u,v) < r as covered, i.e. explore
				// radius r-1.
				scratch.TruncatedBFS(g, v, r-1, func(u, _ int32) {
					if !covered[u] {
						covered[u] = true
						touched = append(touched, u)
					}
				})
			}
			h.wsets[j] = w
			for _, u := range touched {
				covered[u] = false
			}
			touched = touched[:0]
		}
	})

	// netLevel[v] = max j with v ∈ W(2^j) for some j ≥ i … since
	// N_i = ⋃_{j≥i} W(2^j), v ∈ N_i iff max{j : v ∈ W(2^j)} ≥ i.
	for j := 0; j < numLevels; j++ {
		for _, v := range h.wsets[j] {
			if int32(j) > h.netLevel[v] {
				h.netLevel[v] = int32(j)
			}
		}
	}
	h.computeLevels(workers)
	return h, nil
}

// computeLevels fills levels, nearest and nearestDist from netLevel. The
// per-level nearest-net-point passes (phase 2) run on the worker pool:
// each is one MultiSourceBFS writing only its own level's slots.
func (h *Hierarchy) computeLevels(workers int) {
	n := h.g.NumVertices()
	for i := range h.levels {
		var members []int32
		for v := 0; v < n; v++ {
			if h.netLevel[v] >= int32(i) {
				members = append(members, int32(v))
			}
		}
		h.levels[i] = members
	}
	RunParallel(workers, len(h.levels), func() func(i int) {
		return func(i int) {
			members := h.levels[i]
			sources := make([]int, len(members))
			for k, v := range members {
				sources[k] = int(v)
			}
			dist, nearest := h.g.MultiSourceBFS(sources)
			h.nearest[i] = nearest
			h.nearestDist[i] = dist
		}
	})
}

// RunParallel executes do(0..tasks-1) on a pool of workers, each worker
// first materializing its private state via newWorker. workers ≤ 0 means
// GOMAXPROCS, and there are never more workers than tasks: zero tasks
// build no worker at all, and a single worker runs inline on the caller
// with no goroutine traffic. It is the one worker pool of the
// preprocessing pipeline — the hierarchy's phases here, and in
// internal/core the level-graph build, the dirty-label diffs and bulk
// label extraction.
func RunParallel(workers, tasks int, newWorker func() func(task int)) {
	if tasks <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > tasks {
		workers = tasks
	}
	if workers == 1 {
		do := newWorker()
		for t := 0; t < tasks; t++ {
			do(t)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			do := newWorker()
			for {
				t := int(next.Add(1)) - 1
				if t >= tasks {
					return
				}
				do(t)
			}
		}()
	}
	wg.Wait()
}

// FromNetLevels reconstructs a hierarchy from the per-vertex membership
// function netLevel[v] = max{i : v ∈ N_i} (as produced by NetLevelOf) —
// used when loading a persisted scheme. The nearest-net-point maps are
// recomputed; the greedy W-set decomposition is not recoverable, so the
// restored hierarchy has empty WSets (VerifyInvariants' separation check
// vacuously passes on them).
func FromNetLevels(g *graph.Graph, netLevel []int) (*Hierarchy, error) {
	n := g.NumVertices()
	if len(netLevel) != n {
		return nil, fmt.Errorf("nets: netLevel has %d entries, want %d", len(netLevel), n)
	}
	numLevels := NumLevels(n)
	h := &Hierarchy{
		g:           g,
		levels:      make([][]int32, numLevels),
		wsets:       make([][]int32, numLevels),
		netLevel:    make([]int32, n),
		nearest:     make([][]int32, numLevels),
		nearestDist: make([][]int32, numLevels),
	}
	for v, lvl := range netLevel {
		if lvl < 0 || lvl >= numLevels {
			return nil, fmt.Errorf("nets: netLevel[%d] = %d out of [0,%d)", v, lvl, numLevels)
		}
		h.netLevel[v] = int32(lvl)
	}
	h.computeLevels(0)
	return h, nil
}

// VerifyInvariants checks the structural properties the scheme relies on:
//
//  1. N_i is a (2^i − 1)-dominating set (every vertex has a net point within
//     2^i − 1 in its component);
//  2. N_i ⊆ N_{i−1};
//  3. W(2^j) is 2^j-separated (pairwise distances ≥ 2^j);
//  4. N_0 = V.
//
// The separation check explores only a truncated ball of radius 2^j − 1
// around each W-set point (a violating pair is by definition within that
// radius), so the check costs the same as rebuilding the W-sets rather
// than n full BFS passes — usable on the larger test graphs.
func (h *Hierarchy) VerifyInvariants() error {
	n := h.g.NumVertices()
	if n == 0 {
		return nil
	}
	if got := len(h.levels[0]); got != n {
		return fmt.Errorf("nets: |N_0| = %d, want n = %d", got, n)
	}
	for i := 0; i <= h.MaxLevel(); i++ {
		bound := int32(1)<<uint(i) - 1
		for v := 0; v < n; v++ {
			_, d := h.Nearest(i, v)
			if !graph.Reachable(d) {
				return fmt.Errorf("nets: vertex %d has no net point at level %d", v, i)
			}
			if d > bound {
				return fmt.Errorf("nets: vertex %d at distance %d > %d from N_%d", v, d, bound, i)
			}
		}
		if i > 0 {
			for _, v := range h.levels[i] {
				if !h.InNet(int(v), i-1) {
					return fmt.Errorf("nets: %d ∈ N_%d but ∉ N_%d", v, i, i-1)
				}
			}
		}
	}
	scratch := graph.NewBFSScratch(n)
	inW := make([]bool, n)
	for j := 0; j <= h.MaxLevel(); j++ {
		sep := int32(1) << uint(j)
		for _, v := range h.wsets[j] {
			inW[v] = true
		}
		var sepErr error
		for _, v := range h.wsets[j] {
			// d(v,u) < sep ⇔ u is inside the truncated ball of radius
			// sep−1, so exploring that ball sees every violating pair.
			scratch.TruncatedBFS(h.g, int(v), sep-1, func(u, d int32) {
				if u != v && inW[u] && sepErr == nil {
					sepErr = fmt.Errorf("nets: W(2^%d) points %d,%d at distance %d < %d",
						j, v, u, d, sep)
				}
			})
			if sepErr != nil {
				return sepErr
			}
		}
		for _, v := range h.wsets[j] {
			inW[v] = false
		}
	}
	return nil
}

func checkPermutation(order []int, n int) error {
	if len(order) != n {
		return fmt.Errorf("nets: order has %d entries, want %d", len(order), n)
	}
	seen := make([]bool, n)
	for _, v := range order {
		if v < 0 || v >= n || seen[v] {
			return fmt.Errorf("nets: order is not a permutation of 0..%d", n-1)
		}
		seen[v] = true
	}
	return nil
}
