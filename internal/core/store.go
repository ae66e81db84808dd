package core

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"fsdl/internal/graph"
	"fsdl/internal/nets"
)

// levelStore holds the shared per-level structures from which per-vertex
// labels are extracted. Every label's content is derivable from it, and a
// Label, once extracted, is fully self-contained — the decoder never touches
// the store. Sharing exists purely because materializing all n labels
// eagerly would cost Θ(n) times the (large-constant) per-label size.
type levelStore struct {
	params Params
	g      *graph.Graph
	h      *nets.Hierarchy
	// netLevel aliases h.NetLevels(): v is a net point of levels[k] iff
	// netLevel[v] >= levels[k].netLvl. One shared n-entry array replaces
	// the per-level isNet boolean arrays (n·|levels| bytes) the store
	// used to carry.
	netLevel []int32
	// levels[k] describes scheme level ℓ = c+1+k.
	levels []storeLevel
}

// storeLevel is the shared structure of one scheme level ℓ > c+1: the net
// points of N_{ℓ-c-1} and the "net graph" — for each net point, all other
// net points within graph distance λ_ℓ, with exact distances. The adjacency
// is stored in CSR form: row(v) = entries[off[v]:off[v+1]], sorted by
// vertex id, one packed entries array per level instead of n slice headers.
// For the lowest level ℓ = c+1 the net graph is empty (labels store
// original graph edges there instead) and off is nil.
type storeLevel struct {
	level   int
	netLvl  int32 // clamped hierarchy level whose net points this level uses
	off     []int64
	entries []pointDist
	// whole is the edge list of a saturated ball — one holding every net
	// point of the level — which is the same list for every vertex: built
	// once, on first use, and shared by every label extracted after.
	whole *wholeLevel
}

type wholeLevel struct {
	once  sync.Once
	edges []EdgeEntry
}

func newStoreLevel(h *nets.Hierarchy, p Params, level int) storeLevel {
	return storeLevel{
		level:  level,
		netLvl: int32(clampNetLevel(h, p.NetLevel(level))),
		whole:  new(wholeLevel),
	}
}

// row returns the net-graph adjacency of net point v, sorted by vertex id.
func (sl *storeLevel) row(v int32) []pointDist {
	return sl.entries[sl.off[v]:sl.off[v+1]]
}

// pointDist is a (vertex, distance) pair.
type pointDist struct {
	x int32
	d int32
}

// clampWorkers resolves a worker-count knob: ≤ 0 means GOMAXPROCS, and the
// count never exceeds the number of tasks.
func clampWorkers(workers, tasks int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > tasks {
		workers = tasks
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// buildStore constructs the shared level structures. Cost: for each level,
// one truncated BFS of radius λ_ℓ from every net point of that level. All
// (level, net-point) searches across all levels are independent, so they
// form one global work queue drained by the pool — the few-point upper
// levels no longer leave the pool idle behind a per-level barrier. Tasks
// are queued top level first: upper-level searches have the largest radii
// and are the longest poles, so they must start earliest. The result is
// deterministic regardless of parallelism (each task writes only its own
// point's sorted adjacency, and CSR assembly runs in vertex order).
func buildStore(g *graph.Graph, h *nets.Hierarchy, p Params, workers int) *levelStore {
	st := &levelStore{params: p, g: g, h: h, netLevel: h.NetLevels()}
	n := g.NumVertices()
	for level := p.LowestLevel(); level <= p.MaxLevel; level++ {
		st.levels = append(st.levels, newStoreLevel(h, p, level))
	}

	// Global task queue over every net-graph BFS, highest level first.
	type bfsTask struct {
		li  int32 // index into st.levels
		src int32 // net point to search from
	}
	var tasks []bfsTask
	base := make([]int, len(st.levels)) // first task index of each level
	for li := len(st.levels) - 1; li >= 1; li-- {
		base[li] = len(tasks)
		for _, src := range h.Level(int(st.levels[li].netLvl)) {
			tasks = append(tasks, bfsTask{li: int32(li), src: src})
		}
	}
	rows := make([][]pointDist, len(tasks))
	if len(tasks) > 0 {
		workers = clampWorkers(workers, len(tasks))
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				scratch := graph.NewBFSScratch(n)
				for {
					ti := int(next.Add(1)) - 1
					if ti >= len(tasks) {
						return
					}
					t := tasks[ti]
					sl := &st.levels[t.li]
					lambda := p.Lambda(sl.level)
					var nbrs []pointDist
					scratch.TruncatedBFS(g, int(t.src), lambda, func(u, d int32) {
						if u != t.src && st.netLevel[u] >= sl.netLvl {
							nbrs = append(nbrs, pointDist{x: u, d: d})
						}
					})
					slices.SortFunc(nbrs, func(a, b pointDist) int { return cmp.Compare(a.x, b.x) })
					rows[ti] = nbrs
				}
			}()
		}
		wg.Wait()
	}

	// Flatten each level's rows into its CSR arrays. Net members arrive
	// in increasing vertex order, so one pass packs entries and offsets.
	for li := 1; li < len(st.levels); li++ {
		sl := &st.levels[li]
		members := h.Level(int(sl.netLvl))
		total := 0
		for k := range members {
			total += len(rows[base[li]+k])
		}
		off := make([]int64, n+1)
		entries := make([]pointDist, 0, total)
		mi := 0
		for v := 0; v < n; v++ {
			if mi < len(members) && members[mi] == int32(v) {
				entries = append(entries, rows[base[li]+mi]...)
				mi++
			}
			off[v+1] = int64(len(entries))
		}
		sl.off, sl.entries = off, entries
	}
	return st
}

// levelIndex maps a scheme level ℓ to its index in st.levels.
func (st *levelStore) levelIndex(level int) int { return level - st.params.LowestLevel() }

// clampNetLevel clamps a requested net level to the hierarchy's range: for
// tiny graphs the scheme's level range extends above ⌈log₂ n⌉ (because
// L = max(⌈log₂ n⌉, c+1)), and any level above the top behaves like the
// top (the nets are nested, so this preserves every containment the
// decoder relies on).
func clampNetLevel(h *nets.Hierarchy, j int) int {
	if j > h.MaxLevel() {
		return h.MaxLevel()
	}
	return j
}
