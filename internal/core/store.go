package core

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"fsdl/internal/bitio"
	"fsdl/internal/graph"
	"fsdl/internal/nets"
)

// LevelGraphs is the part of a scheme every label is induced from: the
// graph, the net membership of every vertex and, per scheme level, the
// level's net graph. H_ℓ(v) is that net graph induced on the net points
// of B(v, r_ℓ), so a label is its balls — which net points, at what
// distance — and everything else in it is read off here (induce). A
// Scheme extracts labels from it by searching for the balls
// (extractLabel); a factored container stores it once (SaveScheme's
// encoding, LoadLevelGraphs) next to the balls of every vertex and
// materialises labels from the two (Label) — labels that keep their
// balls and these level graphs, whose rows their edges are read off.
//
// Safe for concurrent use.
type LevelGraphs struct {
	params Params
	g      *graph.Graph
	// netLevel[v] = max{i : v ∈ N_i} (nets.Hierarchy.NetLevels): v is a net
	// point of levels[k] iff netLevel[v] >= levels[k].netLvl.
	netLevel []int32
	// levels[k] describes scheme level ℓ = c+1+k.
	levels []storeLevel
	// balls pools the position maps (*ballIndex) Label.LevelEdges induces
	// a level's edges with.
	balls sync.Pool
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
	netLvl  int32   // clamped hierarchy level whose net points this level uses
	members []int32 // those net points, ascending
	off     []int64
	entries []pointDist
	// fwd[v] counts the entries of row(v) below v (forwardRow).
	fwd []int32
	// whole is the edge list of a saturated ball — one holding every net
	// point of the level — which is the same list for every vertex: built
	// once, on first use, and shared by every label induced after.
	whole *wholeLevel
}

type wholeLevel struct {
	once  sync.Once
	edges []EdgeEntry
	// section is edges as Encode writes them, coded once, by the first
	// encode that meets the list (Label.section), so that extraction
	// alone codes nothing.
	coded   sync.Once
	section bitio.Writer
}

// newLevelGraphs returns the level graphs of g under p with every net
// graph still empty. members(i) lists the net points of hierarchy level
// i, ascending; a scheme level above the hierarchy's top behaves like
// the top (clampNetLevel).
func newLevelGraphs(g *graph.Graph, p Params, netLevel []int32, members func(i int) []int32) *LevelGraphs {
	st := &LevelGraphs{params: p, g: g, netLevel: netLevel}
	st.balls.New = func() any { return new(ballIndex) }
	top := nets.NumLevels(g.NumVertices()) - 1
	for level := p.LowestLevel(); level <= p.MaxLevel; level++ {
		netLvl := min(p.NetLevel(level), top)
		st.levels = append(st.levels, storeLevel{
			level:   level,
			netLvl:  int32(netLvl),
			members: members(netLvl),
			whole:   new(wholeLevel),
		})
	}
	return st
}

// Params returns the scheme parameters the level graphs were built with.
func (st *LevelGraphs) Params() Params { return st.params }

// NumVertices returns the vertex-id space of the underlying graph.
func (st *LevelGraphs) NumVertices() int { return len(st.netLevel) }

// NetPoints returns the net points of level index k (scheme level
// c+1+k), ascending: the points of a saturated ball. The slice is shared
// and must not be modified.
func (st *LevelGraphs) NetPoints(k int) []int32 { return st.levels[k].members }

// SameNetPoints reports whether o has the same levels over the same net
// points — whether a ball written as positions in those lists ("all of
// level k", "entries 7 to 19 of it", "what level k holds and k+1 does
// not") means the same thing under both.
func (st *LevelGraphs) SameNetPoints(o *LevelGraphs) bool {
	if len(st.levels) != len(o.levels) {
		return false
	}
	for k := range st.levels {
		if !slices.Equal(st.levels[k].members, o.levels[k].members) {
			return false
		}
	}
	return true
}

// row returns the net-graph adjacency of net point v, sorted by vertex id.
func (sl *storeLevel) row(v int32) []pointDist {
	return sl.entries[sl.off[v]:sl.off[v+1]]
}

// forwardRow returns the entries of row(v) above v.
func (sl *storeLevel) forwardRow(v int32) []pointDist {
	return sl.entries[sl.off[v]+int64(sl.fwd[v]) : sl.off[v+1]]
}

// setRows installs the level's CSR rows and finds where each member's
// row passes its own id (fwd).
func (sl *storeLevel) setRows(off []int64, entries []pointDist) {
	sl.off, sl.entries = off, entries
	sl.fwd = make([]int32, len(off)-1)
	for _, v := range sl.members {
		row := sl.row(v)
		sl.fwd[v] = int32(sort.Search(len(row), func(i int) bool { return row[i].x > v }))
	}
}

// pointDist is a (vertex, distance) pair.
type pointDist struct {
	x int32
	d int32
}

// buildStore constructs the shared level structures. Cost: for each level,
// one truncated BFS of radius λ_ℓ from every net point of that level. All
// (level, net-point) searches across all levels are independent, so they
// form one global work queue drained by the pool — there is no
// per-level barrier for the few-point upper levels to idle it behind.
// Tasks are queued top level first: upper-level searches have the largest radii
// and are the longest poles, so they must start earliest. The result is
// deterministic regardless of parallelism (each task writes only its own
// point's sorted adjacency, and CSR assembly runs in vertex order).
//
// With prev set the build is delta-scoped (BuildSchemeIncremental): prev
// is the previous graph's level graphs, and seedOld / seedNew are the
// distances to the nearest seed in the old and new graph. A task whose
// λ-ball contains no seed in either graph aliases its previous row
// instead of searching (the ball subgraph and the membership filter
// inside it are unchanged, so the row is too). changed then lists, per
// level index, the net points whose row differs from before (or that
// had no row before), and reused counts the aliased rows; a full build
// passes nil and gets neither.
func buildStore(g *graph.Graph, h *nets.Hierarchy, p Params, workers int,
	prev *LevelGraphs, seedOld, seedNew []int32) (*LevelGraphs, [][]int32, int) {

	st := newLevelGraphs(g, p, h.NetLevels(), h.Level)
	n := g.NumVertices()

	// Global task queue over every net-graph BFS, highest level first.
	type bfsTask struct {
		li  int32 // index into st.levels
		src int32 // net point to search from
	}
	var tasks []bfsTask
	base := make([]int, len(st.levels)) // first task index of each level
	for li := len(st.levels) - 1; li >= 1; li-- {
		base[li] = len(tasks)
		for _, src := range st.levels[li].members {
			tasks = append(tasks, bfsTask{li: int32(li), src: src})
		}
	}
	rows := make([][]pointDist, len(tasks))
	const (
		rowSearched = iota
		rowReused
		rowChanged
	)
	fate := make([]uint8, len(tasks))
	nets.RunParallel(workers, len(tasks), func() func(int) {
		scratch := graph.NewBFSScratch(n)
		return func(ti int) {
			t := tasks[ti]
			sl := &st.levels[t.li]
			lambda := p.Lambda(sl.level)
			hadRow := prev != nil && prev.netLevel[t.src] >= prev.levels[t.li].netLvl
			if hadRow && !reachWithin(seedOld[t.src], lambda) && !reachWithin(seedNew[t.src], lambda) {
				// No seed inside the λ-ball in either graph: the
				// search would retrace the previous one.
				rows[ti], fate[ti] = prev.levels[t.li].row(t.src), rowReused
				return
			}
			var nbrs []pointDist
			scratch.TruncatedBFS(g, int(t.src), lambda, func(u, d int32) {
				if u != t.src && st.netLevel[u] >= sl.netLvl {
					nbrs = append(nbrs, pointDist{x: u, d: d})
				}
			})
			slices.SortFunc(nbrs, func(a, b pointDist) int { return cmp.Compare(a.x, b.x) })
			rows[ti] = nbrs
			if prev != nil && (!hadRow || !slices.Equal(nbrs, prev.levels[t.li].row(t.src))) {
				fate[ti] = rowChanged
			}
		}
	})

	var changed [][]int32
	if prev != nil {
		changed = make([][]int32, len(st.levels))
	}
	reused := 0
	// Flatten each level's rows into its CSR arrays. Net members arrive
	// in increasing vertex order, so one pass packs entries and offsets.
	for li := 1; li < len(st.levels); li++ {
		sl := &st.levels[li]
		members := sl.members
		total := 0
		for k, w := range members {
			total += len(rows[base[li]+k])
			switch fate[base[li]+k] {
			case rowReused:
				reused++
			case rowChanged:
				changed[li] = append(changed[li], w)
			}
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
		sl.setRows(off, entries)
	}
	return st, changed, reused
}

// levelIndex maps a scheme level ℓ to its index in st.levels.
func (st *LevelGraphs) levelIndex(level int) int { return level - st.params.LowestLevel() }

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
