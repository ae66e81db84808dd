package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"fsdl/internal/graph"
	"fsdl/internal/lru"
	"fsdl/internal/nets"
)

// Scheme is the preprocessed labeling scheme for one graph: the net
// hierarchy plus the shared per-level structures from which the label of
// any vertex can be extracted. Extraction is deterministic, so a Scheme is
// exactly the paper's marker function L(·), evaluated lazily.
//
// A Scheme is safe for concurrent label extraction.
type Scheme struct {
	g      *graph.Graph
	h      *nets.Hierarchy
	params Params
	store  *LevelGraphs

	// cache holds recently extracted labels, sharded so concurrent
	// extractors on different shards never contend. SetCacheLimit swaps
	// the whole cache atomically, so readers never lock around the
	// pointer load. The hit/miss counters are monotonic across swaps.
	cache       atomic.Pointer[lru.Cache[int32, *Label]]
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	// scratch pools the O(n) BFS state label extraction needs, so a cache
	// miss costs one checkout instead of an O(n) allocation.
	scratch sync.Pool
}

// DefaultLabelCacheSize is the label-cache capacity a fresh Scheme starts
// with; SetCacheLimit overrides it.
const DefaultLabelCacheSize = 64

// labelCacheShards spreads the label cache's locks. Label working sets
// are small, so a modest shard count already removes all contention.
const labelCacheShards = 8

func newLabelCache(limit int) *lru.Cache[int32, *Label] {
	return lru.New[int32, *Label](limit, labelCacheShards, func(k int32) uint64 {
		return lru.HashU32(uint32(k))
	})
}

// newScheme wires the shared constructor state: the cache and the
// BFS-scratch pool. Every Scheme construction site (BuildScheme,
// BuildSchemeAblated, LoadScheme) must go through it.
func newScheme(g *graph.Graph, h *nets.Hierarchy, params Params, store *LevelGraphs) *Scheme {
	s := &Scheme{g: g, h: h, params: params, store: store}
	s.cache.Store(newLabelCache(DefaultLabelCacheSize))
	n := g.NumVertices()
	s.scratch.New = func() any { return newExtractScratch(n) }
	return s
}

// BuildScheme preprocesses g into a forbidden-set distance labeling scheme
// with stretch 1+ε. Preprocessing is polynomial: it builds the net
// hierarchy and, per level, one truncated BFS of radius λ_ℓ from each net
// point.
func BuildScheme(g *graph.Graph, epsilon float64) (*Scheme, error) {
	return BuildSchemeWorkers(g, epsilon, 0)
}

// BuildSchemeWorkers is BuildScheme with an explicit worker count for the
// preprocessing pipeline (≤ 0 means GOMAXPROCS). Both phases — the net
// hierarchy and the per-net-point truncated BFS passes of the level store
// — fan out over the pool; the resulting scheme is bit-identical for any
// worker count (see TestParallelBuildDeterminism).
func BuildSchemeWorkers(g *graph.Graph, epsilon float64, workers int) (*Scheme, error) {
	return buildScheme(g, epsilon, 0, workers)
}

// BuildSchemeAblated is BuildScheme with the RShrink ablation knob: the
// label ball radii r_i are halved rShrink times below the paper's values.
// Safety still holds, but the (1+ε) stretch guarantee may not — the
// ablation experiment measures the damage. rShrink = 0 is BuildScheme.
func BuildSchemeAblated(g *graph.Graph, epsilon float64, rShrink int) (*Scheme, error) {
	if rShrink < 0 {
		return nil, fmt.Errorf("core: negative rShrink %d", rShrink)
	}
	return buildScheme(g, epsilon, rShrink, 0)
}

func buildScheme(g *graph.Graph, epsilon float64, rShrink, workers int) (*Scheme, error) {
	params, err := NewParams(epsilon, g.NumVertices())
	if err != nil {
		return nil, err
	}
	params.RShrink = rShrink
	if err := params.Validate(); err != nil {
		return nil, err
	}
	// The scattered scan order keeps the hierarchy stable under local
	// edge mutations (see nets.ScatteredOrder) — the property
	// BuildSchemeIncremental's delta scoping depends on.
	h, err := nets.BuildWithOrderWorkers(g, nets.ScatteredOrder(g.NumVertices()), workers)
	if err != nil {
		return nil, fmt.Errorf("core: build net hierarchy: %w", err)
	}
	st, _, _ := buildStore(g, h, params, workers, nil, nil, nil)
	return newScheme(g, h, params, st), nil
}

// Params returns the derived scheme parameters.
func (s *Scheme) Params() Params { return s.params }

// Graph returns the underlying graph.
func (s *Scheme) Graph() *graph.Graph { return s.g }

// Hierarchy returns the net hierarchy (exposed for the routing scheme and
// for tests that verify the analysis' net-point arguments).
func (s *Scheme) Hierarchy() *nets.Hierarchy { return s.h }

// LevelGraphs returns the level graphs every label of the scheme is
// induced from — what a factored label container stores once per file.
func (s *Scheme) LevelGraphs() *LevelGraphs { return s.store }

// SetCacheLimit bounds the internal label cache (0 disables caching). The
// previous cache's entries are dropped.
func (s *Scheme) SetCacheLimit(limit int) {
	s.cache.Store(newLabelCache(limit))
}

// LabelCacheStats reports the label cache's cumulative hit/miss counts.
// The counters survive SetCacheLimit swaps.
func (s *Scheme) LabelCacheStats() (hits, misses int64) {
	return s.cacheHits.Load(), s.cacheMisses.Load()
}

// Label extracts (or returns the cached) label of v.
func (s *Scheme) Label(v int) *Label {
	cache := s.cache.Load()
	if l, ok := cache.Get(int32(v)); ok {
		s.cacheHits.Add(1)
		return l
	}
	s.cacheMisses.Add(1)
	l := s.Extract(v)
	cache.Put(int32(v), l)
	return l
}

// Labels extracts the labels of vs in bulk, fanning the extractions out
// over the available CPUs. The result is index-aligned with vs. It is the
// batch counterpart of Label — persistence and batch serving extract
// thousands of labels, and each extraction is an independent truncated-BFS
// bundle, so the work parallelizes perfectly. Bulk callers sweep the
// vertex set once, so the label cache is neither consulted nor filled:
// it would score no hits and pin its last entries on the scheme.
func (s *Scheme) Labels(vs []int) []*Label {
	out := make([]*Label, len(vs))
	nets.RunParallel(0, len(vs), func() func(int) {
		return func(i int) { out[i] = s.Extract(vs[i]) }
	})
	return out
}

// Extract is the one-label form of Labels, past the label cache, for a
// bulk caller that fans out by itself (labelstore's writer, on as many
// workers as it may hold). Safe for concurrent use.
func (s *Scheme) Extract(v int) *Label {
	sc := s.scratch.Get().(*extractScratch)
	defer s.scratch.Put(sc)
	return s.store.extractLabel(v, sc)
}

// LabelBits returns the exact serialized size of L(v) in bits.
func (s *Scheme) LabelBits(v int) int { return s.Label(v).BitLen() }

// Distance answers the forbidden-set query (s,t,F) end to end: it extracts
// the needed labels and decodes them. ok is false when s and t are
// disconnected in G\F (or an endpoint is itself forbidden).
func (s *Scheme) Distance(src, dst int, faults *graph.FaultSet) (int64, bool) {
	q, err := s.NewQuery(src, dst, faults)
	if err != nil {
		return 0, false
	}
	return q.Distance()
}

// NewQuery assembles the label-only query object for (src, dst, F). The
// returned Query holds nothing but labels: decoding uses no part of the
// scheme or graph, which is the distributed-data-structure contract of the
// paper.
func (s *Scheme) NewQuery(src, dst int, faults *graph.FaultSet) (*Query, error) {
	n := s.g.NumVertices()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return nil, fmt.Errorf("core: query endpoints (%d,%d) out of range [0,%d)", src, dst, n)
	}
	if faults.HasVertex(src) || faults.HasVertex(dst) {
		return nil, fmt.Errorf("core: query endpoint is itself forbidden")
	}
	for _, e := range faults.Edges() {
		if !s.g.HasEdge(e[0], e[1]) {
			return nil, fmt.Errorf("core: forbidden edge (%d,%d) is not a graph edge", e[0], e[1])
		}
	}
	return ResolveQuery(src, dst, faults, func(v int) (*Label, error) { return s.Label(v), nil }, false)
}

// StoreStats describes the shared level store — the preprocessed state
// behind label extraction — for observability (`fsdl stats`) and the
// preprocessing experiment.
type StoreStats struct {
	// Levels has one entry per scheme level, lowest first.
	Levels []LevelStats
	// TotalNetEdges sums the per-level net-graph edge counts.
	TotalNetEdges int64
}

// LevelStats describes one level of the store.
type LevelStats struct {
	// Level is the scheme level ℓ.
	Level int
	// NetPoints is |N_{ℓ-c-1}| (clamped at the hierarchy top).
	NetPoints int
	// NetEdges counts the level net graph's edges (0 at the lowest level,
	// which reuses the original graph).
	NetEdges int64
}

// StoreStats reports the sizes of the shared per-level structures.
func (s *Scheme) StoreStats() StoreStats {
	var out StoreStats
	for li := range s.store.levels {
		sl := &s.store.levels[li]
		ls := LevelStats{
			Level:     sl.level,
			NetPoints: len(s.h.Level(int(sl.netLvl))),
			// The packed CSR entries store both directions of every edge.
			NetEdges: int64(len(sl.entries)) / 2,
		}
		out.TotalNetEdges += ls.NetEdges
		out.Levels = append(out.Levels, ls)
	}
	return out
}
