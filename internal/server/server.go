// Package server is the long-lived serving layer over a label store:
// the deployment shape the labeling scheme is designed for, where a
// stream of distance/connectivity queries and fail/recover events hits
// one resident structure. It wraps labelstore with a sharded LRU result
// cache, admission control (bounded worker pool, deadlines, per-query
// work budgets that degrade to safe upper bounds instead of failing),
// a global label-only fault overlay, and Prometheus-style metrics. cmd/fsdl-serve exposes it over
// HTTP/JSON.
package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"sync"
	"time"

	"fsdl/internal/backoff"
	"fsdl/internal/core"
	"fsdl/internal/graph"
	"fsdl/internal/labelstore"
	"fsdl/internal/liveupdate"
	"fsdl/internal/stats"
)

// Config configures a Server. Exactly one of Store and Source is
// required; everything else has a serviceable default.
type Config struct {
	// Store is the loaded label container; a salvaged one carries its
	// report (labelstore.Store.Salvage).
	Store *labelstore.Store

	// Source is an alternative label provider — a cluster.Frontend
	// scatter-gathering labels from shard servers, or any other
	// LabelSource. Mutually exclusive with Store.
	Source LabelSource

	// Workers bounds concurrently executing queries (default
	// GOMAXPROCS). QueueDepth bounds queries waiting for a worker slot
	// beyond that (default 4×Workers); past it requests are rejected
	// with ErrOverloaded.
	Workers    int
	QueueDepth int

	// DefaultDeadline bounds each request's total time (queue wait
	// included) when the request doesn't set its own (default 5s).
	DefaultDeadline time.Duration
	// DefaultBudget is the per-query decode work budget (sketch edges
	// examined) when the request doesn't set one. 0 = unlimited.
	DefaultBudget int

	// CacheCapacity is the total result-cache capacity in entries
	// (default 4096; negative disables), spread over 8 independently
	// locked shards.
	CacheCapacity int

	// Live, when non-nil, enables the streaming-mutation query path:
	// the pipeline's pending deletions merge into every query's fault
	// set as implicit soft faults and its pending insertions become
	// query-time patches, so answers track the mutated graph (as sound
	// upper bounds, exact:false) until a compaction bakes the delta
	// into the next label generation.
	Live *liveupdate.Pipeline
	// LiveRoot is the directory compaction writes gen-<id> generation
	// directories into; required for Compact / the /v1/compact
	// endpoint.
	LiveRoot string
	// Epsilon, CompactFormat and CompactCompress select nothing: a
	// compaction builds at the ε of the labels served and writes a
	// factored FSDL3 generation. The fields stay for the benchmark
	// harness, which assigns them (ROADMAP item 1, "Release the pins").
	Epsilon         float64
	CompactFormat   int
	CompactCompress bool
}

// cacheShards is how many independently locked shards the result cache
// is spread over.
const cacheShards = 8

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrOverloaded: worker pool and queue are both full.
	ErrOverloaded = errors.New("server: overloaded, queue full")
	// ErrDeadline: the request's deadline expired while it waited.
	ErrDeadline = errors.New("server: deadline expired while queued")
)

// Answer is the verdict for one (s,t) pair. Exact is false when the
// answer is a conservative upper bound — degraded fault labels or an
// exhausted work budget — rather than the scheme's (1+ε) estimate.
// Dist is meaningful only when Connected. Error is per-pair (a batch
// never fails whole because one pair named a missing label).
type Answer struct {
	S                  int     `json:"s"`
	T                  int     `json:"t"`
	Connected          bool    `json:"connected"`
	Dist               int64   `json:"dist"`
	Exact              bool    `json:"exact"`
	Degraded           bool    `json:"degraded,omitempty"`
	BudgetExhausted    bool    `json:"budget_exhausted,omitempty"`
	MissingFaultLabels []int32 `json:"missing_fault_labels,omitempty"`
	// Path is the witness walk s..t (present only when the batch asked
	// for paths and the pair connects): each hop is realizable in the
	// surviving graph at a weight summing exactly to Dist, with pending
	// live insertions appearing as unit hops. A corridor of the (1+ε)
	// estimate, not necessarily an exact shortest path.
	Path   []int32 `json:"path,omitempty"`
	Cached bool    `json:"cached,omitempty"`
	Error  string  `json:"error,omitempty"`
	// err is the error Error was rendered from, kept so the HTTP layer
	// can map it to a status with errors.Is.
	err error
}

func (a *Answer) fail(err error) { a.Error, a.err = err.Error(), err }

// labelUnavailable marks an endpoint label the source could neither
// serve nor call absent — every replica down, a damaged record, one an
// incomplete store lacks — which the HTTP layer answers 503, not 404.
type labelUnavailable struct{ error }

func (e labelUnavailable) Unwrap() error { return e.error }

// State is a point-in-time snapshot for /v1/state.
type State struct {
	N               int      `json:"n"`
	Labels          int      `json:"labels"`
	OverlayVertices []int    `json:"overlay_vertices"`
	OverlayEdges    [][2]int `json:"overlay_edges"`
	CacheEntries    int      `json:"cache_entries"`
	SalvageKept     int      `json:"salvage_kept,omitempty"`
	SalvageTotal    int      `json:"salvage_total,omitempty"`
	// Live-pipeline state: the served label generation, delta edges not
	// yet baked into it (0 = answers are exact again) and the last
	// applied mutation sequence.
	LiveGeneration uint64 `json:"live_generation,omitempty"`
	LivePending    int    `json:"live_pending,omitempty"`
	LiveSeq        uint64 `json:"live_seq,omitempty"`
}

// Server answers forbidden-set distance queries from a label store,
// maintaining a global fault overlay that every query sees unioned with
// its own fault set. Safe for concurrent use.
type Server struct {
	cfg  Config
	src  LabelSource
	live *liveupdate.Pipeline

	// overlayMu guards overlay, the fault set applied to every query.
	overlayMu sync.RWMutex
	overlay   *graph.FaultSet

	cache  *resultCache
	frames frameCache
	met    *metrics

	// prevMu guards prevGen, the last committed compaction retained in
	// memory as the base of the next incremental build. It is valid
	// only while its generation still matches the pipeline's — anything
	// else (a restart, a failed commit) silently falls back to a full
	// build.
	prevMu  sync.Mutex
	prevGen *liveupdate.CompactionResult

	// slots is the worker-pool semaphore; queued counts admissions in
	// flight (executing + waiting), capped at Workers+QueueDepth.
	slots  chan struct{}
	queued chan struct{}
}

// New builds a Server over cfg.Store or cfg.Source.
func New(cfg Config) (*Server, error) {
	src := cfg.Source
	switch {
	case cfg.Store != nil && src != nil:
		return nil, fmt.Errorf("server: Config.Store and Config.Source are mutually exclusive")
	case cfg.Store != nil:
		src = newStoreSource(cfg.Store)
	case src == nil:
		return nil, fmt.Errorf("server: one of Config.Store or Config.Source is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = 5 * time.Second
	}
	if cfg.CacheCapacity == 0 {
		cfg.CacheCapacity = 4096
	}
	s := &Server{
		cfg:     cfg,
		src:     src,
		live:    cfg.Live,
		overlay: graph.NewFaultSet(),
		cache:   newResultCache(cfg.CacheCapacity, cacheShards),
		met:     newMetrics(),
		slots:   make(chan struct{}, cfg.Workers),
		queued:  make(chan struct{}, cfg.Workers+cfg.QueueDepth),
	}
	if cfg.Live != nil {
		if bn := cfg.Live.Base().NumVertices(); bn != src.NumVertices() {
			return nil, fmt.Errorf("server: live pipeline base has %d vertices, store covers %d",
				bn, src.NumVertices())
		}
	}
	return s, nil
}

// salvage returns the salvage report of the store served now; zero
// unless Config.Store's source serves one a salvaging open produced.
func (s *Server) salvage() labelstore.SalvageReport {
	if local, ok := s.src.(*storeSource); ok {
		if rep := local.st.Load().Salvage(); rep != nil {
			return *rep
		}
	}
	return labelstore.SalvageReport{}
}

// NumVertices returns the vertex-id space served.
func (s *Server) NumVertices() int { return s.src.NumVertices() }

// admit acquires a worker slot, waiting until one frees or the context
// deadline passes; it fails fast with ErrOverloaded when the queue is
// already at capacity.
func (s *Server) admit(ctx context.Context) error {
	select {
	case s.queued <- struct{}{}:
	default:
		s.met.rejectedOverload.Add(1)
		return ErrOverloaded
	}
	s.met.inflight.Add(1)
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		<-s.queued
		s.met.inflight.Add(-1)
		s.met.rejectedDeadline.Add(1)
		return ErrDeadline
	}
}

func (s *Server) done() {
	<-s.slots
	<-s.queued
	s.met.inflight.Add(-1)
}

// effectiveFaults snapshots the overlay unioned with the request's own
// faults.
func (s *Server) effectiveFaults(req *graph.FaultSet) *graph.FaultSet {
	s.overlayMu.RLock()
	f := s.overlay.Clone()
	s.overlayMu.RUnlock()
	if req != nil {
		for _, v := range req.Vertices() {
			f.AddVertex(v)
		}
		for _, e := range req.Edges() {
			f.AddEdge(e[0], e[1])
		}
	}
	return f
}

// faultHash hashes the canonical (sorted) fault set plus the work
// budget — with the endpoint pair, the full identity of a query.
func faultHash(f *graph.FaultSet, budget int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	vs, es := f.Sorted()
	put(uint64(len(vs)))
	for _, v := range vs {
		put(uint64(v))
	}
	put(uint64(len(es)))
	for _, e := range es {
		put(uint64(e[0])<<32 | uint64(uint32(e[1])))
	}
	put(uint64(budget))
	return h.Sum64()
}

// maxLivePatches caps how many pending insertions a single query will
// consider as shortcuts. Each patch adds two owner labels to the
// query's sketch, so past the cap the remainder is dropped for that
// query — answers stay sound upper bounds, they just stop reflecting
// the excess insertions until compaction bakes them in.
const maxLivePatches = 256

// labelFunc resolves one vertex's label in a batch's generation-pinned
// view of the source (see LabelSource.PinLabels).
type labelFunc = func(context.Context, int) (*core.Label, error)

// decodePatches resolves patch-edge endpoint labels. A patch whose
// endpoints cannot be fetched is skipped: the shortcut is missed but
// the answer stays sound.
func (s *Server) decodePatches(ctx context.Context, label labelFunc, edges [][2]int32) []core.PatchEdge {
	if len(edges) == 0 {
		return nil
	}
	out := make([]core.PatchEdge, 0, len(edges))
	for _, e := range edges {
		lu, errU := label(ctx, int(e[0]))
		lv, errV := label(ctx, int(e[1]))
		if errU != nil || errV != nil {
			continue
		}
		out = append(out, core.PatchEdge{U: lu, V: lv})
	}
	return out
}

// QueryOptions carries the per-request knobs shared by a whole batch.
type QueryOptions struct {
	// Faults is the request's own fault set, unioned with the server's
	// overlay.
	Faults *graph.FaultSet
	// Budget caps decode work per pair; 0 uses the server default,
	// negative means unlimited.
	Budget int
	// Path asks for the witness walk in every connected Answer. Path
	// answers are cached separately from distance-only answers (the
	// cache key carries the flag).
	Path bool
}

func (s *Server) budget(opts *QueryOptions) int {
	b := s.cfg.DefaultBudget
	if opts != nil && opts.Budget != 0 {
		b = opts.Budget
	}
	if b < 0 {
		b = 0 // core treats 0 as unlimited
	}
	return b
}

// AnswerPairs answers a batch of (s,t) pairs sharing one fault set and
// budget, decoding every label — endpoints and faults — at most once.
// Per-pair problems (out-of-range ids, missing endpoint labels) land in
// that pair's Answer.Error; the returned error is reserved for
// admission failures (ErrOverloaded, ErrDeadline).
func (s *Server) AnswerPairs(ctx context.Context, pairs [][2]int, opts *QueryOptions) ([]Answer, error) {
	if deadline, ok := ctx.Deadline(); !ok || time.Until(deadline) > s.cfg.DefaultDeadline {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DefaultDeadline)
		defer cancel()
	}
	if err := s.admit(ctx); err != nil {
		return nil, err
	}
	defer s.done()

	wantPath := opts != nil && opts.Path
	budget := s.budget(opts)
	var reqFaults *graph.FaultSet
	if opts != nil {
		reqFaults = opts.Faults
	}
	faults := s.effectiveFaults(reqFaults)
	// Live delta: pending deletions join the fault set as implicit soft
	// faults, pending insertions become query-time patch candidates —
	// both read from one state of the delta. While any delta is pending
	// the (1+ε) guarantee is suspended — answers are sound upper bounds on
	// the mutated graph's d_{G'\F}, reported exact:false — and the result
	// cache is bypassed (patches are not part of the fault hash;
	// compaction restores exactness and caching together). A shared frame
	// serves such a batch only when it was built from the same patch
	// labels as well (core.Frame.Matches). A batch that brings faults of
	// its own is also handed the frame of the delta's side alone (delta,
	// under deltaHash) — the one the batches without faults of their own
	// share — to compose its decodes' frames from.
	var livePatches [][2]int32
	livePending := false
	var delta *graph.FaultSet
	if s.live != nil {
		var fe [][2]int32
		fe, livePatches = s.live.Delta()
		delta = s.effectiveFaults(nil)
		for _, e := range fe {
			faults.AddEdge(int(e[0]), int(e[1]))
			delta.AddEdge(int(e[0]), int(e[1]))
		}
		if len(livePatches) > maxLivePatches {
			livePatches = livePatches[:maxLivePatches]
		}
		livePending = len(fe) > 0 || len(livePatches) > 0
	}
	fhash := faultHash(faults, budget)
	var deltaHash uint64
	if delta != nil {
		if deltaHash = faultHash(delta, budget); !livePending || deltaHash == fhash {
			delta = nil
		}
	}

	// Pin every label fetch in this batch to one label generation, and
	// only AFTER the live delta was read above: if the delta came back
	// empty, the compaction that cleared it had already swapped the new
	// generation in (swap-before-commit), so the pin can only see the
	// new one. The other orderings are all sound — a non-empty delta
	// conservatively re-forbids whatever an older generation still
	// routes through — but labels of two different generations inside
	// one decode are not, so the pin, not the per-call source state,
	// serves the whole batch.
	label, pinnedPrefetch := s.src.PinLabels()

	n := s.src.NumVertices()
	answers := make([]Answer, len(pairs))
	s.prefetch(ctx, pinnedPrefetch, pairs, faults, livePatches, n)
	// The batch's query template — the effective fault set and live
	// patches, every label decoded exactly once and shared read-only by
	// all pairs. Built lazily: an all-hit batch decodes nothing.
	var (
		tmpl, deltaTmpl *core.Query
		patches         []core.PatchEdge
		frame           *core.Frame
		framed          bool // the shared frames were asked
	)
	// One pooled decoder serves the whole batch: every miss reuses the
	// same warmed-up scratch. Endpoint labels come straight from the
	// source, whose decoded-label LRU is the batch's memo.
	var dec core.Decoder
	defer dec.Release()

	for i, p := range pairs {
		// A canceled context means the client hung up: stop decoding
		// mid-batch and hand the worker slot back to live requests
		// instead of finishing work nobody will read. Deadline expiry is
		// deliberately NOT an abort — a slow batch still returns its
		// (possibly budget-degraded) answers, as it always has.
		if err := ctx.Err(); errors.Is(err, context.Canceled) {
			s.met.canceledMidBatch.Add(1)
			return nil, fmt.Errorf("server: request abandoned after %d of %d pairs: %w", i, len(pairs), err)
		}
		src, dst := p[0], p[1]
		a := Answer{S: src, T: dst}
		s.met.queries.Add(1)
		if src < 0 || src >= n || dst < 0 || dst >= n {
			a.fail(fmt.Errorf("vertex out of range [0,%d)", n))
			s.met.errors.Add(1)
			answers[i] = a
			continue
		}
		if faults.HasVertex(src) || faults.HasVertex(dst) {
			// A forbidden endpoint has no distance to anything — an
			// exact verdict, not a degraded one.
			a.Exact = true
			answers[i] = a
			continue
		}
		// Path and distance-only answers must never mix for the same
		// (s,t,F): the flag is part of the key.
		key := cacheKey{s: int32(src), t: int32(dst), fhash: fhash, path: wantPath}
		if !livePending {
			if hit, ok := s.cache.Get(key); ok {
				s.met.cacheHits.Add(1)
				hit.Cached = true
				answers[i] = hit
				continue
			}
		}
		s.met.cacheMisses.Add(1)
		ls, err := label(ctx, src)
		if err == nil {
			var lt *core.Label
			if lt, err = label(ctx, dst); err == nil {
				if tmpl == nil {
					// A missing or unreachable fault label is demoted to
					// the degraded tier — the decoder protects a maximal
					// ball around it and the answer stays an upper bound
					// on d_{G\F} — so resolution cannot fail.
					lookup := func(v int) (*core.Label, error) { return label(ctx, v) }
					if delta != nil {
						// The delta's labels are the batch's, pointer for
						// pointer, as composing asks.
						deltaTmpl = &core.Query{Budget: budget}
						_ = deltaTmpl.ResolveFaults(delta, lookup, true)
						lookup = func(v int) (*core.Label, error) {
							if l := faultLabel(deltaTmpl, v); l != nil {
								return l, nil
							}
							return label(ctx, v)
						}
					}
					tmpl = &core.Query{Budget: budget}
					_ = tmpl.ResolveFaults(faults, lookup, true)
					patches = s.decodePatches(ctx, label, livePatches)
				}
				q := *tmpl
				q.S, q.T = ls, lt
				if !framed {
					framed = true
					var dq *core.Query
					if deltaTmpl != nil {
						d := *deltaTmpl
						d.S, d.T = ls, lt
						dq = &d
					}
					frame = s.sharedFrame(fhash, &q, deltaHash, dq, patches)
				}
				var path []int32
				o := core.Opts{Patches: patches, Frame: frame}
				if wantPath {
					o.Path = &path
				}
				res := dec.Decode(&q, o)
				if res.OK {
					a.Path = path
				}
				a.Connected = res.OK
				a.Dist = res.Dist
				// Degraded: a fault label was demoted, not just the budget spent.
				a.Degraded = len(q.DegradedVertexFaults) > 0 || len(q.DegradedEdgeFaults) > 0 || len(res.MissingFaultLabels) > 0
				a.BudgetExhausted = res.BudgetExhausted
				a.MissingFaultLabels = res.MissingFaultLabels
				a.Exact = !a.Degraded && !res.BudgetExhausted && !livePending
				if a.Degraded {
					s.met.degraded.Add(1)
				}
				if res.BudgetExhausted {
					s.met.budgetExhausted.Add(1)
				}
				// Degraded answers are conservative fallbacks for labels
				// that were unavailable at decode time — often transiently
				// (a replica set down). Caching one would keep serving the
				// stale upper bound after the labels return, so only exact
				// and budget-exhausted (deterministic for this key, whose
				// hash holds the budget) verdicts enter the cache.
				if !a.Degraded && !livePending {
					s.cache.Put(key, a)
				}
			}
		}
		if err != nil {
			if !errors.Is(err, core.ErrNoLabel) {
				err = labelUnavailable{err}
			}
			a.fail(err)
			s.met.errors.Add(1)
		}
		answers[i] = a
	}
	return answers, nil
}

// sharedFrame returns the shared frame for the batch's decodes, when the
// frame cache has one or builds it now, else nil: the frame of q's fault
// side and the batch's patches or, when there is none, that of delta's
// side (nil: none asked), which the decodes compose their own frames from
// (core.Opts.Frame). delta's key is looked up first, so that q's keys —
// random, when a live batch brings faults of its own — do not push it out
// of the sighting ring.
func (s *Server) sharedFrame(key uint64, q *core.Query, deltaKey uint64, delta *core.Query, patches []core.PatchEdge) *core.Frame {
	var base *core.Frame
	if delta != nil {
		base = s.cachedFrame(deltaKey, delta, patches)
	}
	f := s.cachedFrame(key, q, patches)
	if f == nil {
		f = base
	}
	if f != nil {
		s.met.sharedFrameBatches.Add(1)
	}
	return f
}

// cachedFrame returns the frame cache's frame of q's fault side and these
// patches, building it on the key's second sighting. A fault side without
// fault labels or patches has nothing to share.
func (s *Server) cachedFrame(key uint64, q *core.Query, patches []core.PatchEdge) *core.Frame {
	if len(q.VertexFaults) == 0 && len(q.EdgeFaults) == 0 && len(patches) == 0 {
		return nil
	}
	f, built := s.frames.get(key, q, patches)
	if built {
		s.met.sharedFramesBuilt.Add(1)
	}
	return f
}

// faultLabel returns the fault label q holds for vertex v, nil if none.
func faultLabel(q *core.Query, v int) *core.Label {
	for _, l := range q.VertexFaults {
		if int(l.V) == v {
			return l
		}
	}
	for _, ef := range q.EdgeFaults {
		for _, l := range ef {
			if int(l.V) == v {
				return l
			}
		}
	}
	return nil
}

// prefetch warms the label source with every distinct vertex the batch
// will touch — endpoints, fault-set members and live-patch endpoints —
// in one call through the batch's (possibly generation-pinned)
// prefetch function. Against a cluster source this collapses per-pair
// scatter-gathers into a single round of shard fetches; pf is nil for
// sources without one (a local store is already single-hop).
func (s *Server) prefetch(ctx context.Context, pf func(context.Context, []int) int, pairs [][2]int, faults *graph.FaultSet, patches [][2]int32, n int) {
	if pf == nil {
		return
	}
	seen := make(map[int]struct{}, 2*len(pairs)+faults.Size()+2*len(patches))
	add := func(v int) {
		if v >= 0 && v < n {
			seen[v] = struct{}{}
		}
	}
	for _, p := range pairs {
		add(p[0])
		add(p[1])
	}
	for _, v := range faults.Vertices() {
		add(v)
	}
	for _, e := range faults.Edges() {
		add(e[0])
		add(e[1])
	}
	for _, e := range patches {
		add(int(e[0]))
		add(int(e[1]))
	}
	ids := make([]int, 0, len(seen))
	for v := range seen {
		ids = append(ids, v)
	}
	// A couple of jittered retries while fetches come back unresolved:
	// transient shard hiccups heal here instead of surfacing as degraded
	// answers. Persistently unresolved vertices are left to the per-label
	// path, which owns the error semantics.
	pol := backoff.Policy{Base: 25 * time.Millisecond, Cap: 100 * time.Millisecond, Jitter: 0.2}
	for attempt := 0; ; attempt++ {
		if pf(ctx, ids) == 0 || attempt >= 2 {
			return
		}
		if backoff.Sleep(ctx, pol.Delay(attempt)) != nil {
			return
		}
	}
}

// Distance answers one pair.
func (s *Server) Distance(ctx context.Context, src, dst int, opts *QueryOptions) (Answer, error) {
	as, err := s.AnswerPairs(ctx, [][2]int{{src, dst}}, opts)
	if err != nil {
		return Answer{}, err
	}
	return as[0], nil
}

// Connected answers a connectivity query (a distance query whose
// verdict is the Connected bit).
func (s *Server) Connected(ctx context.Context, src, dst int, opts *QueryOptions) (Answer, error) {
	return s.Distance(ctx, src, dst, opts)
}

// Fail adds vertices/edges to the global fault overlay, then
// invalidates the result cache. Ids are validated up front; nothing is
// applied on error.
func (s *Server) Fail(vertices []int, edges [][2]int) error {
	return s.applyOverlay(vertices, edges, true)
}

// Recover removes vertices/edges from the overlay, mirroring Fail.
func (s *Server) Recover(vertices []int, edges [][2]int) error {
	return s.applyOverlay(vertices, edges, false)
}

func (s *Server) applyOverlay(vertices []int, edges [][2]int, fail bool) error {
	n := s.src.NumVertices()
	for _, v := range vertices {
		if v < 0 || v >= n {
			return fmt.Errorf("server: vertex %d out of range [0,%d)", v, n)
		}
	}
	for _, e := range edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			return fmt.Errorf("server: edge (%d,%d) endpoint out of range [0,%d)", e[0], e[1], n)
		}
	}
	s.overlayMu.Lock()
	for _, v := range vertices {
		if fail {
			s.overlay.AddVertex(v)
		} else {
			s.overlay.RemoveVertex(v)
		}
	}
	for _, e := range edges {
		if fail {
			s.overlay.AddEdge(e[0], e[1])
		} else {
			s.overlay.RemoveEdge(e[0], e[1])
		}
	}
	s.overlayMu.Unlock()

	applied := int64(len(vertices) + len(edges))
	if fail {
		s.met.failsApplied.Add(applied)
	} else {
		s.met.recoversApplied.Add(applied)
	}
	s.cache.Flush()
	s.frames.flush()
	s.met.cacheFlushes.Add(1)
	return nil
}

// Snapshot returns the current State.
func (s *Server) Snapshot() State {
	s.overlayMu.RLock()
	ov, oe := s.overlay.Sorted()
	s.overlayMu.RUnlock()
	st := State{
		N:               s.src.NumVertices(),
		Labels:          s.src.NumLabels(),
		OverlayVertices: ov,
		OverlayEdges:    oe,
		CacheEntries:    s.cache.Len(),
	}
	if s.live != nil {
		st.LiveGeneration = s.live.Generation()
		st.LivePending = s.live.Pending()
		st.LiveSeq = s.live.Seq()
	}
	rep := s.salvage()
	st.SalvageKept, st.SalvageTotal = rep.Kept, rep.Total
	return st
}

// Metrics renders the Prometheus text exposition, appending any
// source-specific exposition (cluster fetch latency, hedge rate, shard
// health) when the label source provides one.
func (s *Server) Metrics() string {
	var sb strings.Builder
	labelHits, labelMisses := s.src.LabelCacheStats()
	x := stats.NewExposition(&sb)
	s.met.render(x, s.cache.Len(), labelHits, labelMisses, core.DecoderPool(), s.salvage())
	if s.live != nil {
		renderLive(x, s.live.MetricsSnapshot())
	}
	s.src.WriteMetrics(&sb)
	return sb.String()
}
