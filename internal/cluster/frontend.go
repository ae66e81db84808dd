package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fsdl/internal/backoff"
	"fsdl/internal/core"
	"fsdl/internal/frame"
	"fsdl/internal/labelstore"
	"fsdl/internal/lru"
	"fsdl/internal/stats"
)

// FrontendConfig configures a Frontend. Membership is required;
// everything else has a serviceable default.
type FrontendConfig struct {
	Membership *Membership

	// FetchTimeout bounds each individual fetch RPC (default 500ms).
	FetchTimeout time.Duration
	// DialTimeout bounds establishing a new shard connection (default
	// 300ms).
	DialTimeout time.Duration
	// HedgeDelay is how long the frontend waits on an in-flight fetch
	// before duplicating it to the next replica (default FetchTimeout/5;
	// negative disables hedging).
	HedgeDelay time.Duration

	// HealthInterval is the active health-probe period (default 1s,
	// jittered ±20% so frontends don't probe in lockstep);
	// HealthTimeout bounds each probe (default 250ms).
	HealthInterval time.Duration
	HealthTimeout  time.Duration
	// StartupTimeout bounds New's wait for the first reachable shard
	// (default 10s) — the frontend needs one pong to learn the vertex
	// space.
	StartupTimeout time.Duration

	// LabelCacheSize bounds the decoded-label LRU (default 8192 entries;
	// negative disables).
	LabelCacheSize int

	// RetryBudgetRatio caps retries and hedges to this fraction of
	// first-attempt traffic (default 0.1; negative disables the budget).
	RetryBudgetRatio float64

	// RepairInterval is the anti-entropy sweep period (default 0:
	// disabled). Each sweep audits every shard's expected vertex range,
	// 2048 ids per audit RPC, and pulls missing records from intact
	// replicas.
	RepairInterval time.Duration

	// What only this package's tests set: the per-shard circuit breakers
	// (on unless breakerDisabled) count outcomes over a rolling
	// breakerWindow (10s) sliced into 10 buckets; once breakerMinRequests
	// (8) outcomes are in the window and the failure fraction reaches 0.5
	// the breaker opens, shedding traffic for breakerCooldown (2s,
	// doubling per consecutive re-open up to 30s) before admitting a
	// half-open probe. retryBudgetBurst (50) is the budget's bucket depth
	// — how many retries may burst after a quiet period.
	breakerDisabled    bool
	breakerWindow      time.Duration
	breakerMinRequests int
	breakerCooldown    time.Duration
	retryBudgetBurst   float64
}

// What no deployment has needed to tune.
const (
	negativeCacheSize   = 1024 // confirmed-absence LRU entries
	maxIdleConns        = 4    // idle connections pooled per shard
	breakerBuckets      = 10   // slices of breakerWindow
	breakerFailureRatio = 0.5  // failure fraction that opens a breaker
	breakerMaxCooldown  = 30 * time.Second
	repairBatch         = 2048 // ids per audit RPC
)

func (cfg *FrontendConfig) withDefaults() FrontendConfig {
	c := *cfg
	if c.FetchTimeout <= 0 {
		c.FetchTimeout = 500 * time.Millisecond
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 300 * time.Millisecond
	}
	if c.HedgeDelay == 0 {
		c.HedgeDelay = c.FetchTimeout / 5
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = 250 * time.Millisecond
	}
	if c.StartupTimeout <= 0 {
		c.StartupTimeout = 10 * time.Second
	}
	if c.LabelCacheSize == 0 {
		c.LabelCacheSize = 8192
	}
	if c.breakerWindow <= 0 {
		c.breakerWindow = 10 * time.Second
	}
	if c.breakerMinRequests <= 0 {
		c.breakerMinRequests = 8
	}
	if c.breakerCooldown <= 0 {
		c.breakerCooldown = 2 * time.Second
	}
	if c.RetryBudgetRatio == 0 {
		c.RetryBudgetRatio = 0.1
	}
	if c.retryBudgetBurst <= 0 {
		c.retryBudgetBurst = 50
	}
	return c
}

// ringState is one membership epoch: an immutable ring plus the client
// for each of its nodes. The frontend swaps the whole value atomically
// on join/leave/drain, so every fetch routes against one consistent
// epoch end to end — no request ever sees half a membership change.
type ringState struct {
	epoch uint64
	ring  *Ring
	nodes []*shardClient // nodes[i] is the client for ring node i
	// gen is the label generation every fetch in this epoch is tagged
	// with. SwapGeneration bumps it together with the epoch, so a
	// scatter that loaded the old state keeps completing against the
	// old generation (shards hold it as their previous store) while new
	// scatters route against the new one — the zero-downtime swap.
	gen uint64
}

// labelKey addresses one vertex's decoded label within one label
// generation. Keying the caches by generation — rather than flushing
// them on swap and hoping no in-flight scatter repopulates them — makes
// stale entries unreachable by construction: a scatter pinned to the
// old generation caches its answers under the old generation's keys,
// which no post-swap lookup ever consults — a check-then-put against
// "the active generation" could lose the race to the swap's
// flip-and-flush and seed the fresh cache with a label whose graph no
// longer exists. (The flush on swap is memory hygiene only.)
type labelKey struct {
	gen uint64
	v   int32
}

func labelKeyHash(k labelKey) uint64 {
	return lru.HashU32(uint32(k.v)) ^ (k.gen * 0x9e3779b97f4a7c15)
}

// clientByName returns the epoch's client for a shard name.
func (st *ringState) clientByName(name string) *shardClient {
	for _, c := range st.nodes {
		if c.node.Name == name {
			return c
		}
	}
	return nil
}

// Frontend is the cluster client embedded into the serving tier: it
// resolves vertices to shard owners on the ring, scatter-gathers label
// fetches with per-call deadlines, hedges slow calls to replicas, fails
// over around unhealthy shards (bounded by a retry budget), sheds
// traffic from browned-out shards via per-shard circuit breakers, and
// caches decoded labels and confirmed absences. Membership is epochal:
// Join/Leave/Drain build a new ring and swap it atomically. It
// implements the server's LabelSource so the decode path upstream is
// identical to the single-node one. Safe for concurrent use.
type Frontend struct {
	cfg         FrontendConfig
	n           int // global vertex space, learned from the first pong
	replication int

	state   atomic.Pointer[ringState]
	adminMu sync.Mutex // serializes membership changes

	labelCache *lru.Cache[labelKey, *core.Label]
	negCache   *lru.Cache[labelKey, struct{}]
	met        frontendMetrics
	budget     *retryBudget // nil when disabled
	rep        *repairer    // nil when repair is disabled

	// levels interns the level edge lists of fetched labels as they are
	// parsed (core.LevelTable); sized by labelCache, flushed with it.
	levels *core.LevelTable
	// levelSets holds the level-graphs sections stored records are read
	// under, one per LevelsRef, of the generation routed (levels.go).
	levelsMu  sync.Mutex
	levelSets map[LevelsRef]*levelSet

	// liveStats, when set, supplies the co-located live-update
	// pipeline's state for status rendering (pending delta, WAL
	// segments); nil on frontends without a pipeline.
	liveStats atomic.Pointer[func() LiveStats]

	stop     chan struct{}
	stopOnce sync.Once
	done     sync.WaitGroup
}

// ShardHealth is one shard's state in a health snapshot.
type ShardHealth struct {
	Name    string `json:"name"`
	Addr    string `json:"addr"`
	Healthy bool   `json:"healthy"`
	Labels  int64  `json:"labels"`
	// Mismatched flags a reachable shard excluded from routing because
	// its vertex space disagrees with the cluster's (its partition came
	// from a different store).
	Mismatched bool `json:"mismatched,omitempty"`
	// Draining flags a shard administratively excluded from routing
	// while still serving as a repair source.
	Draining bool `json:"draining,omitempty"`
	// Breaker is the shard's circuit-breaker state ("closed", "open",
	// "half-open"); empty when breakers are disabled.
	Breaker string `json:"breaker,omitempty"`
	// NonAuthoritative flags a shard that cannot vouch for absences
	// (bootstrap replacement or truncated salvage) until repair seals it.
	NonAuthoritative bool `json:"non_authoritative,omitempty"`
	// Generation is the label generation the shard last reported
	// serving; GenLagged flags a reachable shard excluded from routing
	// because it serves an older generation and could not be caught up.
	Generation uint64 `json:"generation,omitempty"`
	GenLagged  bool   `json:"gen_lagged,omitempty"`
}

// LiveStats is the live-update pipeline state the serving tier shares
// with the frontend for status surfaces: the number of pending
// (unbaked) delta edges and the mutation WAL's segment retention.
type LiveStats struct {
	Pending      int
	WALSegments  int
	WALOldestAge time.Duration
}

// SetLiveStats registers the callback Status uses to fold live-update
// state into the cluster snapshot. Pass nil to unregister.
func (f *Frontend) SetLiveStats(fn func() LiveStats) {
	if fn == nil {
		f.liveStats.Store(nil)
		return
	}
	f.liveStats.Store(&fn)
}

// NewFrontend connects to the cluster described by cfg.Membership. It
// blocks (up to StartupTimeout) until at least one shard answers a
// ping — that pong fixes the vertex space — then starts the background
// health checker and, when RepairInterval is set, the anti-entropy
// repairer. Shards that are down at startup are served around via
// replicas and picked back up by the health loop when they return.
func NewFrontend(cfg FrontendConfig) (*Frontend, error) {
	if cfg.Membership == nil {
		return nil, fmt.Errorf("cluster: FrontendConfig.Membership is required")
	}
	c := cfg.withDefaults()
	ring := c.Membership.Ring()
	f := &Frontend{
		cfg:         c,
		replication: ring.Replication(),
		stop:        make(chan struct{}),
	}
	st := &ringState{epoch: 1, ring: ring}
	for _, nd := range ring.Nodes() {
		st.nodes = append(st.nodes, newShardClient(nd, c))
	}
	f.state.Store(st)
	if c.RetryBudgetRatio > 0 {
		f.budget = newRetryBudget(c.RetryBudgetRatio, c.retryBudgetBurst)
	}
	f.labelCache = lru.New[labelKey, *core.Label](c.LabelCacheSize, 8, labelKeyHash)
	f.levels = core.NewLevelTable(c.LabelCacheSize)
	f.levelSets = make(map[LevelsRef]*levelSet)
	f.negCache = lru.New[labelKey, struct{}](negativeCacheSize, 8, labelKeyHash)

	deadline := time.Now().Add(c.StartupTimeout)
	pol := backoff.Policy{Base: 50 * time.Millisecond, Cap: 400 * time.Millisecond, Jitter: 0.2}
	for attempt := 0; ; attempt++ {
		f.sweepHealth()
		if n, ok := f.learnedN(st); ok {
			f.n = n
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("cluster: no shard reachable within %v", c.StartupTimeout)
		}
		time.Sleep(pol.Delay(attempt))
	}
	// All reachable shards must agree on the vertex space; disagreement
	// means the partitions came from different stores.
	for _, cl := range st.nodes {
		if cl.healthy.Load() {
			if n := int(cl.lastN.Load()); n != f.n {
				return nil, fmt.Errorf("cluster: shard %s serves vertex space %d, others %d — partitions from different stores?",
					cl.node.Name, n, f.n)
			}
		}
	}
	// Adopt the newest generation any healthy shard reports — after a
	// crash mid-swap some shards may lag; the health loop catches them
	// up (or fences them off) rather than serving mixed generations.
	var gen uint64
	for _, cl := range st.nodes {
		if cl.healthy.Load() && cl.lastGen.Load() > gen {
			gen = cl.lastGen.Load()
		}
	}
	st = &ringState{epoch: st.epoch, ring: st.ring, nodes: st.nodes, gen: gen}
	f.state.Store(st)
	f.sweepHealth() // re-fence any shard lagging the adopted generation
	f.done.Add(1)
	go f.healthLoop()
	if c.RepairInterval > 0 {
		f.rep = newRepairer(f, c.RepairInterval)
		f.done.Add(1)
		go f.rep.loop()
	}
	return f, nil
}

// Close stops the background loops and severs pooled connections.
func (f *Frontend) Close() error {
	f.stopOnce.Do(func() { close(f.stop) })
	f.done.Wait()
	for _, c := range f.state.Load().nodes {
		c.closeIdle()
	}
	return nil
}

// NumVertices returns the cluster's vertex-id space.
func (f *Frontend) NumVertices() int { return f.n }

// Epoch returns the current membership epoch.
func (f *Frontend) Epoch() uint64 { return f.state.Load().epoch }

// Join adds a shard to the ring and swaps in the new epoch. The shard
// must be reachable and serve the cluster's vertex space — a membership
// change should fail loudly at the operator's terminal, not silently
// add a black hole to the ring. Consistent hashing bounds the label
// movement to the ranges the new node takes over; existing shards keep
// their (now partially redundant) records, and reads are unaffected
// because every vertex's old replicas still hold it.
func (f *Frontend) Join(name, addr string) (uint64, error) {
	f.adminMu.Lock()
	defer f.adminMu.Unlock()
	cur := f.state.Load()
	if cur.clientByName(name) != nil {
		return 0, fmt.Errorf("cluster: shard %q is already a member", name)
	}
	cl := newShardClient(Node{Name: name, Addr: addr}, f.cfg)
	ctx, cancel := context.WithTimeout(context.Background(), f.cfg.HealthTimeout)
	defer cancel()
	n, labels, flags, gen, err := cl.ping(ctx)
	if err != nil {
		return 0, fmt.Errorf("cluster: join %q refused, shard unreachable at %s: %w", name, addr, err)
	}
	if n != f.n {
		return 0, fmt.Errorf("cluster: join %q refused: serves vertex space %d, cluster has %d", name, n, f.n)
	}
	if cur.gen > 0 && gen != cur.gen {
		// A joiner on another label generation must catch up before it
		// can take traffic — a ring serving mixed generations would hand
		// out labels from different graphs.
		if err := cl.loadGeneration(cur.gen); err != nil {
			return 0, fmt.Errorf("cluster: join %q refused: serves generation %d, cluster on %d: %w",
				name, gen, cur.gen, err)
		}
		gen = cur.gen
	}
	cl.lastN.Store(int64(n))
	cl.lastLabels.Store(int64(labels))
	cl.lastFlags.Store(flags)
	cl.lastGen.Store(gen)
	cl.healthy.Store(true)

	nodes := append(slices.Clone(cur.ring.Nodes()), Node{Name: name, Addr: addr})
	ring := NewRing(nodes, f.replication)
	next := &ringState{epoch: cur.epoch + 1, ring: ring, gen: cur.gen}
	for _, nd := range ring.Nodes() {
		if c := cur.clientByName(nd.Name); c != nil {
			next.nodes = append(next.nodes, c)
		} else {
			next.nodes = append(next.nodes, cl)
		}
	}
	f.state.Store(next)
	f.kickRepair()
	return next.epoch, nil
}

// Leave removes a shard from the ring and swaps in the new epoch. The
// vertices it owned are re-served by the replicas that already hold
// them; the repairer then restores full replication on the nodes that
// inherited its ranges.
func (f *Frontend) Leave(name string) (uint64, error) {
	f.adminMu.Lock()
	defer f.adminMu.Unlock()
	cur := f.state.Load()
	gone := cur.clientByName(name)
	if gone == nil {
		return 0, fmt.Errorf("cluster: shard %q is not a member", name)
	}
	if len(cur.nodes) == 1 {
		return 0, fmt.Errorf("cluster: refusing to remove the last shard %q", name)
	}
	nodes := make([]Node, 0, len(cur.nodes)-1)
	for _, nd := range cur.ring.Nodes() {
		if nd.Name != name {
			nodes = append(nodes, nd)
		}
	}
	ring := NewRing(nodes, f.replication)
	next := &ringState{epoch: cur.epoch + 1, ring: ring, gen: cur.gen}
	for _, nd := range ring.Nodes() {
		next.nodes = append(next.nodes, cur.clientByName(nd.Name))
	}
	f.state.Store(next)
	gone.closeIdle()
	f.kickRepair()
	return next.epoch, nil
}

// Drain marks a shard routing-excluded (or re-included) without
// changing the ring: queries stop landing on it, but it keeps its data
// and remains a valid repair source. The idiom for replacing a live
// shard is drain → wait for repair to converge → leave.
func (f *Frontend) Drain(name string, drain bool) (uint64, error) {
	f.adminMu.Lock()
	defer f.adminMu.Unlock()
	cur := f.state.Load()
	c := cur.clientByName(name)
	if c == nil {
		return 0, fmt.Errorf("cluster: shard %q is not a member", name)
	}
	c.draining.Store(drain)
	next := &ringState{epoch: cur.epoch + 1, ring: cur.ring, nodes: cur.nodes, gen: cur.gen}
	f.state.Store(next)
	f.kickRepair()
	return next.epoch, nil
}

// Generation returns the label generation the frontend is routing
// against.
func (f *Frontend) Generation() uint64 { return f.state.Load().gen }

// genLoadTimeout bounds one OpLoadGeneration round trip: the shard
// verifies a manifest and loads a partition from disk, so it gets a
// far longer leash than a label fetch.
const genLoadTimeout = 15 * time.Second

// SwapGeneration activates label generation gen cluster-wide: every
// routable shard is told to load it from its generation root, and only
// when all of them hold it does the frontend flip routing — epoch bump,
// generation tag, cache flush — in one atomic state swap. In-flight
// scatters pinned to the old state keep completing against the old
// generation, which every shard retains as its previous store; new
// scatters route against the new one. If any shard fails, nothing
// flips: the shards that did take the generation on serve the old one
// from their previous-store slot, so the cluster stays consistent on
// the old generation and the swap can be retried. Shards that are down
// during the swap are caught up by the health sweep when they return
// (or fenced off until they are). The generation's opened store is of
// no use here (shards read their own generation roots); the parameter
// is the server.LabelSource contract.
func (f *Frontend) SwapGeneration(gen uint64, _ *labelstore.Store) (uint64, error) {
	f.adminMu.Lock()
	defer f.adminMu.Unlock()
	cur := f.state.Load()
	if gen == cur.gen {
		return cur.epoch, nil
	}
	var firstErr error
	loaded, failed := 0, 0
	for _, c := range cur.nodes {
		if !c.healthy.Load() {
			continue
		}
		if err := c.loadGeneration(gen); err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %s: %w", c.node.Name, err)
			}
			continue
		}
		c.lastGen.Store(gen)
		loaded++
	}
	if failed > 0 {
		return 0, fmt.Errorf("cluster: generation %d swap aborted (%d of %d shards failed, all still serving %d): %w",
			gen, failed, loaded+failed, cur.gen, firstErr)
	}
	if loaded == 0 {
		return 0, fmt.Errorf("cluster: generation %d swap: no healthy shard", gen)
	}
	next := &ringState{epoch: cur.epoch + 1, ring: cur.ring, nodes: cur.nodes, gen: gen}
	f.state.Store(next)
	// The old generation's cached labels and absences are unreachable
	// already (cache keys carry the generation); flushing just returns
	// their memory ahead of LRU churn. Its level graphs go with them.
	f.labelCache.Flush()
	f.levels.Reset()
	f.negCache.Flush()
	f.dropLevels(gen)
	f.kickRepair()
	return next.epoch, nil
}

// Partitions maps each shard of the ring routed now, after any join or
// leave, to the ids it serves: the server.LabelSource contract.
func (f *Frontend) Partitions() map[string][]int { return f.state.Load().ring.PartitionByName(f.n) }

// kickRepair wakes the repairer immediately (membership just changed).
func (f *Frontend) kickRepair() {
	if f.rep != nil {
		select {
		case f.rep.kick <- struct{}{}:
		default:
		}
	}
}

// NumLabels estimates the number of distinct labels the cluster holds:
// the per-shard record counts from the last health sweep divided by the
// replication factor. Exact for a complete partitioning (every label
// held by exactly R shards); an estimate while shards are down (their
// last-known count is used) or while repair is filling a joined shard.
func (f *Frontend) NumLabels() int {
	st := f.state.Load()
	var total int64
	for _, c := range st.nodes {
		total += c.lastLabels.Load()
	}
	return int(total) / st.ring.Replication()
}

// LabelCacheStats reports the decoded-label cache's cumulative hit/miss
// counts (the LabelSource contract).
func (f *Frontend) LabelCacheStats() (hits, misses int64) {
	return f.met.labelHits.Load(), f.met.labelMisses.Load()
}

// Health returns a point-in-time shard health snapshot.
func (f *Frontend) Health() []ShardHealth {
	return f.healthAt(f.state.Load())
}

// healthAt builds the snapshot against one pinned ring state, so a
// caller that also derives per-shard data from st (Status's pending-
// delta attribution) indexes the same node list.
func (f *Frontend) healthAt(st *ringState) []ShardHealth {
	out := make([]ShardHealth, len(st.nodes))
	for i, c := range st.nodes {
		h := ShardHealth{
			Name:             c.node.Name,
			Addr:             c.node.Addr,
			Healthy:          c.healthy.Load(),
			Labels:           c.lastLabels.Load(),
			Mismatched:       c.mismatched.Load(),
			Draining:         c.draining.Load(),
			NonAuthoritative: c.lastFlags.Load()&PongNonAuthoritative != 0,
			Generation:       c.lastGen.Load(),
			GenLagged:        c.genLagged.Load(),
		}
		if c.breaker != nil {
			state, _ := c.breaker.snapshot()
			h.Breaker = state.String()
		}
		out[i] = h
	}
	return out
}

// HealthJSON is Health as the server's LabelSource wants it: a
// JSON-marshalable fragment for /healthz.
func (f *Frontend) HealthJSON() any { return f.Health() }

// Label fetches and decodes the label of v, serving repeats from the
// decoded-label cache. Authoritative absence wraps core.ErrNoLabel, as
// labelstore's does; unreachable replicas surface as a distinct error
// the server demotes to degraded mode for fault labels.
func (f *Frontend) Label(ctx context.Context, v int) (*core.Label, error) {
	return f.labelAt(ctx, f.state.Load(), v)
}

// labelAt is Label against a pinned ring state: cache lookups and the
// scatter both resolve against st's generation, so the answer is
// guaranteed to come from that generation even if a swap flips the
// frontend mid-call.
func (f *Frontend) labelAt(ctx context.Context, st *ringState, v int) (*core.Label, error) {
	if v < 0 || v >= f.n {
		return nil, fmt.Errorf("cluster: %w %d: out of range [0,%d)", core.ErrNoLabel, v, f.n)
	}
	if l, ok := f.labelCache.Get(labelKey{st.gen, int32(v)}); ok {
		f.met.labelHits.Add(1)
		return l, nil
	}
	if _, ok := f.negCache.Get(labelKey{st.gen, int32(v)}); ok {
		f.met.negHits.Add(1)
		return nil, fmt.Errorf("cluster: %w %d", core.ErrNoLabel, v)
	}
	f.met.labelMisses.Add(1)
	res := f.scatterFetch(ctx, st, []int32{int32(v)})
	r := res[int32(v)]
	switch {
	case r.label != nil:
		return r.label, nil
	case r.absent:
		return nil, fmt.Errorf("cluster: %w %d", core.ErrNoLabel, v)
	case r.err != nil:
		return nil, fmt.Errorf("cluster: label for vertex %d unavailable: %w", v, r.err)
	default:
		return nil, fmt.Errorf("cluster: label for vertex %d unavailable", v)
	}
}

// Prefetch warms the label cache for a batch of vertices with one
// scatter-gather across the owning shards — the server calls this with
// {s,t} ∪ F before answering a batch, so the per-label Label calls that
// follow are cache hits. It returns the number of requested vertices
// left unresolved (fetch failures), so the caller can decide whether a
// retry is worth it; the error semantics themselves stay on the
// per-label path.
func (f *Frontend) Prefetch(ctx context.Context, ids []int) int {
	return f.prefetchAt(ctx, f.state.Load(), ids)
}

// prefetchAt is Prefetch against a pinned ring state.
func (f *Frontend) prefetchAt(ctx context.Context, st *ringState, ids []int) int {
	miss := make([]int32, 0, len(ids))
	seen := make(map[int32]struct{}, len(ids))
	for _, v := range ids {
		if v < 0 || v >= f.n {
			continue
		}
		iv := int32(v)
		if _, dup := seen[iv]; dup {
			continue
		}
		seen[iv] = struct{}{}
		if _, ok := f.labelCache.Get(labelKey{st.gen, iv}); ok {
			f.met.labelHits.Add(1)
			continue
		}
		if _, ok := f.negCache.Get(labelKey{st.gen, iv}); ok {
			f.met.negHits.Add(1)
			continue
		}
		f.met.labelMisses.Add(1)
		miss = append(miss, iv)
	}
	if len(miss) == 0 {
		return 0
	}
	unresolved := 0
	for _, r := range f.scatterFetch(ctx, st, miss) {
		if r.err != nil {
			unresolved++
		}
	}
	return unresolved
}

// PinLabels pins label resolution to the frontend's current ring state
// and label generation, returning Label- and Prefetch-shaped closures
// that resolve every vertex against that one generation. The serving
// tier acquires a pin per query batch so a generation swap landing
// mid-batch can never mix labels of two generations inside one decode —
// a mix that is actively unsound: a fault label whose protected balls
// describe the new graph cannot be trusted to guard sketch edges taken
// from an old-generation endpoint label (and vice versa). Shards retain
// the previous generation store precisely so these pinned fetches keep
// completing across the swap.
func (f *Frontend) PinLabels() (func(context.Context, int) (*core.Label, error), func(context.Context, []int) int) {
	st := f.state.Load()
	return func(ctx context.Context, v int) (*core.Label, error) {
			return f.labelAt(ctx, st, v)
		}, func(ctx context.Context, ids []int) int {
			return f.prefetchAt(ctx, st, ids)
		}
}

// fetchResult is the outcome of one vertex's fetch: exactly one of
// label (decoded), absent (authoritative miss from its owner) or err
// (every replica unreachable) is set.
type fetchResult struct {
	label  *core.Label
	absent bool
	err    error
}

// scatterFetch resolves each vertex to its replica chain on st's ring
// and fetches all of them concurrently, one RPC per involved shard per
// round, each answer decoded on the goroutine that fetched it (a record
// that does not decode counts as a failed attempt for its vertex).
// Failed attempts advance to the next replica, spending the
// retry budget; the hedge timer duplicates still-inflight work to the
// next replica once, also on budget. Successes (and authoritative
// misses) land in the caches under st's generation. The caller passes
// one pinned ring state, so a concurrent membership or generation swap
// never splits one fetch across rings or generations.
func (f *Frontend) scatterFetch(ctx context.Context, st *ringState, ids []int32) map[int32]fetchResult {
	out := make(map[int32]fetchResult, len(ids))
	type pendState struct {
		owners   []int
		next     int // next owner index to try
		inflight int // outstanding RPCs covering this id
	}
	pending := make(map[int32]*pendState, len(ids))
	ownerBuf := make([]int, 0, 8)
	maxCalls := 0
	for _, v := range ids {
		ownerBuf = st.ring.Owners(v, ownerBuf[:0])
		pending[v] = &pendState{owners: slices.Clone(ownerBuf)}
		maxCalls += len(ownerBuf) + 1
	}

	type groupResp struct {
		ids    []int32
		recs   map[int32]LabelRecord
		labels map[int32]*core.Label // the present records that decoded
		err    error
	}
	// Buffered so abandoned calls (context cancel) never block their
	// goroutines.
	respCh := make(chan groupResp, maxCalls)
	inflightCalls := 0

	// chooseOwner picks the first routable untried owner — healthy, not
	// draining, breaker willing — falling back to the first untried one
	// when none qualify: a probe may be stale, and that leaked request
	// doubles as a recovery probe for an open breaker. Returns -1 when
	// the chain is exhausted.
	chooseOwner := func(ps *pendState) int {
		now := time.Now()
		for i := ps.next; i < len(ps.owners); i++ {
			c := st.nodes[ps.owners[i]]
			if c.healthy.Load() && !c.draining.Load() &&
				(c.breaker == nil || c.breaker.allow(now)) {
				return i
			}
		}
		if ps.next < len(ps.owners) {
			return ps.next
		}
		return -1
	}

	launch := func(hedge bool) {
		groups := make(map[int][]int32)
		for v, ps := range pending {
			if hedge != (ps.inflight > 0) {
				// Normal rounds (re)launch idle ids; the hedge round
				// duplicates in-flight ones.
				continue
			}
			if ps.next == 0 && !hedge {
				// First attempt for this id: free, and it funds the budget.
				if f.budget != nil {
					f.budget.earn()
				}
			} else {
				// Retry (replica advance) or hedge: costs a token. A denied
				// retry exhausts the chain — failing fast is the point of
				// the budget; a denied hedge just leaves the primary
				// attempt in flight.
				if f.budget != nil && !f.budget.spend() {
					f.met.budgetDenied.Add(1)
					if !hedge {
						ps.next = len(ps.owners)
					}
					continue
				}
				f.met.budgetSpent.Add(1)
				if !hedge {
					f.met.retries.Add(1)
				}
			}
			idx := chooseOwner(ps)
			if idx < 0 {
				continue
			}
			if ps.next == 0 && idx > 0 {
				f.met.failovers.Add(1)
			}
			ps.next = idx + 1
			ps.inflight++
			groups[ps.owners[idx]] = append(groups[ps.owners[idx]], v)
		}
		for node, gids := range groups {
			inflightCalls++
			f.met.fetchCalls.Add(1)
			if hedge {
				f.met.hedges.Add(1)
			}
			go func(c *shardClient, gids []int32) {
				recs, err := c.getLabels(ctx, gids, f.n, st.gen)
				// Feed the breaker fetch outcomes, except failures caused
				// by our own context ending — those say nothing about the
				// shard.
				if c.breaker != nil && (err == nil || ctx.Err() == nil) {
					c.breaker.record(time.Now(), err == nil)
				}
				var labels map[int32]*core.Label
				var unparsable []int32
				if err == nil {
					labels, unparsable = f.decodeRecords(ctx, st, c, recs)
				}
				respCh <- groupResp{ids: gids, recs: recs, labels: labels, err: err}
				if len(unparsable) > 0 {
					f.condemn(context.WithoutCancel(ctx), st, c, unparsable)
				}
			}(st.nodes[node], gids)
		}
	}

	launch(false)
	var hedgeC <-chan time.Time
	if f.cfg.HedgeDelay > 0 && inflightCalls > 0 {
		tm := time.NewTimer(f.cfg.HedgeDelay)
		defer tm.Stop()
		hedgeC = tm.C
	}
	// Return as soon as every id is resolved: a hedged win must not wait
	// for the slow call it raced (the buffered channel lets stragglers
	// finish without blocking).
	for len(pending) > 0 && inflightCalls > 0 {
		select {
		case r := <-respCh:
			inflightCalls--
			for _, v := range r.ids {
				ps, ok := pending[v]
				if !ok {
					continue // already resolved by a racing attempt
				}
				ps.inflight--
				if r.err != nil {
					continue
				}
				rec, ok := r.recs[v]
				if !ok {
					continue // shard skipped it; treat as a failed attempt
				}
				if rec.Unknown {
					// Salvage-lost (or bootstrap) on that replica: not an
					// authoritative absence, so treat it like a failed
					// attempt and let the relaunch below advance to the next
					// replica. Crucially it must NOT enter the negative
					// cache — intact replicas may still hold the label. It
					// is, however, a repair hint: that replica is missing a
					// record it should own.
					f.noteUnknown(v)
					continue
				}
				// Cache under the generation this scatter is pinned to: with
				// generation-keyed entries the put is safe even when a swap
				// has flipped and flushed meanwhile — a stale scatter's
				// answer lands under the old generation's key, which nothing
				// reads anymore.
				if !rec.Present {
					f.negCache.Put(labelKey{st.gen, v}, struct{}{})
					out[v] = fetchResult{absent: true}
					delete(pending, v)
					continue
				}
				l := r.labels[v]
				if l == nil {
					continue // corrupt copy (counted by cause); another replica may be intact
				}
				f.labelCache.Put(labelKey{st.gen, v}, l)
				out[v] = fetchResult{label: l}
				delete(pending, v)
			}
			launch(false)
		case <-hedgeC:
			hedgeC = nil
			launch(true)
		case <-ctx.Done():
			for v := range pending {
				out[v] = fetchResult{err: ctx.Err()}
			}
			return out
		}
	}
	for v := range pending {
		f.met.unavailable.Add(1)
		out[v] = fetchResult{err: fmt.Errorf("all %d replicas unreachable", st.ring.Replication())}
	}
	return out
}

// noteUnknown records a repair hint: some replica answered Unknown for
// v, meaning it should own the record but cannot serve it.
func (f *Frontend) noteUnknown(v int32) {
	if f.rep != nil {
		f.rep.noteUnknown(v)
	}
}

// learnedN returns the vertex space reported by any healthy shard.
func (f *Frontend) learnedN(st *ringState) (int, bool) {
	for _, c := range st.nodes {
		if c.healthy.Load() && c.lastN.Load() > 0 {
			return int(c.lastN.Load()), true
		}
	}
	return 0, false
}

func (f *Frontend) healthLoop() {
	defer f.done.Done()
	for {
		// ±20% jitter: a fleet of frontends (or a frontend and a fleet of
		// repairers) must not probe every shard at the same instant.
		t := time.NewTimer(backoff.Jittered(f.cfg.HealthInterval, 0.2))
		select {
		case <-f.stop:
			t.Stop()
			return
		case <-t.C:
			f.sweepHealth()
		}
	}
}

// sweepHealth pings every shard in parallel and updates their health
// bits and vitals. A shard that answers but reports a different vertex
// space than the cluster's is serving a partition from a different
// store: it is excluded from routing (every fetch to it would fail the
// per-call n check anyway) and flagged mismatched so the
// misconfiguration surfaces in /metrics instead of as per-fetch
// transient errors.
func (f *Frontend) sweepHealth() {
	st := f.state.Load()
	var wg sync.WaitGroup
	for _, c := range st.nodes {
		wg.Add(1)
		go func(c *shardClient) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), f.cfg.HealthTimeout)
			defer cancel()
			n, labels, flags, gen, err := c.ping(ctx)
			if err != nil {
				c.healthy.Store(false)
				return
			}
			c.lastN.Store(int64(n))
			c.lastLabels.Store(int64(labels))
			c.lastFlags.Store(flags)
			c.lastGen.Store(gen)
			if f.n > 0 && n != f.n {
				c.mismatched.Store(true)
				c.healthy.Store(false)
				return
			}
			c.mismatched.Store(false)
			// Re-read the state: a swap may have flipped the generation
			// since this sweep loaded st, and catching a shard "up" to a
			// stale generation would only make it flap.
			if want := f.state.Load().gen; want > 0 && gen != want {
				// The shard lags the cluster's generation (it was down
				// during a swap, or restarted onto an older one). Try to
				// catch it up in place from its generation root; until it
				// holds the active generation it must not take traffic.
				if err := c.loadGeneration(want); err != nil {
					c.genLagged.Store(true)
					c.healthy.Store(false)
					return
				}
				c.lastGen.Store(want)
			}
			c.genLagged.Store(false)
			c.healthy.Store(true)
		}(c)
	}
	wg.Wait()
}

// shardClient is the frontend's stub for one shard: a small idle
// connection pool, health and breaker state, and per-shard metrics.
// Clients survive membership epochs — a swap reuses the same object for
// a surviving shard, so its pool, health history and breaker state
// carry over.
type shardClient struct {
	node Node
	cfg  FrontendConfig

	mu   sync.Mutex
	idle []net.Conn

	healthy    atomic.Bool
	mismatched atomic.Bool
	draining   atomic.Bool
	genLagged  atomic.Bool
	lastN      atomic.Int64
	lastLabels atomic.Int64
	lastFlags  atomic.Uint64
	lastGen    atomic.Uint64

	breaker *breaker // nil when disabled

	fetches     atomic.Int64
	fetchErrors atomic.Int64
	latency     *stats.Histogram
}

func newShardClient(nd Node, cfg FrontendConfig) *shardClient {
	c := &shardClient{
		node: nd,
		cfg:  cfg,
		// Seconds; spans same-host RPCs to cross-zone hops and timeouts.
		latency: stats.NewHistogram(
			0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
			0.025, 0.05, 0.1, 0.25, 0.5, 1),
	}
	if !cfg.breakerDisabled {
		c.breaker = newBreaker(breakerConfig{
			window:       cfg.breakerWindow,
			buckets:      breakerBuckets,
			minRequests:  cfg.breakerMinRequests,
			failureRatio: breakerFailureRatio,
			cooldown:     cfg.breakerCooldown,
			maxCooldown:  breakerMaxCooldown,
		})
	}
	return c
}

// maxRequestIDs bounds the ids carried by one label-request frame, so a
// request payload stays far below frame.MaxPayload no matter how large a
// prefetch gets (≤5 bytes per id ≈ 320 KiB at this cap). A var so tests
// can shrink it to force chunking.
var maxRequestIDs = 1 << 16

// getLabels fetches a batch of label records as stored, validating that
// the shard serves the expected vertex space. The request is tagged with
// the caller's label generation so a shard mid-swap answers from the
// matching store (or refuses) instead of silently mixing generations;
// generation 0 asks for whatever is current. Batches past maxRequestIDs
// split into sequential fetchLabels exchanges merged into one result.
func (c *shardClient) getLabels(ctx context.Context, ids []int32, wantN int, gen uint64) (map[int32]LabelRecord, error) {
	out := make(map[int32]LabelRecord, len(ids))
	for len(ids) > 0 {
		chunk := ids[:min(len(ids), maxRequestIDs)]
		ids = ids[len(chunk):]
		c.fetches.Add(1)
		start := time.Now()
		err := c.exchange(ctx, c.cfg.FetchTimeout, func(conn net.Conn) error {
			return fetchLabels(conn, "shard "+c.node.Name, OpGetLabelsStored, gen, chunk, wantN, out)
		})
		c.latency.Observe(time.Since(start).Seconds())
		if err != nil {
			c.fetchErrors.Add(1)
			return nil, err
		}
	}
	return out, nil
}

// fetchLabels runs one label-fetch exchange on conn — the one
// label-fetch client, under the frontend's pooled connections
// (OpGetLabelsStored) and under a shard's repair pull (OpGetLabelsGen)
// alike: the request for ids at generation gen, then the response
// reassembled from OpLabelsPart continuations closed by an OpLabels
// frame, each chunk checked against the expected vertex space and
// merged into out. Every chunk carries at least one record, so a
// well-behaved shard sends at most len(ids) continuations before the
// final frame; one more is an error. An OpError reply wraps
// errShardError and leaves the conversation in step; after any other
// error the connection is out of step and must be dropped. peer names
// the far end in the vertex-space error. The caller owns the deadline.
func fetchLabels(conn net.Conn, peer string, op byte, gen uint64, ids []int32, wantN int, out map[int32]LabelRecord) error {
	if err := frame.Write(conn, op, AppendGenLabelRequest(nil, gen, ids)); err != nil {
		return err
	}
	for parts := 0; ; parts++ {
		op, p, err := frame.Read(conn)
		if err != nil {
			return err
		}
		switch op {
		case OpLabels, OpLabelsPart:
			if op == OpLabelsPart && parts >= len(ids) {
				return fmt.Errorf("cluster: response exceeded %d frames", len(ids)+1)
			}
			n, recs, err := ParseLabelResponse(p)
			if err != nil {
				return err
			}
			if n != wantN {
				return fmt.Errorf("cluster: %s serves vertex space %d, want %d", peer, n, wantN)
			}
			for _, r := range recs {
				out[r.Vertex] = r
			}
			if op == OpLabels {
				return nil
			}
		case OpError:
			return fmt.Errorf("%w: %s", errShardError, p)
		default:
			return fmt.Errorf("cluster: unexpected response op %d", op)
		}
	}
}

// ping probes the shard and returns its vitals.
func (c *shardClient) ping(ctx context.Context) (n, labels int, flags, generation uint64, err error) {
	op, resp, err := c.call(ctx, OpPing, nil)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if op != OpPong {
		return 0, 0, 0, 0, fmt.Errorf("cluster: unexpected ping response op %d", op)
	}
	return parsePongChecked(resp)
}

func parsePongChecked(resp []byte) (n, labels int, flags, generation uint64, err error) {
	n, labels, flags, generation, err = ParsePong(resp)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if n <= 0 {
		return 0, 0, 0, 0, fmt.Errorf("cluster: pong reports empty vertex space")
	}
	return n, labels, flags, generation, nil
}

// loadGeneration tells the shard to activate a label generation from
// its generation root, confirming the activated id.
func (c *shardClient) loadGeneration(gen uint64) error {
	ctx, cancel := context.WithTimeout(context.Background(), genLoadTimeout)
	defer cancel()
	rop, resp, err := c.callTimeout(ctx, OpLoadGeneration, AppendGeneration(nil, gen), genLoadTimeout)
	if err != nil {
		return err
	}
	switch rop {
	case OpGenLoaded:
		got, err := ParseGeneration(resp)
		if err != nil {
			return err
		}
		if got != gen {
			return fmt.Errorf("cluster: shard %s activated generation %d, want %d", c.node.Name, got, gen)
		}
		return nil
	case OpError:
		return fmt.Errorf("%w: %s", errShardError, resp)
	default:
		return fmt.Errorf("cluster: unexpected load-generation response op %d", rop)
	}
}

// call performs one single-frame request/response exchange under the
// fetch timeout.
func (c *shardClient) call(ctx context.Context, op byte, payload []byte) (byte, []byte, error) {
	return c.callTimeout(ctx, op, payload, c.cfg.FetchTimeout)
}

// callTimeout is call with an explicit per-RPC timeout, for exchanges
// whose budget differs from a label fetch (repair pulls stream data and
// pace themselves, so they get a far longer leash).
func (c *shardClient) callTimeout(ctx context.Context, op byte, payload []byte, timeout time.Duration) (rop byte, resp []byte, err error) {
	err = c.exchange(ctx, timeout, func(conn net.Conn) error {
		xerr := frame.Write(conn, op, payload)
		if xerr == nil {
			rop, resp, xerr = frame.Read(conn)
		}
		return xerr
	})
	return rop, resp, err
}

// exchange runs one request/response conversation on a connection of
// the shard's pool, reusing an idle one when there is one. The
// connection goes back to the pool when fn succeeds or fails with an
// errShardError (the shard answered, in step); any other failure closes
// it. A stale pooled connection (closed by the peer between calls) is
// retried once on a fresh dial; any other transport failure marks the
// shard unhealthy until the next successful probe.
func (c *shardClient) exchange(ctx context.Context, timeout time.Duration, fn func(net.Conn) error) error {
	deadline := time.Now().Add(timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	for attempt := 0; ; attempt++ {
		conn, pooled, err := c.getConn(deadline)
		if err != nil {
			c.healthy.Store(false)
			return err
		}
		conn.SetDeadline(deadline)
		err = fn(conn)
		if err == nil || errors.Is(err, errShardError) {
			conn.SetDeadline(time.Time{})
			c.putConn(conn)
			return err
		}
		conn.Close()
		if pooled && attempt == 0 {
			continue // stale pooled conn; one retry on a fresh dial
		}
		c.healthy.Store(false)
		return err
	}
}

func (c *shardClient) getConn(deadline time.Time) (conn net.Conn, pooled bool, err error) {
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		conn = c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return conn, true, nil
	}
	c.mu.Unlock()
	timeout := c.cfg.DialTimeout
	if until := time.Until(deadline); until < timeout {
		timeout = until
	}
	if timeout <= 0 {
		return nil, false, context.DeadlineExceeded
	}
	conn, err = net.DialTimeout("tcp", c.node.Addr, timeout)
	return conn, false, err
}

func (c *shardClient) putConn(conn net.Conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.idle) >= maxIdleConns {
		conn.Close()
		return
	}
	c.idle = append(c.idle, conn)
}

func (c *shardClient) closeIdle() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, conn := range c.idle {
		conn.Close()
	}
	c.idle = nil
}
