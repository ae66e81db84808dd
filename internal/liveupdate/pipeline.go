package liveupdate

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"fsdl/internal/graph"
)

// edge is a normalized undirected edge key (smaller endpoint first).
type edge [2]int32

func edgeOf(u, v int32) edge {
	if u > v {
		u, v = v, u
	}
	return edge{u, v}
}

// Config configures a Pipeline.
type Config struct {
	// Base is the graph the currently served label generation was
	// built on.
	Base *graph.Graph
	// WALPath journals every accepted mutation when non-empty; empty
	// keeps the delta in memory only (tests, ephemeral servers).
	WALPath string
	// Generation is the id of the served generation (1 when booting
	// from a plain offline store). A newer generation found in the WAL's
	// compaction markers wins.
	Generation uint64
}

// Metrics is a snapshot of the pipeline's counters.
type Metrics struct {
	Inserts, Deletes int64 // mutations accepted, by kind
	Rejected         int64 // mutations refused by validation
	Compactions      int64 // generations baked by this pipeline
	WALFlushes       int64 // fsyncs completed (0 without a WAL)
	WALSegments      int   // sealed WAL segments retained (0 without a WAL)
	Pending          int   // delta edges not yet baked into labels
	Seq              uint64
	CompactedSeq     uint64
	Generation       uint64
}

// Pipeline tracks the live delta between the graph a label generation
// was built on and the graph the stream has mutated it into. It is the
// single writer of the WAL and safe for concurrent use: queries read
// the delta (soft faults + patches) under a read lock while mutation
// batches and compaction commits take the write lock.
type Pipeline struct {
	mu   sync.RWMutex
	base *graph.Graph
	wal  *WAL

	// inserted holds edges present in the live graph but not in base;
	// deleted holds base edges removed from the live graph. An edge is
	// never in both.
	inserted map[edge]struct{}
	deleted  map[edge]struct{}

	seq          uint64 // last applied mutation sequence
	compactedSeq uint64 // last sequence baked into a generation
	generation   uint64 // served generation id

	compacting atomic.Bool

	inserts, deletes, rejected, compactions atomic.Int64
}

// Open creates a pipeline over cfg.Base, replaying cfg.WALPath when it
// exists: mutations journaled after the last compaction marker are
// re-applied to the delta, so a restart resumes exactly where the
// crash (or drain) left off.
func Open(cfg Config) (*Pipeline, error) {
	if cfg.Base == nil {
		return nil, fmt.Errorf("liveupdate: pipeline needs a base graph")
	}
	gen := cfg.Generation
	if gen == 0 {
		gen = 1
	}
	p := &Pipeline{
		base:       cfg.Base,
		inserted:   make(map[edge]struct{}),
		deleted:    make(map[edge]struct{}),
		generation: gen,
	}
	if cfg.WALPath == "" {
		return p, nil
	}
	wal, recs, err := OpenWAL(cfg.WALPath)
	if err != nil {
		return nil, err
	}
	// Find the last compaction marker: everything at or before its
	// sequence is already baked into the generation the caller loaded.
	for _, r := range recs {
		if r.Compaction {
			p.compactedSeq = r.Seq
			if r.Generation > p.generation {
				p.generation = r.Generation
			}
		}
	}
	for _, r := range recs {
		if r.Compaction || r.Seq <= p.compactedSeq {
			continue
		}
		if err := p.applyLocked(r.Mut); err != nil {
			return nil, fmt.Errorf("liveupdate: wal replay: seq %d %s(%d,%d): %w", r.Seq, r.Mut.Op, r.Mut.U, r.Mut.V, err)
		}
		p.seq = r.Seq
	}
	if wal.Seq() > p.seq {
		p.seq = wal.Seq()
	}
	p.wal = wal
	return p, nil
}

// validate checks a mutation against the current effective graph: the
// base under the delta and, when a batch is being checked, under the
// batch's overlay on top — +1 marks an edge the batch has made live, -1
// one it has removed, and on success the mutation's own effect is
// recorded there. A nil overlay is the delta alone, for callers that
// fold each mutation before validating the next.
func (p *Pipeline) validate(m Mutation, overlay map[edge]int8) error {
	n := int32(p.base.NumVertices())
	if m.U < 0 || m.U >= n || m.V < 0 || m.V >= n {
		return fmt.Errorf("vertex out of range [0,%d)", n)
	}
	if m.U == m.V {
		return fmt.Errorf("self-loop")
	}
	e := edgeOf(m.U, m.V)
	var live bool
	if s, ok := overlay[e]; ok {
		live = s > 0
	} else if _, ins := p.inserted[e]; ins {
		live = true
	} else {
		_, del := p.deleted[e]
		live = !del && p.base.HasEdge(int(e[0]), int(e[1]))
	}
	var effect int8
	switch m.Op {
	case MutInsert:
		if live {
			return fmt.Errorf("edge already exists")
		}
		effect = 1
	case MutDelete:
		if !live {
			return fmt.Errorf("edge does not exist")
		}
		effect = -1
	default:
		return fmt.Errorf("unknown mutation op %d", m.Op)
	}
	if overlay != nil {
		overlay[e] = effect
	}
	return nil
}

// applyLocked validates m and folds it into the delta maps. Callers
// hold the write lock (or own the pipeline exclusively, during Open).
func (p *Pipeline) applyLocked(m Mutation) error {
	if err := p.validate(m, nil); err != nil {
		return err
	}
	foldMutation(p.inserted, p.deleted, m)
	if m.Op == MutInsert {
		p.inserts.Add(1)
	} else {
		p.deletes.Add(1)
	}
	return nil
}

// foldMutation applies a validated mutation to the delta maps. A
// re-insert of a deleted base edge cancels the deletion; a delete of a
// not-yet-baked insert cancels the insertion; otherwise the edge joins
// the corresponding set.
func foldMutation(inserted, deleted map[edge]struct{}, m Mutation) {
	e := edgeOf(m.U, m.V)
	switch m.Op {
	case MutInsert:
		if _, ok := deleted[e]; ok {
			delete(deleted, e)
		} else {
			inserted[e] = struct{}{}
		}
	case MutDelete:
		if _, ok := inserted[e]; ok {
			delete(inserted, e)
		} else {
			deleted[e] = struct{}{}
		}
	}
}

// Apply validates and applies a mutation batch atomically: either
// every mutation is journaled and folded into the delta, or none is
// and the error names the first offender. Returns the sequence number
// of the last mutation applied. The WAL is fsynced before Apply
// returns, so an acknowledged batch survives a crash; the fsync
// happens outside the pipeline lock, so concurrent batches ride one
// group-commit flush instead of queueing a disk flush each. (On an
// fsync failure the batch stays applied and journaled but is NOT
// acknowledged — the caller must treat its durability as unknown.)
func (p *Pipeline) Apply(muts []Mutation) (seq uint64, err error) {
	if len(muts) == 0 {
		p.mu.RLock()
		defer p.mu.RUnlock()
		return p.seq, nil
	}
	p.mu.Lock()
	// Validate the whole batch against a batch-local overlay before
	// touching the delta: a batch may legitimately delete an edge it
	// just inserted, so validation must see earlier batch entries,
	// yet a mid-batch failure must leave no trace. The overlay is
	// O(batch), never a clone of the delta maps.
	overlay := make(map[edge]int8, len(muts))
	for i, m := range muts {
		if err := p.validate(m, overlay); err != nil {
			p.rejected.Add(int64(len(muts)))
			p.mu.Unlock()
			return p.seq, fmt.Errorf("liveupdate: mutation %d %s(%d,%d): %w", i, m.Op, m.U, m.V, err)
		}
	}
	var nIns, nDel int64
	for _, m := range muts {
		foldMutation(p.inserted, p.deleted, m)
		if m.Op == MutInsert {
			nIns++
		} else {
			nDel++
		}
	}
	wal := p.wal
	if wal != nil {
		if seq, err = wal.Append(muts); err != nil {
			// The fold is already journal-ordered; an append failure
			// means the file is unusable, so fail the batch without
			// pretending the state rolled back.
			p.mu.Unlock()
			return seq, err
		}
		p.seq = seq
	} else {
		p.seq += uint64(len(muts))
		seq = p.seq
	}
	p.inserts.Add(nIns)
	p.deletes.Add(nDel)
	p.mu.Unlock()
	if wal != nil {
		if err := wal.Sync(); err != nil {
			return seq, err
		}
	}
	return seq, nil
}

// Pending reports how many delta edges are not yet baked into the
// served generation. Zero means queries are exact again.
func (p *Pipeline) Pending() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.inserted) + len(p.deleted)
}

// FaultEdges returns the deleted edges as sorted pairs — the implicit
// soft faults the server merges into every query's fault set so
// answers stay upper bounds on d_{G\F} the moment a deletion lands.
// A query reads them with the inserts, through Delta.
func (p *Pipeline) FaultEdges() [][2]int32 {
	fe, _ := p.Delta()
	return fe
}

// Patches returns the inserted edges as sorted pairs — the query-time
// shortcut candidates (d(s,u) + 1 + d(v,t)) that let answers reflect
// insertions before compaction bakes them in. A query reads them with
// the deletions, through Delta.
func (p *Pipeline) Patches() [][2]int32 {
	_, patches := p.Delta()
	return patches
}

// Delta returns FaultEdges and Patches read under one lock: the deleted
// and the inserted edges of one state of the delta. A query must take
// both from one state — deletions of one batch beside the inserts of the
// next can route through both and answer below d_{G'\F} in either.
func (p *Pipeline) Delta() (faultEdges, patches [][2]int32) {
	p.mu.RLock()
	faultEdges = make([][2]int32, 0, len(p.deleted))
	for e := range p.deleted {
		faultEdges = append(faultEdges, e)
	}
	patches = make([][2]int32, 0, len(p.inserted))
	for e := range p.inserted {
		patches = append(patches, e)
	}
	p.mu.RUnlock()
	sortEdges(faultEdges)
	sortEdges(patches)
	return faultEdges, patches
}

func sortEdges(es [][2]int32) {
	slices.SortFunc(es, func(a, b [2]int32) int {
		if a[0] != b[0] {
			return int(a[0]) - int(b[0])
		}
		return int(a[1]) - int(b[1])
	})
}

// Snapshot is a consistent view of the pipeline taken for compaction.
type Snapshot struct {
	// Graph is the effective live graph: base minus deleted plus
	// inserted edges.
	Graph *graph.Graph
	// Seq is the last mutation sequence the snapshot includes.
	Seq uint64
	// Generation is the id the build from this snapshot will carry.
	Generation uint64
	// Mutated lists, sorted, the normalized edges by which Graph
	// differs from the base the served generation was built on — the
	// delta an incremental compaction scopes its rebuild to.
	Mutated [][2]int32
}

// Snapshot materializes the effective graph and the sequence fence a
// compaction will bake in. Mutations keep streaming in while the
// build runs; Commit reconciles them.
func (p *Pipeline) Snapshot() (*Snapshot, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	b := graph.NewBuilder(p.base.NumVertices())
	p.base.ForEachEdge(func(u, v int) {
		if _, ok := p.deleted[edgeOf(int32(u), int32(v))]; !ok {
			b.AddEdge(u, v)
		}
	})
	for e := range p.inserted {
		b.AddEdge(int(e[0]), int(e[1]))
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("liveupdate: build effective graph: %w", err)
	}
	mutated := make([][2]int32, 0, len(p.inserted)+len(p.deleted))
	for e := range p.inserted {
		mutated = append(mutated, e)
	}
	for e := range p.deleted {
		mutated = append(mutated, e)
	}
	sortEdges(mutated)
	return &Snapshot{Graph: g, Seq: p.seq, Generation: p.generation + 1, Mutated: mutated}, nil
}

// BeginCompaction claims the single compaction slot; it returns false
// when another compaction is already running.
func (p *Pipeline) BeginCompaction() bool { return p.compacting.CompareAndSwap(false, true) }

// EndCompaction releases the slot claimed by BeginCompaction.
func (p *Pipeline) EndCompaction() { p.compacting.Store(false) }

// Compacting reports whether a compaction is in flight.
func (p *Pipeline) Compacting() bool { return p.compacting.Load() }

// Commit installs a completed compaction: the snapshot's graph becomes
// the new base, delta entries the build baked in are dropped (entries
// from mutations that streamed in during the build survive, keyed
// against the new base), the generation advances, and a compaction
// marker is journaled so a restart replays only what is still
// pending.
func (p *Pipeline) Commit(snap *Snapshot) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if snap.Generation <= p.generation {
		return fmt.Errorf("liveupdate: commit of stale generation %d (serving %d)", snap.Generation, p.generation)
	}
	newBase := snap.Graph
	for e := range p.inserted {
		if newBase.HasEdge(int(e[0]), int(e[1])) {
			delete(p.inserted, e) // baked in
		}
	}
	for e := range p.deleted {
		if !newBase.HasEdge(int(e[0]), int(e[1])) {
			delete(p.deleted, e) // baked out
		}
	}
	prevFence := p.compactedSeq
	p.base = newBase
	p.generation = snap.Generation
	p.compactedSeq = snap.Seq
	p.compactions.Add(1)
	if p.wal != nil {
		if err := p.wal.AppendCompaction(snap.Generation, snap.Seq); err != nil {
			return err
		}
		// The marker sealed the active segment. Segments fully at or
		// below the displaced generation's fence are no longer needed
		// to rebuild anything still live (shards retain the current
		// and previous generation), so retention follows the oldest
		// live generation.
		if _, err := p.wal.Prune(prevFence); err != nil {
			return err
		}
	}
	return nil
}

// Base returns the graph the served generation was built on.
func (p *Pipeline) Base() *graph.Graph {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.base
}

// Generation returns the served generation id.
func (p *Pipeline) Generation() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.generation
}

// Seq returns the last applied mutation sequence.
func (p *Pipeline) Seq() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.seq
}

// Close fsyncs and closes the WAL (no-op without one) — the graceful
// drain path.
func (p *Pipeline) Close() error {
	if p.wal == nil {
		return nil
	}
	return p.wal.Close()
}

// WALFlushedTotal reports completed WAL fsyncs (0 without a WAL).
func (p *Pipeline) WALFlushedTotal() int64 {
	if p.wal == nil {
		return 0
	}
	return p.wal.FlushedTotal()
}

// Sync fsyncs the WAL (no-op without one).
func (p *Pipeline) Sync() error {
	if p.wal == nil {
		return nil
	}
	return p.wal.Sync()
}

// WALStats summarizes the journal's segment state (zero value and
// false without a WAL).
func (p *Pipeline) WALStats() (WALStats, bool) {
	if p.wal == nil {
		return WALStats{}, false
	}
	return p.wal.Stats(), true
}

// MetricsSnapshot returns the pipeline's counters.
func (p *Pipeline) MetricsSnapshot() Metrics {
	p.mu.RLock()
	m := Metrics{
		Pending:      len(p.inserted) + len(p.deleted),
		Seq:          p.seq,
		CompactedSeq: p.compactedSeq,
		Generation:   p.generation,
	}
	p.mu.RUnlock()
	m.Inserts = p.inserts.Load()
	m.Deletes = p.deletes.Load()
	m.Rejected = p.rejected.Load()
	m.Compactions = p.compactions.Load()
	m.WALFlushes = p.WALFlushedTotal()
	if ws, ok := p.WALStats(); ok {
		m.WALSegments = ws.Segments
	}
	return m
}
