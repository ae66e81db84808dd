package server

import (
	"errors"
	"fmt"

	"fsdl/internal/liveupdate"
)

// This file is the serving side of the live-update pipeline: mutation
// ingestion (/v1/mutate), compaction with a zero-downtime generation
// swap (/v1/compact) and the graceful WAL drain. The pipeline itself —
// WAL, delta semantics, generation builds — lives in
// internal/liveupdate; the server coordinates it with the query path,
// the result cache and (in cluster mode) the frontend's ring.

// ErrCompacting is returned when a compaction is already in flight;
// the HTTP layer maps it to 409 Conflict.
var ErrCompacting = errors.New("server: compaction already in flight")

// MutateState is the acknowledgement for an applied mutation batch.
// Exact reports whether queries are currently exact (no pending
// delta) — after a successful Mutate it is false until the next
// compaction.
type MutateState struct {
	Seq        uint64 `json:"seq"`
	Pending    int    `json:"pending"`
	Generation uint64 `json:"generation"`
	Exact      bool   `json:"exact"`
}

// Compaction modes accepted by CompactMode and the optional
// /v1/compact request body.
const (
	// CompactAuto builds incrementally when the previous generation's
	// build state is retained in memory and still current, and falls
	// back to a full rebuild otherwise. The default.
	CompactAuto = "auto"
	// CompactFull forces a from-scratch rebuild.
	CompactFull = "full"
	// CompactIncremental requires the delta-scoped path and errors when
	// no usable base generation is retained (e.g. right after a
	// restart) — for callers that would rather fail than eat a full
	// build.
	CompactIncremental = "incremental"
)

// CompactResult is the outcome of a completed compaction + swap.
type CompactResult struct {
	Generation uint64 `json:"generation"`
	Dir        string `json:"dir,omitempty"`
	Seq        uint64 `json:"seq"`
	// Pending counts delta edges that streamed in while the build ran
	// and thus survive into the next compaction window.
	Pending int `json:"pending"`
	// Epoch is the new ring epoch when the swap went through a cluster
	// frontend (0 for a local store swap).
	Epoch uint64 `json:"epoch,omitempty"`
	// Incremental reports that the delta-scoped build produced this
	// generation (byte-identical to a full build, but only DirtyLabels
	// labels were re-extracted).
	Incremental bool `json:"incremental,omitempty"`
	// DirtyLabels counts re-extracted labels (= n on a full build).
	DirtyLabels int `json:"dirty_labels,omitempty"`
	// Noop reports the empty-delta fast path: nothing was built or
	// swapped, and Generation/Seq describe the generation already
	// serving. A no-op is 200, not an error — the caller asked for the
	// delta to be baked and it (vacuously) is. Only a compaction
	// already in flight is a 409.
	Noop bool `json:"noop,omitempty"`
}

// Mutate applies an ordered edge-mutation batch atomically: every
// mutation is journaled (WAL fsynced) and folded into the live delta,
// or none is. The result cache and the shared frames are flushed — any
// cached answer may disagree with the mutated graph.
func (s *Server) Mutate(muts []liveupdate.Mutation) (MutateState, error) {
	if s.live == nil {
		return MutateState{}, fmt.Errorf("server: live updates disabled (start with a mutation pipeline)")
	}
	seq, err := s.live.Apply(muts)
	if err != nil {
		return MutateState{}, err
	}
	s.cache.Flush()
	s.frames.flush()
	s.met.cacheFlushes.Add(1)
	pending := s.live.Pending()
	return MutateState{
		Seq:        seq,
		Pending:    pending,
		Generation: s.live.Generation(),
		Exact:      pending == 0,
	}, nil
}

// Compact bakes the pending delta into the next label generation and
// swaps it into the serving path without dropping a query, choosing
// the build mode automatically. See CompactMode.
func (s *Server) Compact() (CompactResult, error) {
	return s.CompactMode(CompactAuto)
}

// CompactMode bakes the pending delta into the next label generation
// (delta-scoped or from scratch per mode) and swaps it into the
// serving path without dropping a query. One compaction runs at a
// time (ErrCompacting, HTTP 409, otherwise); mutations keep streaming
// in while the build runs and are reconciled by Commit afterwards. An
// empty delta short-circuits: nothing is built and the current
// generation is returned with Noop set (HTTP 200).
func (s *Server) CompactMode(mode string) (CompactResult, error) {
	switch mode {
	case "", CompactAuto, CompactFull, CompactIncremental:
	default:
		return CompactResult{}, fmt.Errorf("server: unknown compaction mode %q (want %q, %q or %q)", mode, CompactAuto, CompactFull, CompactIncremental)
	}
	if s.live == nil {
		return CompactResult{}, fmt.Errorf("server: live updates disabled (start with a mutation pipeline)")
	}
	if s.cfg.LiveRoot == "" {
		return CompactResult{}, fmt.Errorf("server: compaction needs a generation root directory")
	}
	if !s.live.BeginCompaction() {
		return CompactResult{}, ErrCompacting
	}
	defer s.live.EndCompaction()

	// Empty-delta fast path: the delta the caller wants baked is
	// already (vacuously) baked, so don't burn a build or bump the
	// generation. The check sits inside BeginCompaction so it can't
	// race a concurrent mutation batch into a half-observed window.
	if s.live.Pending() == 0 {
		return CompactResult{Generation: s.live.Generation(), Seq: s.live.Seq(), Noop: true}, nil
	}

	prev := s.retainedPrev(mode)
	if mode == CompactIncremental && prev == nil {
		return CompactResult{}, fmt.Errorf("server: incremental compaction has no base: the previous generation's build state is not retained (run one full compaction first)")
	}

	res, err := liveupdate.Compact(s.live, s.cfg.LiveRoot, liveupdate.CompactOptions{
		Epsilon:    s.cfg.Epsilon,
		Partitions: s.cfg.Partitions,
		Prev:       prev,
	})
	if err != nil {
		return CompactResult{}, err
	}
	out := CompactResult{
		Generation:  res.Snapshot.Generation,
		Dir:         res.Dir,
		Seq:         res.Snapshot.Seq,
		Incremental: res.Incremental,
		DirtyLabels: res.DirtyLabels,
	}

	// Swap before Commit. Between the two, queries see the new labels
	// with the old delta still applied — re-forbidding already-removed
	// edges and re-patching already-baked insertions is harmless (the
	// answers stay sound upper bounds). Committing first would briefly
	// pair the old labels with an empty delta and claim an exactness
	// the old generation cannot provide.
	if out.Epoch, err = s.src.SwapGeneration(res.Snapshot.Generation, res.Store); err != nil {
		return CompactResult{}, fmt.Errorf("server: swap to generation %d: %w", res.Snapshot.Generation, err)
	}
	if err := s.live.Commit(res.Snapshot); err != nil {
		return CompactResult{}, err
	}
	s.prevMu.Lock()
	s.prevGen = res
	s.prevMu.Unlock()
	s.cache.Flush()
	s.frames.flush()
	s.met.cacheFlushes.Add(1)
	out.Pending = s.live.Pending()
	return out, nil
}

// retainedPrev returns the retained previous-generation build state as
// an incremental base, or nil when the mode forbids it or the
// retained result no longer matches the pipeline's generation (a
// compaction that failed mid-swap, or none yet this process).
func (s *Server) retainedPrev(mode string) *liveupdate.PrevGeneration {
	if mode == CompactFull {
		return nil
	}
	s.prevMu.Lock()
	prev := s.prevGen
	s.prevMu.Unlock()
	if prev == nil || prev.Snapshot.Generation != s.live.Generation() {
		return nil
	}
	return &liveupdate.PrevGeneration{
		Generation: prev.Snapshot.Generation,
		Scheme:     prev.Scheme,
		Store:      prev.Store,
	}
}

// Close drains the live pipeline: the mutation WAL is fsynced and
// closed, so every acknowledged mutation is durable before the
// process exits. A server without a pipeline closes trivially.
func (s *Server) Close() error {
	if s.live == nil {
		return nil
	}
	return s.live.Close()
}

// WALFlushedTotal reports completed mutation-WAL fsyncs — the final
// value fsdl-serve logs on SIGTERM so operators can reconcile the
// drain against their scrape history. 0 without a pipeline or WAL.
func (s *Server) WALFlushedTotal() int64 {
	if s.live == nil {
		return 0
	}
	return s.live.WALFlushedTotal()
}
