package server

import (
	"context"
	"strings"
	"sync/atomic"

	"fsdl/internal/core"
	"fsdl/internal/labelstore"
)

// LabelSource is where the server gets labels from: a local
// labelstore.Store or a cluster frontend scatter-gathering them from
// shards. The query path is identical either way — decode happens here,
// next to the query — which is exactly the property that lets the label
// space shard: a query needs only the labels of s, t and F, never the
// graph.
//
// Label must honor ctx: a remote source returns promptly with ctx.Err()
// when the caller is gone. Errors containing "no label for vertex" are
// authoritative absence (mapped to 404 and degraded-fault handling);
// anything else is treated as transient unavailability.
type LabelSource interface {
	NumVertices() int
	NumLabels() int
	Label(ctx context.Context, v int) (*core.Label, error)
	LabelCacheStats() (hits, misses int64)
}

// Optional LabelSource capabilities, discovered structurally so this
// package never imports the cluster package.
type (
	// Prefetcher warms a batch of labels in one round trip, returning
	// how many requested vertices it failed to resolve. The server calls
	// it with every distinct vertex a batch will touch before answering
	// pair by pair, retrying a couple of times with jittered backoff
	// while vertices remain unresolved; persistent failures simply
	// resurface on the per-label path.
	Prefetcher interface {
		Prefetch(ctx context.Context, ids []int) int
	}
	// MetricsWriter appends source-specific Prometheus exposition to the
	// server's /metrics output.
	MetricsWriter interface {
		WriteMetrics(sb *strings.Builder)
	}
	// HealthReporter contributes a JSON-marshalable fragment to
	// /healthz (e.g. per-shard health).
	HealthReporter interface {
		HealthJSON() any
	}
	// ClusterAdmin exposes membership control and the cluster status
	// snapshot. A source that implements it gets the /v1/cluster/*
	// admin endpoints. Join/Leave/Drain return the new ring epoch;
	// StatusJSON returns a JSON-marshalable snapshot served as-is.
	ClusterAdmin interface {
		Join(name, addr string) (uint64, error)
		Leave(name string) (uint64, error)
		Drain(name string, drain bool) (uint64, error)
		StatusJSON() any
	}
	// LabelPinner pins label resolution to the source's current label
	// generation: the returned closures mirror Label and Prefetch (the
	// prefetch closure may be nil) but resolve every vertex against the
	// one generation that was current at pin time. The server pins once
	// per batch — after reading the live delta, so an empty delta
	// implies the pinned generation already has it baked in — which
	// keeps a generation swap landing mid-batch from mixing labels of
	// two generations inside one decode. Mixed generations are unsound:
	// a fault label's protected balls describe one graph's distances
	// and cannot guard sketch edges taken from another's.
	LabelPinner interface {
		PinLabels() (label func(context.Context, int) (*core.Label, error), prefetch func(context.Context, []int) int)
	}
	// GenerationSwapper coordinates versioned label-generation swaps: a
	// cluster frontend has every shard load the named generation from
	// its generation root, then atomically re-routes (returning the new
	// ring epoch). Compaction uses it to swap the freshly baked
	// generation in without dropping in-flight queries.
	GenerationSwapper interface {
		Generation() uint64
		SwapGeneration(gen uint64) (uint64, error)
	}
	// ScopedGenerationSwapper is a GenerationSwapper that can flip a
	// generation while reloading from disk only the shards the
	// compaction reported changed; every other shard re-tags the
	// byte-identical partition it already serves. Incremental
	// compaction routes its swap here so an ε-sized delta costs an
	// ε-sized flip. cluster.Frontend implements it.
	ScopedGenerationSwapper interface {
		GenerationSwapper
		SwapGenerationScoped(gen uint64, changed []string) (uint64, error)
	}
)

// storeSource adapts the in-process labelstore.Store to LabelSource.
// Lookups never block, so ctx is ignored. The store pointer is atomic
// so a compaction can swap the next label generation in under live
// queries — each lookup is served whole from whichever generation it
// loads, no lock, no torn reads.
type storeSource struct {
	st atomic.Pointer[labelstore.Store]
}

func newStoreSource(st *labelstore.Store) *storeSource {
	s := &storeSource{}
	s.st.Store(st)
	return s
}

func (s *storeSource) NumVertices() int { return s.st.Load().NumVertices() }
func (s *storeSource) NumLabels() int   { return s.st.Load().NumLabels() }
func (s *storeSource) Label(_ context.Context, v int) (*core.Label, error) {
	return s.st.Load().Label(v)
}
func (s *storeSource) LabelCacheStats() (int64, int64) { return s.st.Load().LabelCacheStats() }

// PinLabels pins lookups to the store generation loaded at pin time,
// so a batch straddling a Swap answers every query from one
// generation. No prefetch: local lookups are already single-hop.
func (s *storeSource) PinLabels() (func(context.Context, int) (*core.Label, error), func(context.Context, []int) int) {
	st := s.st.Load()
	return func(_ context.Context, v int) (*core.Label, error) { return st.Label(v) }, nil
}

// Swap installs a new label generation. The vertex space must match;
// compaction guarantees it (generations are rebuilds of the same
// vertex set). The outgoing store gives its caches back at once: it
// can stay reachable for the life of the process (Config.Store, the
// caller that opened it), and nothing will look a label up in it again
// except a batch pinned before the swap — which keeps the labels it
// already holds and decodes any late lookup cold.
func (s *storeSource) Swap(st *labelstore.Store) {
	if old := s.st.Swap(st); old != st {
		old.DropCaches()
	}
}
