package server

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"

	"fsdl/internal/core"
	"fsdl/internal/labelstore"
	"fsdl/internal/stats"
)

// LabelSource is where the server gets labels from: a local
// labelstore.Store or a cluster frontend scatter-gathering them from
// shards. The query path is identical either way — decode happens here,
// next to the query — which is exactly the property that lets the label
// space shard: a query needs only the labels of s, t and F, never the
// graph.
//
// It is one interface, implemented in full by storeSource here and by
// cluster.Frontend (this package never imports that one; cmd/fsdl-serve
// is where the compiler checks the two against each other). What a
// source has nothing to say about it answers with nothing: a nil
// prefetch, a nil health or status fragment. Test fakes embed
// storeSource and override the method under test.
type LabelSource interface {
	NumVertices() int
	NumLabels() int
	LabelCacheStats() (hits, misses int64)

	// PinLabels pins label resolution to the source's current label
	// generation: label resolves every vertex against the one
	// generation that was current at pin time, and prefetch warms a
	// batch of them in one round trip, returning how many it failed to
	// resolve (nil when lookups are already single-hop). The server
	// pins once per batch — after reading the live delta, so an empty
	// delta implies the pinned generation already has it baked in —
	// which keeps a generation swap landing mid-batch from mixing
	// labels of two generations inside one decode. Mixed generations
	// are unsound: a fault label's protected balls describe one graph's
	// distances and cannot guard sketch edges taken from another's.
	//
	// label must honor its context: a remote source returns promptly
	// with ctx.Err() when the caller is gone. An error that wraps
	// core.ErrNoLabel is authoritative absence (404 for an endpoint);
	// anything else is transient unavailability. Either way a fault
	// whose label cannot be had is demoted to the degraded tier.
	PinLabels() (label func(context.Context, int) (*core.Label, error), prefetch func(context.Context, []int) int)

	// SwapGeneration makes label generation gen the one PinLabels pins
	// from now on, without dropping in-flight batches, and returns the
	// new ring epoch (0 for a local store). st is the generation's
	// opened store, which a local source serves from; a cluster
	// frontend instead has every routable shard load gen from its
	// generation root.
	SwapGeneration(gen uint64, st *labelstore.Store) (epoch uint64, err error)
	// Partitions maps each shard of the ring routed now to the vertex
	// ids it serves, for a compaction to write one partition file per
	// shard; nil for a local store.
	Partitions() map[string][]int

	// WriteMetrics appends source-specific Prometheus exposition to
	// /metrics, and HealthJSON contributes a JSON-marshalable fragment
	// to /healthz (per-shard health); nil for none.
	WriteMetrics(sb *strings.Builder)
	HealthJSON() any

	// Membership control and the status snapshot behind the
	// /v1/cluster/* admin endpoints. Join/Leave/Drain return the new
	// ring epoch; StatusJSON returns a JSON-marshalable snapshot served
	// as-is. A local store answers errNotCluster and nil.
	Join(name, addr string) (uint64, error)
	Leave(name string) (uint64, error)
	Drain(name string, drain bool) (uint64, error)
	StatusJSON() any
}

// errNotCluster is what a local store answers membership changes with;
// the HTTP layer maps it to 404.
var errNotCluster = errors.New("not a cluster deployment")

// storeSource adapts the in-process labelstore.Store to LabelSource.
// Lookups never block, so contexts are ignored. The store pointer is
// atomic so a compaction can swap the next label generation in under
// live queries — each lookup is served whole from whichever generation
// it loads, no lock, no torn reads.
type storeSource struct {
	st atomic.Pointer[labelstore.Store]
}

func newStoreSource(st *labelstore.Store) *storeSource {
	s := &storeSource{}
	s.st.Store(st)
	return s
}

func (s *storeSource) NumVertices() int                { return s.st.Load().NumVertices() }
func (s *storeSource) NumLabels() int                  { return s.st.Load().NumLabels() }
func (s *storeSource) LabelCacheStats() (int64, int64) { return s.st.Load().LabelCacheStats() }

// PinLabels pins lookups to the store generation loaded at pin time,
// so a batch straddling a swap answers every query from one
// generation. No prefetch: local lookups are already single-hop.
func (s *storeSource) PinLabels() (func(context.Context, int) (*core.Label, error), func(context.Context, []int) int) {
	st := s.st.Load()
	return func(_ context.Context, v int) (*core.Label, error) { return st.Label(v) }, nil
}

// SwapGeneration installs st as the serving generation. The vertex
// space must match; compaction guarantees it (generations are rebuilds
// of the same vertex set). The outgoing store gives its caches back at
// once: it can stay reachable for the life of the process
// (Config.Store, the caller that opened it), and nothing will look a
// label up in it again except a batch pinned before the swap — which
// keeps the labels it already holds and decodes any late lookup cold.
func (s *storeSource) SwapGeneration(_ uint64, st *labelstore.Store) (uint64, error) {
	if old := s.st.Swap(st); old != st {
		old.DropCaches()
	}
	return 0, nil
}

// WriteMetrics reports the serving store's shared level lists (a
// frontend reports its own table under the same names).
func (s *storeSource) WriteMetrics(sb *strings.Builder) {
	interned, lists := s.st.Load().LevelTableStats()
	x := stats.NewExposition(sb)
	x.Counter("fsdl_label_levels_interned_total", "Level edge lists of parsed labels replaced by a shared copy.", interned)
	x.Gauge("fsdl_label_level_lists", "Shared level edge lists currently held.", int64(lists))
}

func (s *storeSource) Partitions() map[string][]int { return nil }
func (s *storeSource) HealthJSON() any              { return nil }
func (s *storeSource) StatusJSON() any              { return nil }

func (s *storeSource) Join(string, string) (uint64, error) { return 0, errNotCluster }
func (s *storeSource) Leave(string) (uint64, error)        { return 0, errNotCluster }
func (s *storeSource) Drain(string, bool) (uint64, error)  { return 0, errNotCluster }
