package server

import (
	"context"
	"testing"

	"fsdl/internal/core"
	"fsdl/internal/gen"
	"fsdl/internal/graph"
	"fsdl/internal/labelstore"
)

// swapMidBatch is a store source whose pinned view swaps the next
// generation in right after the batch's first label lookup — the
// straddle a compaction landing mid-batch produces.
type swapMidBatch struct {
	*storeSource
	next *labelstore.Store
}

func (s *swapMidBatch) PinLabels() (func(context.Context, int) (*core.Label, error), func(context.Context, []int) int) {
	label, prefetch := s.storeSource.PinLabels()
	return func(ctx context.Context, v int) (*core.Label, error) {
		l, err := label(ctx, v)
		if s.next != nil {
			s.SwapGeneration(0, s.next)
			s.next = nil
		}
		return l, err
	}, prefetch
}

// TestSwapReleasesOldStoreCaches: a swap empties the outgoing store's
// decoded-label cache — the store can stay reachable through
// Config.Store for the life of the process — while a batch pinned
// before the swap still answers every pair from the old generation,
// decoding cold what the swap dropped.
func TestSwapReleasesOldStoreCaches(t *testing.T) {
	grid := gen.Grid2D(6, 6)
	ring, err := gen.Cycle(36)
	if err != nil {
		t.Fatal(err)
	}
	old, next := storeOf(t, grid, 2), storeOf(t, ring, 2)
	ctx := context.Background()
	pairs := [][2]int{{0, 35}, {5, 30}, {7, 22}, {1, 34}}
	faults := graph.FaultVertices(14, 15)

	// What a server over each generation alone answers.
	answers := func(st *labelstore.Store) []Answer {
		as, err := newTestServer(t, Config{Store: st, CacheCapacity: -1}).AnswerPairs(ctx, pairs, &QueryOptions{Faults: faults})
		if err != nil {
			t.Fatal(err)
		}
		return as
	}
	wantOld, wantNext := answers(storeOf(t, grid, 2)), answers(storeOf(t, ring, 2))
	for i := range pairs {
		if wantOld[i].Dist == wantNext[i].Dist {
			t.Fatalf("pair %v: generations agree (%d), the test cannot tell them apart", pairs[i], wantOld[i].Dist)
		}
	}

	// Warm the old store: every label resident.
	src := &swapMidBatch{storeSource: newStoreSource(old), next: next}
	for i := 0; i < 2; i++ {
		for v := 0; v < 36; v++ {
			if _, err := old.Label(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	hits, misses := old.LabelCacheStats()
	if hits != 36 || misses != 36 {
		t.Fatalf("warm-up: %d hits %d misses, want 36 and 36", hits, misses)
	}

	s := newTestServer(t, Config{Source: src, CacheCapacity: -1})
	got, err := s.AnswerPairs(ctx, pairs, &QueryOptions{Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	if src.next != nil {
		t.Fatal("the batch never swapped")
	}
	for i := range pairs {
		if got[i].Dist != wantOld[i].Dist || got[i].Connected != wantOld[i].Connected || !got[i].Exact {
			t.Errorf("pair %v straddling the swap: %+v, old generation answers %+v", pairs[i], got[i], wantOld[i])
		}
	}
	// Only the batch's first lookup preceded the swap; everything after
	// it found the old store's cache empty.
	if h, _ := old.LabelCacheStats(); h != hits+1 {
		t.Errorf("old store served %d cache hits during the straddling batch, want 1", h-hits)
	}
	if _, err := old.Label(20); err != nil {
		t.Fatal(err)
	}
	if h, _ := old.LabelCacheStats(); h != hits+1 {
		t.Error("a label untouched by the batch survived the swap in the old store's cache")
	}

	// The next batch is all new generation.
	got, err = s.AnswerPairs(ctx, pairs, &QueryOptions{Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	for i := range pairs {
		if got[i].Dist != wantNext[i].Dist {
			t.Errorf("pair %v after the swap: %+v, new generation answers %+v", pairs[i], got[i], wantNext[i])
		}
	}
}
