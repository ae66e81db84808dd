package server

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"fsdl/internal/core"
	"fsdl/internal/graph"
	"fsdl/internal/liveupdate"
)

// This file tests the shared fault frames kept beside the result cache
// (frameCache): built on a fault set's second sighting, with or without a
// live delta pending, dropped on every flush, used only over the fault and
// patch labels they were built from — and never changing an answer.

// frameCounts is what the two shared-frame counters and the frame cache
// say.
type frameCounts struct{ built, batches, held int }

func countsOf(s *Server) frameCounts {
	s.frames.mu.Lock()
	defer s.frames.mu.Unlock()
	return frameCounts{int(s.met.sharedFramesBuilt.Load()), int(s.met.sharedFrameBatches.Load()), len(s.frames.frames)}
}

// framePairs are the pairs every batch of these tests asks.
var framePairs = [][2]int{{0, 35}, {5, 30}, {2, 33}, {6, 29}}

// askFaults answers framePairs under f and holds every answer to a decode
// with no shared frame over the server's current labels, under the live
// delta as it stands, if any.
func askFaults(t *testing.T, s *Server, f *graph.FaultSet) {
	t.Helper()
	answers, err := s.AnswerPairs(context.Background(), framePairs, &QueryOptions{Faults: f})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	label, _ := s.src.PinLabels()
	lookup := func(v int) (*core.Label, error) { return label(ctx, v) }
	faults := s.effectiveFaults(f)
	var patches []core.PatchEdge
	if s.live != nil {
		fe, ins := s.live.Delta()
		for _, e := range fe {
			faults.AddEdge(int(e[0]), int(e[1]))
		}
		patches = s.decodePatches(ctx, label, ins)
	}
	for i, a := range answers {
		q, err := core.ResolveQuery(framePairs[i][0], framePairs[i][1], faults, lookup, true)
		if err != nil {
			t.Fatalf("pair %v: %v", framePairs[i], err)
		}
		if q == nil {
			if a.Connected || a.Error != "" {
				t.Errorf("pair %v: a forbidden endpoint answered %+v", framePairs[i], a)
			}
			continue
		}
		var dec core.Decoder
		want := dec.Decode(q, core.Opts{Patches: patches})
		dec.Release()
		if a.Error != "" || a.Connected != want.OK || a.Dist != want.Dist {
			t.Errorf("pair %v: served %+v, a decode with no shared frame (%d, %v)", framePairs[i], a, want.Dist, want.OK)
		}
	}
}

// faultsOf is a fault set of the given vertices and one edge.
func faultsOf(edge [2]int, vs ...int) *graph.FaultSet {
	f := graph.FaultVertices(vs...)
	f.AddEdge(edge[0], edge[1])
	return f
}

// TestSharedFrameAdmission: a fault set gets a shared frame on its second
// sighting among the last frameSightings fault sets that found none, and
// every batch under it after that decodes beside the frame; an empty fault
// set never gets one, a fault set pushed out of the sightings starts over,
// and of more recurring fault sets than there are frames the most recently
// used are kept. The result cache is off, so every batch decodes.
func TestSharedFrameAdmission(t *testing.T) {
	_, st := testStore(t, 6, 6, 2)
	s := newTestServer(t, Config{Store: st, CacheCapacity: -1})
	f := faultsOf([2]int{14, 15}, 8, 21)
	for i, want := range []frameCounts{{0, 0, 0}, {1, 1, 1}, {1, 2, 1}, {1, 3, 1}} {
		askFaults(t, s, f)
		if got := countsOf(s); got != want {
			t.Fatalf("batch %d under one fault set: %+v, want %+v", i, got, want)
		}
	}
	for i := 0; i < 3; i++ {
		askFaults(t, s, graph.NewFaultSet())
	}
	if got := countsOf(s); got != (frameCounts{1, 3, 1}) {
		t.Fatalf("three batches with no fault: %+v, want nothing built or used", got)
	}

	// A fault set seen once, then frameSightings others: no longer sighted.
	once := faultsOf([2]int{1, 7}, 20)
	askFaults(t, s, once)
	for i := 0; i < frameSightings; i++ {
		askFaults(t, s, graph.FaultVertices(10+i%8, 19+i))
	}
	askFaults(t, s, once)
	if got := countsOf(s); got != (frameCounts{1, 3, 1}) {
		t.Fatalf("fault sets asked once each: %+v, want nothing built", got)
	}
	askFaults(t, s, once)
	if got := countsOf(s); got != (frameCounts{2, 4, 2}) {
		t.Fatalf("a fault set sighted again: %+v, want its frame built and used", got)
	}

	// More recurring fault sets than frames: the least recently used go.
	sets := make([]*graph.FaultSet, maxSharedFrames+2)
	for i := range sets {
		sets[i] = faultsOf([2]int{12, 13}, 1+i)
	}
	for _, fs := range sets {
		askFaults(t, s, fs)
		askFaults(t, s, fs)
	}
	before := countsOf(s)
	if before.held != maxSharedFrames {
		t.Fatalf("%d recurring fault sets: %d frames held, want %d", len(sets), before.held, maxSharedFrames)
	}
	askFaults(t, s, sets[len(sets)-1])
	askFaults(t, s, sets[2])
	if got, want := countsOf(s), (frameCounts{before.built, before.batches + 2, maxSharedFrames}); got != want {
		t.Fatalf("the last %d recurring fault sets again: %+v, want %+v", maxSharedFrames, got, want)
	}
}

// heldFrame returns the most recently used frame the server holds, with
// its key.
func heldFrame(t *testing.T, s *Server) keyedFrame {
	t.Helper()
	s.frames.mu.Lock()
	defer s.frames.mu.Unlock()
	if len(s.frames.frames) == 0 {
		t.Fatal("no frame held")
	}
	return s.frames.frames[0]
}

// putFrame puts kf back into the frame cache, as a batch that read the
// delta before a flush and built its frame after could.
func putFrame(s *Server, kf keyedFrame) {
	s.frames.mu.Lock()
	s.frames.frames = append(s.frames.frames, kf)
	s.frames.mu.Unlock()
}

// TestSharedFramesUnderPendingDelta: with a live delta pending, a fault
// set earns a shared frame as it would without one, built from its fault
// labels and the batch's patch labels, and serves only batches with the
// same deletions and the same patches. The batches also sight the delta's
// side alone, first, so its frame is built beside the fault set's, at
// the same batches. Each Mutate drops the frames; a frame from before an
// insert-only batch — same fault hash, other patches — and one from
// before a deletion — put back under the new hash — are dropped when
// found, never used, and every answer is a decode's with no shared frame
// under the delta as it stands.
func TestSharedFramesUnderPendingDelta(t *testing.T) {
	s, _, _ := newLiveServer(t, 6)
	mutate := func(muts ...liveupdate.Mutation) {
		t.Helper()
		if _, err := s.Mutate(muts); err != nil {
			t.Fatal(err)
		}
		if got := countsOf(s); got.held != 0 {
			t.Fatalf("after Mutate(%v): %d frames held, want none", muts, got.held)
		}
	}
	mutate(liveupdate.Mutation{Op: liveupdate.MutInsert, U: 0, V: 35})
	f := faultsOf([2]int{14, 15}, 8, 21)
	for i, want := range []frameCounts{{0, 0, 0}, {2, 1, 2}, {2, 2, 2}} {
		askFaults(t, s, f)
		if got := countsOf(s); got != want {
			t.Fatalf("batch %d under one fault set with an insert pending: %+v, want %+v", i, got, want)
		}
	}
	stale := heldFrame(t, s)

	// Insert only: the fault hash stays, the patches change.
	mutate(liveupdate.Mutation{Op: liveupdate.MutInsert, U: 5, V: 30})
	putFrame(s, stale)
	askFaults(t, s, f)
	if kf := heldFrame(t, s); kf.f == stale.f || kf.key != stale.key {
		t.Fatalf("after an insert-only batch: frame kept %v, key %x (was %x)", kf.f == stale.f, kf.key, stale.key)
	}
	if got := countsOf(s); got != (frameCounts{4, 3, 2}) {
		t.Fatalf("after an insert-only batch: %+v, want both frames rebuilt over the new patches and the fault set's used", got)
	}

	// A deletion: another fault hash and other fault labels. The frame of
	// the old deletions, found under the new hash, is not used either.
	stale = heldFrame(t, s)
	mutate(liveupdate.Mutation{Op: liveupdate.MutDelete, U: 14, V: 20})
	askFaults(t, s, f)
	putFrame(s, keyedFrame{frameKey(s, f), stale.f})
	askFaults(t, s, f)
	if kf := heldFrame(t, s); kf.f == stale.f {
		t.Fatal("a frame of other deletions served a batch")
	}
	if got := countsOf(s); got != (frameCounts{6, 4, 2}) {
		t.Fatalf("after a deletion: %+v, want both frames built over it and the fault set's used", got)
	}
}

// frameKey returns the key the server keeps the frames of f under with
// the live delta as it stands: faultHash of the effective fault set with
// the pending deletions.
func frameKey(s *Server, f *graph.FaultSet) uint64 {
	faults := s.effectiveFaults(f)
	fe, _ := s.live.Delta()
	for _, e := range fe {
		faults.AddEdge(int(e[0]), int(e[1]))
	}
	return faultHash(faults, s.budget(nil))
}

// TestSharedFramesFlushed: every flush of the result cache — Fail,
// Recover, Mutate, Compact — drops the shared frames with it.
func TestSharedFramesFlushed(t *testing.T) {
	s, _, _ := newLiveServer(t, 6)
	f := faultsOf([2]int{14, 15}, 8, 21)
	for _, step := range []struct {
		name  string
		flush func() error
	}{
		{"Fail", func() error { return s.Fail([]int{26}, nil) }},
		{"Recover", func() error { return s.Recover([]int{26}, nil) }},
		{"Mutate", func() error {
			_, err := s.Mutate([]liveupdate.Mutation{{Op: liveupdate.MutInsert, U: 0, V: 35}})
			return err
		}},
		{"Compact", func() error { _, err := s.Compact(); return err }},
	} {
		askFaults(t, s, f)
		askFaults(t, s, f)
		if countsOf(s).held == 0 {
			t.Fatalf("before %s: no frame held", step.name)
		}
		if err := step.flush(); err != nil {
			t.Fatal(err)
		}
		if got := countsOf(s); got.held != 0 {
			t.Fatalf("after %s: %d frames held, want none", step.name, got.held)
		}
	}
}

// TestSharedFrameAcrossGenerationSwap: a frame is used only over the very
// labels it was built from. One built over generation 1, put back after
// the compaction that swapped generation 2 in (as a batch racing the swap
// could), is dropped, not used: its fault set gets a frame over the new
// labels, and every answer is what a decode with no shared frame gives.
func TestSharedFrameAcrossGenerationSwap(t *testing.T) {
	s, _, _ := newLiveServer(t, 6)
	f := faultsOf([2]int{14, 15}, 8, 21)
	askFaults(t, s, f)
	askFaults(t, s, f)
	s.frames.mu.Lock()
	stale := s.frames.frames[0]
	s.frames.mu.Unlock()
	if _, err := s.Mutate([]liveupdate.Mutation{{Op: liveupdate.MutDelete, U: 14, V: 20}, {Op: liveupdate.MutInsert, U: 0, V: 35}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.frames.frames = append(s.frames.frames, stale)
	for i := 0; i < 3; i++ {
		askFaults(t, s, f)
	}
	s.frames.mu.Lock()
	defer s.frames.mu.Unlock()
	if len(s.frames.frames) != 1 || s.frames.frames[0].f == stale.f {
		t.Fatalf("after the swap: %d frames, the stale one kept: %v", len(s.frames.frames), len(s.frames.frames) > 0 && s.frames.frames[0].f == stale.f)
	}
	if got := fmt.Sprint(s.met.sharedFramesBuilt.Load(), s.met.sharedFrameBatches.Load()); got != "2 4" {
		t.Fatalf("built, batches = %s, want 2 4: one frame per generation", got)
	}
}

// TestSharedFrameConcurrentBatches: batches under one fault set on four
// goroutines at once, beside one shared frame, while another goroutine
// keeps flushing (a Recover of a vertex never failed changes no answer
// but drops the frames). Every answer is the one a decode with no shared
// frame gives; under -race this is the proof the frame cache and the
// frames it hands out are safe to share.
func TestSharedFrameConcurrentBatches(t *testing.T) {
	_, st := testStore(t, 6, 6, 2)
	s := newTestServer(t, Config{Store: st, CacheCapacity: -1, Workers: 4, QueueDepth: 64})
	f := faultsOf([2]int{14, 15}, 8, 21)
	want, err := s.AnswerPairs(context.Background(), framePairs, &QueryOptions{Faults: f})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				got, err := s.AnswerPairs(context.Background(), framePairs, &QueryOptions{Faults: f})
				if err != nil {
					t.Error(err)
					return
				}
				for k := range got {
					if got[k].Connected != want[k].Connected || got[k].Dist != want[k].Dist {
						t.Errorf("pair %v: %+v, the first batch %+v", framePairs[k], got[k], want[k])
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := s.Recover([]int{3}, nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if c := countsOf(s); c.built == 0 || c.batches == 0 {
		t.Fatalf("%+v: no batch ran beside a shared frame", c)
	}
}

// TestSharedFrameSwapBeforeCommit: between a compaction's swap and its
// commit, batches read the new generation's labels with the old delta
// still pending, and nothing has flushed the frames yet. The frame built
// over generation 1's labels under that delta is dropped, not used: the
// fault set gets a frame over generation 2's labels and the same patches
// — and so does the delta's side alone — and every answer is a decode's
// with no shared frame over those labels under the delta.
func TestSharedFrameSwapBeforeCommit(t *testing.T) {
	s, _, _ := newLiveServer(t, 6)
	if _, err := s.Mutate([]liveupdate.Mutation{{Op: liveupdate.MutDelete, U: 14, V: 20}, {Op: liveupdate.MutInsert, U: 0, V: 35}}); err != nil {
		t.Fatal(err)
	}
	f := faultsOf([2]int{14, 15}, 8, 21)
	askFaults(t, s, f)
	askFaults(t, s, f)
	stale := heldFrame(t, s)
	if !s.live.BeginCompaction() {
		t.Fatal("a compaction is in flight")
	}
	defer s.live.EndCompaction()
	res, err := liveupdate.Compact(s.live, s.cfg.LiveRoot, liveupdate.CompactOptions{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.src.SwapGeneration(res.Snapshot.Generation, res.Store); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		askFaults(t, s, f)
	}
	if kf := heldFrame(t, s); kf.f == stale.f || kf.key != stale.key {
		t.Fatalf("in the swap-before-commit window: the stale frame kept %v, key %x (was %x)", kf.f == stale.f, kf.key, stale.key)
	}
	if got := countsOf(s); got != (frameCounts{4, 4, 2}) {
		t.Fatalf("in the swap-before-commit window: %+v, want two frames per generation: the fault set's and the delta's", got)
	}
	if err := s.live.Commit(res.Snapshot); err != nil {
		t.Fatal(err)
	}
}

// neverFramed empties s's frame cache and its sightings, so that its next
// batch finds no frame and earns none.
func neverFramed(s *Server) {
	s.frames.flush()
	s.frames.mu.Lock()
	s.frames.nSighted = 0
	s.frames.mu.Unlock()
}

// TestSharedFrameComposedUnderPendingDelta: with a live delta pending, a
// batch that brings faults of its own — each fault set asked once, so its
// key never earns a frame — is handed the frame of the delta's side alone,
// which the batches without faults of their own share, and its decodes
// compose their frames from it. Every answer, walks included, is what a
// server whose frame cache never hands out a frame gives.
func TestSharedFrameComposedUnderPendingDelta(t *testing.T) {
	s, g, _ := newLiveServer(t, 10)
	ctl, _, _ := newLiveServer(t, 10)
	muts := []liveupdate.Mutation{
		{Op: liveupdate.MutDelete, U: 14, V: 15},
		{Op: liveupdate.MutInsert, U: 0, V: 99},
		{Op: liveupdate.MutDelete, U: 55, V: 65},
	}
	for _, srv := range []*Server{s, ctl} {
		if _, err := srv.Mutate(muts); err != nil {
			t.Fatal(err)
		}
	}
	pairs := [][2]int{{0, 99}, {5, 90}, {23, 77}, {11, 88}}
	ctx := context.Background()
	ask := func(what string, o *QueryOptions) {
		t.Helper()
		got, err := s.AnswerPairs(ctx, pairs, o)
		if err != nil {
			t.Fatal(err)
		}
		neverFramed(ctl)
		want, err := ctl.AnswerPairs(ctx, pairs, o)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Connected != w.Connected || g.Dist != w.Dist || g.Exact != w.Exact || g.Degraded != w.Degraded ||
				g.Error != w.Error || !slices.Equal(g.Path, w.Path) {
				t.Errorf("%s, pair %v: served %+v, without shared frames %+v", what, pairs[i], g, w)
			}
		}
	}
	ask("no faults", nil)
	ask("no faults", nil) // the delta's side earns its frame
	if got := countsOf(s); got.held != 1 {
		t.Fatalf("after two batches without faults: %+v, want the delta's frame held", got)
	}
	composed, batches := core.DecoderPool().FramesComposed, countsOf(s).batches
	rng := rand.New(rand.NewSource(41))
	const n = 30
	for i := 0; i < n; i++ {
		f := graph.FaultVertices(rng.Intn(100))
		u := rng.Intn(100)
		nb := g.Neighbors(u)
		f.AddEdge(u, int(nb[rng.Intn(len(nb))]))
		ask(fmt.Sprintf("faults %v", f), &QueryOptions{Faults: f, Path: i%2 == 1})
	}
	if got := countsOf(s).batches - batches; got != n {
		t.Errorf("%d of %d batches with faults of their own ran beside a shared frame, want all", got, n)
	}
	if got := core.DecoderPool().FramesComposed - composed; got < n/2 {
		t.Errorf("%d decodes composed their frames in %d batches, want at least %d", got, n, n/2)
	}
}
