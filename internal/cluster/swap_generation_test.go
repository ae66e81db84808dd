package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"fsdl/internal/core"
	"fsdl/internal/gen"
	"fsdl/internal/labelstore"
	"fsdl/internal/liveupdate"
)

// TestGenerationSwapAfterIncrementalCompaction: a cluster serving the
// partition files of one compaction swaps to the next, incremental one
// the way it swaps to any generation — every shard loads its own
// partition file from its generation root, and routing flips only when
// all of them hold it. A shard whose load fails aborts the swap with
// every shard still answering the old generation, the retry succeeds,
// a fetch pinned before the swap completes on the old generation, and
// answers on either side equal the compaction's own store's. The
// partitions are FSDL2 ones, so the labels share level lists through the
// frontend's table, which the swap empties.
func TestGenerationSwapAfterIncrementalCompaction(t *testing.T) {
	g := gen.Grid2D(6, 6)
	n := g.NumVertices()
	const shards = 3
	parts := map[string][]int{}
	tc := &testCluster{membership: &Membership{Replication: 1}}
	for i := 0; i < shards; i++ {
		tc.membership.Nodes = append(tc.membership.Nodes, Node{Name: fmt.Sprintf("shard%d", i)})
	}
	for i, ids := range tc.membership.Ring().Partition(n) {
		parts[tc.membership.Nodes[i].Name] = ids
	}

	// Generation 2 is a full build, generation 3 an incremental one of a
	// one-edge delta, both with a partition file per shard.
	root := t.TempDir()
	p, err := liveupdate.Open(liveupdate.Config{Base: g})
	if err != nil {
		t.Fatal(err)
	}
	opts := liveupdate.CompactOptions{Epsilon: 2, Partitions: parts}
	old, err := liveupdate.Compact(p, root, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(old.Snapshot); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Apply([]liveupdate.Mutation{{Op: liveupdate.MutDelete, U: 14, V: 15}}); err != nil {
		t.Fatal(err)
	}
	opts.Prev = &liveupdate.PrevGeneration{Generation: old.Snapshot.Generation, Scheme: old.Scheme, Store: old.Store}
	next, err := liveupdate.Compact(p, root, opts)
	if err != nil {
		t.Fatal(err)
	}
	oldGen, nextGen := old.Snapshot.Generation, next.Snapshot.Generation
	if !next.Incremental || nextGen != oldGen+1 {
		t.Fatalf("second compaction: incremental=%v, generation %d after %d", next.Incremental, nextGen, oldGen)
	}
	// Both generations as a writer from before factored compactions left
	// them: FSDL2 partitions, whose records travel canonical — the ones
	// the frontend's level table shares.
	asFSDL2(t, old)
	asFSDL2(t, next)

	// The last shard reads its own generation root, which the new
	// generation has not reached yet.
	lateRoot := t.TempDir()
	for i := range tc.membership.Nodes {
		nd := &tc.membership.Nodes[i]
		ps, err := labelstore.Open(filepath.Join(old.Dir, nd.Name+".fsdl"))
		if err != nil {
			t.Fatal(err)
		}
		cfg := ShardConfig{Store: ps, Name: nd.Name, Generation: oldGen, GenerationRoot: root}
		if i == shards-1 {
			cfg.GenerationRoot = lateRoot
		}
		srv, err := NewShardServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		nd.Addr = ln.Addr().String()
		tc.shards = append(tc.shards, srv)
		tc.stores = append(tc.stores, ps)
	}
	t.Cleanup(func() {
		for _, s := range tc.shards {
			s.Close()
		}
	})
	// No health sweep after start-up: the shards' generations below are
	// what the swap left, not what a sweep caught up.
	f := newTestFrontend(t, tc, func(cfg *FrontendConfig) { cfg.HealthInterval = time.Hour })
	if got := f.Generation(); got != oldGen {
		t.Fatalf("frontend adopted generation %d, shards serve %d", got, oldGen)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// sameLabels fetches every label through fetch and holds it to st's.
	sameLabels := func(when string, fetch func(context.Context, int) (*core.Label, error), st *labelstore.Store) []*core.Label {
		t.Helper()
		got := make([]*core.Label, n)
		for v := range got {
			l, err := fetch(ctx, v)
			if err != nil {
				t.Fatalf("%s: Label(%d): %v", when, v, err)
			}
			want, err := st.Label(v)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(labelBytes(t, l), labelBytes(t, want)) {
				t.Fatalf("%s: label %d differs from generation store's", when, v)
			}
			got[v] = l
		}
		return got
	}
	// answer is one decode across the deleted edge, around two faults.
	answer := func(ls []*core.Label) int64 {
		d, _ := (&core.Query{S: ls[14], T: ls[15], VertexFaults: ls[20:22]}).Distance()
		return d
	}

	held := sameLabels("before the swap", f.Label, old.Store)
	before := answer(held)
	// The frontend shares the fetched labels' level lists, and says so.
	interned, lists := f.levels.Stats()
	if interned == 0 || lists == 0 {
		t.Fatalf("after fetching every label: %d lists interned, %d held", interned, lists)
	}
	var sb strings.Builder
	f.WriteMetrics(&sb)
	for _, want := range []string{
		fmt.Sprintf("fsdl_label_levels_interned_total %d\n", interned),
		fmt.Sprintf("fsdl_label_level_lists %d\n", lists),
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("metrics exposition missing %q", want)
		}
	}
	pinned, _ := f.PinLabels()
	epoch0 := f.Epoch()

	// One shard cannot load: nothing flips, and every shard — those that
	// did load included — still answers the old generation.
	if _, err := f.SwapGeneration(nextGen, nil); err == nil || !strings.Contains(err.Error(), tc.membership.Nodes[shards-1].Name) {
		t.Fatalf("swap with a shard that cannot load: err = %v, want it to name the shard", err)
	}
	if f.Generation() != oldGen || f.Epoch() != epoch0 {
		t.Fatalf("aborted swap moved the frontend to generation %d, epoch %d", f.Generation(), f.Epoch())
	}
	if loaded, late := tc.shards[0].Generation(), tc.shards[shards-1].Generation(); loaded != nextGen || late != oldGen {
		t.Fatalf("aborted swap left shard0 on generation %d and the late shard on %d, want %d and %d", loaded, late, nextGen, oldGen)
	}
	f.labelCache.Flush()
	sameLabels("after the aborted swap", f.Label, old.Store)

	// The generation reaches the late shard and the retry goes through.
	if err := os.Symlink(next.Dir, filepath.Join(lateRoot, filepath.Base(next.Dir))); err != nil {
		t.Fatal(err)
	}
	epoch, err := f.SwapGeneration(nextGen, nil)
	if err != nil {
		t.Fatalf("SwapGeneration: %v", err)
	}
	if epoch != epoch0+1 || f.Generation() != nextGen {
		t.Fatalf("after the swap: epoch %d (was %d), generation %d, want %d", epoch, epoch0, f.Generation(), nextGen)
	}
	for i, srv := range tc.shards {
		name := tc.membership.Nodes[i].Name
		cur, gen := srv.currentStore()
		if gen != nextGen || cur == tc.stores[i] {
			t.Fatalf("%s serves generation %d from the store it started on=%v, want a load of %d", name, gen, cur == tc.stores[i], nextGen)
		}
		if !slices.Equal(cur.Vertices(), parts[name]) {
			t.Fatalf("%s loaded %d labels, its partition file holds %d", name, cur.NumLabels(), len(parts[name]))
		}
		if prev, err := srv.storeForGen(oldGen); err != nil || prev.store != tc.stores[i] {
			t.Fatalf("%s lost generation %d across the swap: %v", name, oldGen, err)
		}
	}
	// The swap flushed the label cache and, with it, the level table;
	// labels fetched before keep the lists they share and decode as they
	// did, and the pin taken before still resolves on the old generation.
	if _, lists := f.levels.Stats(); lists != 0 {
		t.Fatalf("%d shared level lists survived the generation swap", lists)
	}
	if d := answer(held); d != before {
		t.Fatalf("labels held across the swap decode %d, before %d", d, before)
	}
	if d := answer(sameLabels("pinned before the swap", pinned, old.Store)); d != before {
		t.Fatalf("pinned labels decode %d, before the swap %d", d, before)
	}
	after := answer(sameLabels("after the swap", f.Label, next.Store))
	if before != 1 || after <= before {
		t.Fatalf("distance across the deleted edge: %d before, %d after", before, after)
	}
}

// TestStatusLivePendingDelta: with a live-stats hook registered, the
// cluster status surfaces the pending delta's size and the WAL's
// segment retention.
func TestStatusLivePendingDelta(t *testing.T) {
	_, st := buildFullStore(t, 6)
	tc := startCluster(t, st, 2, 1, nil)
	f := newTestFrontend(t, tc, nil)

	f.SetLiveStats(func() LiveStats {
		return LiveStats{
			Pending:      2,
			WALSegments:  3,
			WALOldestAge: 90 * time.Second,
		}
	})
	cs := f.Status()
	if cs.Live == nil {
		t.Fatal("status has no live section")
	}
	if cs.Live.PendingEdges != 2 || cs.Live.WALSegments != 3 {
		t.Fatalf("live status = %+v", cs.Live)
	}
	if cs.Live.WALOldestAgeSec < 89 || cs.Live.WALOldestAgeSec > 91 {
		t.Fatalf("wal oldest age = %v", cs.Live.WALOldestAgeSec)
	}
	f.SetLiveStats(nil)
	if cs := f.Status(); cs.Live != nil {
		t.Fatal("live section survives unregistering the hook")
	}
}
