package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fsdl/internal/core"
	"fsdl/internal/labelstore"
)

// writeGenerationDir lays out a generation directory under root: the
// full labels.fsdl plus a partition file per named shard, all listed in
// a verified manifest.
func writeGenerationDir(t *testing.T, root string, gen uint64, st *labelstore.Store, parts map[string][]int) string {
	t.Helper()
	dir := filepath.Join(root, labelstore.GenerationDirName(gen))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	m := &labelstore.Manifest{Generation: gen, N: st.NumVertices()}
	write := func(name string, ids []int) {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if ids == nil {
			ids = st.Vertices()
		}
		err = labelstore.Write(f, st, ids, false, false)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("write %s: %v", name, err)
		}
		crc, err := labelstore.FileCRC(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		mf := labelstore.ManifestFile{Name: name, Records: st.NumLabels(), First: 0, Last: st.NumVertices() - 1, CRC: crc}
		if ids != nil {
			mf.Records, mf.First, mf.Last = len(ids), ids[0], ids[len(ids)-1]
		}
		m.Files = append(m.Files, mf)
	}
	write(labelstore.GenerationLabelsFile, nil)
	for name, ids := range parts {
		write(name+".fsdl", ids)
	}
	if err := labelstore.WriteManifestFile(dir, m); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestScopedGenerationSwap: a scoped swap loads the new generation from
// disk only on the shards the compaction changed; every other shard
// re-tags (aliases) the store it already serves. All shards end on the
// new generation, the old one stays answerable for pinned fetches, and
// the flip is a single epoch bump.
func TestScopedGenerationSwap(t *testing.T) {
	_, st := buildFullStore(t, 6)
	root := t.TempDir()

	const shards = 3
	names := make([]Node, shards)
	for i := range names {
		names[i] = Node{Name: fmt.Sprintf("shard%d", i)}
	}
	ring := NewRing(names, 1)
	parts := ring.Partition(st.NumVertices())

	tc := &testCluster{membership: &Membership{Replication: 1}}
	for i := 0; i < shards; i++ {
		ps := partitionStore(t, st, parts[i])
		srv, err := NewShardServer(ShardConfig{Store: ps, Name: names[i].Name, GenerationRoot: root})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		tc.membership.Nodes = append(tc.membership.Nodes, Node{Name: names[i].Name, Addr: ln.Addr().String()})
		tc.shards = append(tc.shards, srv)
		tc.stores = append(tc.stores, ps)
	}
	t.Cleanup(func() {
		for _, s := range tc.shards {
			s.Close()
		}
	})

	// Generation 2 on disk carries a partition file only for shard0 —
	// the one shard the "compaction" changed.
	writeGenerationDir(t, root, 2, st, map[string][]int{"shard0": parts[0]})

	f := newTestFrontend(t, tc, nil)
	// Fetch every label first: the frontend shares their level lists
	// (a 6×6 grid is one list per level), and two of them outlive the swap.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	held := make([]*core.Label, st.NumVertices())
	for v := range held {
		l, err := f.Label(ctx, v)
		if err != nil {
			t.Fatalf("Label(%d): %v", v, err)
		}
		held[v] = l
	}
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
	wantD, wantOK := (&core.Query{S: held[0], T: held[35], VertexFaults: held[14:16]}).Distance()

	epoch0 := f.Epoch()
	epoch, err := f.SwapGeneration(2, nil, []string{"shard0"})
	if err != nil {
		t.Fatalf("scoped SwapGeneration: %v", err)
	}
	// The swap flushed the label cache and, with it, the table; labels
	// fetched before keep the lists they share and decode as they did.
	if _, lists := f.levels.Stats(); lists != 0 {
		t.Fatalf("%d shared level lists survived the generation swap", lists)
	}
	if d, ok := (&core.Query{S: held[0], T: held[35], VertexFaults: held[14:16]}).Distance(); d != wantD || ok != wantOK {
		t.Fatalf("labels held across the swap decode (%d,%v), before (%d,%v)", d, ok, wantD, wantOK)
	}
	if epoch != epoch0+1 {
		t.Fatalf("epoch = %d, want %d", epoch, epoch0+1)
	}
	if got := f.Generation(); got != 2 {
		t.Fatalf("frontend generation = %d, want 2", got)
	}
	for i, srv := range tc.shards {
		if got := srv.Generation(); got != 2 {
			t.Fatalf("shard%d generation = %d, want 2", i, got)
		}
		cur, _ := srv.currentStore()
		if i == 0 {
			if cur == tc.stores[i] {
				t.Fatal("shard0 was aliased; a changed shard must load from disk")
			}
		} else if cur != tc.stores[i] {
			t.Fatalf("shard%d reloaded from disk; an unchanged shard must alias", i)
		}
		// The displaced generation stays answerable for pinned fetches.
		if prev, err := srv.storeForGen(1); err != nil || prev == nil {
			t.Fatalf("shard%d lost generation 1 across the swap: %v", i, err)
		}
	}
	// Queries still resolve after the swap.
	if _, err := f.Label(ctx, 0); err != nil {
		t.Fatalf("Label after scoped swap: %v", err)
	}
	// Aliasing must never move a shard backwards.
	if err := tc.shards[1].AliasGeneration(1); err == nil {
		t.Fatal("alias to an older generation accepted")
	}
}

// partitionStore extracts the labels of ids into a fresh store.
func partitionStore(t testing.TB, st *labelstore.Store, ids []int) *labelstore.Store {
	t.Helper()
	var held []int
	for _, v := range ids {
		if st.Has(v) {
			held = append(held, v)
		}
	}
	var buf bytes.Buffer
	if err := labelstore.Write(&buf, st, held, false, false); err != nil {
		t.Fatal(err)
	}
	ps, err := labelstore.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// TestStatusLivePendingDelta: with a live-stats hook registered, the
// cluster status attributes each pending delta edge to the shards
// owning its endpoints and surfaces the WAL's segment retention.
func TestStatusLivePendingDelta(t *testing.T) {
	_, st := buildFullStore(t, 6)
	tc := startCluster(t, st, 2, 1, nil)
	f := newTestFrontend(t, tc, nil)

	ring := f.state.Load().ring
	owners := make([]int, 0, 2)
	// One edge inside each shard's range, chosen by actual ownership.
	var e0, e1 [2]int32
	found0, found1 := false, false
	for v := int32(0); v < int32(st.NumVertices()); v++ {
		owners = ring.Owners(v, owners[:0])
		if owners[0] == 0 && !found0 {
			e0, found0 = [2]int32{v, v}, true
		}
		if owners[0] == 1 && !found1 {
			e1, found1 = [2]int32{v, v}, true
		}
	}
	if !found0 || !found1 {
		t.Fatal("ring leaves a shard with no vertices")
	}
	f.SetLiveStats(func() LiveStats {
		return LiveStats{
			PendingEdges: [][2]int32{e0, e1},
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
	total := 0
	for _, sh := range cs.Shards {
		total += sh.PendingDelta
	}
	if total != 2 {
		t.Fatalf("pending delta attributed %d times, want 2 (shards: %+v)", total, cs.Shards)
	}
	f.SetLiveStats(nil)
	if cs := f.Status(); cs.Live != nil {
		t.Fatal("live section survives unregistering the hook")
	}
}
