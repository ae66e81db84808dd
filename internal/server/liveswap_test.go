package server

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fsdl/internal/cluster"
	"fsdl/internal/core"
	"fsdl/internal/gen"
	"fsdl/internal/graph"
	"fsdl/internal/labelstore"
	"fsdl/internal/liveupdate"
)

// liveCluster is an in-process shard cluster whose shards can load
// versioned generations from a shared root directory.
type liveCluster struct {
	membership *cluster.Membership
	shards     []*cluster.ShardServer
	stores     []*labelstore.Store
	addrs      []string
}

// startLiveCluster partitions st over `shards` nodes with replication
// r and starts one generation-capable ShardServer per partition.
func startLiveCluster(t *testing.T, st *labelstore.Store, shards, r int, root string) *liveCluster {
	t.Helper()
	names := make([]cluster.Node, shards)
	for i := range names {
		names[i] = cluster.Node{Name: fmt.Sprintf("shard%d", i)}
	}
	parts := cluster.NewRing(names, r).Partition(st.NumVertices())

	lc := &liveCluster{membership: &cluster.Membership{Replication: r}}
	for i := 0; i < shards; i++ {
		var buf bytes.Buffer
		var ids []int
		for _, v := range parts[i] {
			if st.Has(v) {
				ids = append(ids, v)
			}
		}
		if err := labelstore.Write(&buf, st, ids); err != nil {
			t.Fatalf("Write shard %d: %v", i, err)
		}
		ps, err := labelstore.Load(&buf)
		if err != nil {
			t.Fatalf("Load shard %d: %v", i, err)
		}
		srv, err := cluster.NewShardServer(cluster.ShardConfig{
			Store: ps, Name: names[i].Name, GenerationRoot: root,
		})
		if err != nil {
			t.Fatalf("NewShardServer %d: %v", i, err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		go srv.Serve(ln)
		lc.membership.Nodes = append(lc.membership.Nodes, cluster.Node{Name: names[i].Name, Addr: ln.Addr().String()})
		lc.shards = append(lc.shards, srv)
		lc.stores = append(lc.stores, ps)
		lc.addrs = append(lc.addrs, ln.Addr().String())
	}
	t.Cleanup(func() {
		for _, s := range lc.shards {
			s.Close()
		}
	})
	return lc
}

// TestLiveSwapUnderChaos is the zero-downtime acceptance gate for the
// live-update pipeline in cluster mode: with one replica crashed and a
// concurrent query workload running, a compaction builds generation 2
// and swaps it onto the ring — no query errors or drops, every
// pre-swap answer a sound upper bound on the mutated graph's d_{G'\F},
// and exact:true the moment the swap commits. The crashed replica then
// restarts on its stale generation and is caught up by the health
// sweep.
func TestLiveSwapUnderChaos(t *testing.T) {
	const side, eps = 6, 2.0
	g := gen.Grid2D(side, side)
	scheme, err := core.BuildScheme(g, eps)
	if err != nil {
		t.Fatalf("BuildScheme: %v", err)
	}
	var buf bytes.Buffer
	if err := labelstore.Save(&buf, scheme, nil); err != nil {
		t.Fatal(err)
	}
	full, err := labelstore.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	root := t.TempDir()
	lc := startLiveCluster(t, full, 3, 2, root)
	fe, err := cluster.NewFrontend(cluster.FrontendConfig{
		Membership:     lc.membership,
		FetchTimeout:   2 * time.Second,
		DialTimeout:    500 * time.Millisecond,
		HealthInterval: 50 * time.Millisecond,
		HealthTimeout:  500 * time.Millisecond,
		StartupTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewFrontend: %v", err)
	}
	defer fe.Close()

	p, err := liveupdate.Open(liveupdate.Config{Base: g, WALPath: filepath.Join(root, "mutations.wal")})
	if err != nil {
		t.Fatalf("liveupdate.Open: %v", err)
	}
	srv := newTestServer(t, Config{Source: fe, Live: p, LiveRoot: root, CacheCapacity: -1})

	// Stream the delta: two deletions (soft faults) and two insertions
	// (patches) before the chaos begins, so the ground truth is fixed.
	if _, err := srv.Mutate([]liveupdate.Mutation{
		{Op: liveupdate.MutDelete, U: 0, V: 1},
		{Op: liveupdate.MutDelete, U: 14, V: 20},
		{Op: liveupdate.MutInsert, U: 0, V: 35},
		{Op: liveupdate.MutInsert, U: 5, V: 30},
	}); err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	snap, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	gPrime := snap.Graph

	// Every query carries a forbidden vertex; ground truth is BFS on
	// the mutated graph avoiding it.
	reqFaults := graph.NewFaultSet()
	reqFaults.AddVertex(21)
	pairs := [][2]int{{0, 35}, {2, 33}, {30, 5}, {1, 6}, {7, 29}}
	truth := make(map[[2]int]int64, len(pairs))
	for _, pr := range pairs {
		d, ok := bfsAvoid(gPrime, pr[0], pr[1], reqFaults)
		if !ok {
			t.Fatalf("ground truth (%d,%d) disconnected", pr[0], pr[1])
		}
		truth[pr] = d
	}

	// Crash one replica and wait for the frontend to fence it — the
	// operational precondition for a swap (SwapGeneration refuses to
	// flip while a shard it believes healthy cannot load).
	lc.shards[2].Close()
	waitShard(t, fe, "shard2", func(h cluster.ShardHealth) bool { return !h.Healthy })

	// Live query workload across the compaction.
	var (
		wg       sync.WaitGroup
		stop     = make(chan struct{})
		queries  atomic.Int64
		dropped  atomic.Int64
		unsound  atomic.Int64
		sawExact atomic.Int64
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := &QueryOptions{Faults: reqFaults}
			for {
				select {
				case <-stop:
					return
				default:
				}
				ans, err := srv.AnswerPairs(context.Background(), pairs, opts)
				if err != nil {
					dropped.Add(1)
					continue
				}
				for i, a := range ans {
					queries.Add(1)
					if a.Error != "" {
						dropped.Add(1)
						continue
					}
					want := truth[pairs[i]]
					switch {
					case a.Connected && a.Dist < want:
						// Below the true distance: no sound route can
						// produce it, old generation or new.
						unsound.Add(1)
						t.Logf("UNSOUND pair (%d,%d): %+v want %d", pairs[i][0], pairs[i][1], a, want)
					case !a.Connected && !a.Degraded:
						// A confident "disconnected" for a connected pair.
						unsound.Add(1)
						t.Logf("UNSOUND pair (%d,%d): %+v want %d", pairs[i][0], pairs[i][1], a, want)
					}
					if a.Exact {
						sawExact.Add(1)
					}
				}
			}
		}()
	}

	// Compact + swap under load: generation 2 is built from the
	// snapshot, loaded by both healthy shards and flipped in one epoch
	// bump.
	res, err := srv.Compact()
	if err != nil {
		t.Fatalf("Compact under chaos: %v", err)
	}
	if res.Generation != 2 || res.Pending != 0 || res.Epoch == 0 {
		t.Fatalf("compact result %+v", res)
	}
	if fe.Generation() != 2 {
		t.Fatalf("frontend generation %d after swap", fe.Generation())
	}

	// Immediately after the swap: exact answers, still sound.
	ans, err := srv.AnswerPairs(context.Background(), pairs, &QueryOptions{Faults: reqFaults})
	if err != nil {
		t.Fatalf("post-swap batch: %v", err)
	}
	for i, a := range ans {
		if a.Error != "" || !a.Exact {
			t.Fatalf("post-swap (%d,%d) not exact: %+v", pairs[i][0], pairs[i][1], a)
		}
		if !a.Connected || a.Dist < truth[pairs[i]] {
			t.Fatalf("post-swap (%d,%d) unsound: %+v, truth %d", pairs[i][0], pairs[i][1], a, truth[pairs[i]])
		}
	}

	close(stop)
	wg.Wait()
	if q := queries.Load(); q == 0 {
		t.Fatal("workload answered no queries")
	}
	if d := dropped.Load(); d != 0 {
		t.Fatalf("%d of %d queries dropped or errored during the swap", d, queries.Load())
	}
	if u := unsound.Load(); u != 0 {
		t.Fatalf("%d of %d answers unsound during the swap", u, queries.Load())
	}
	t.Logf("workload: %d queries, %d exact, zero drops", queries.Load(), sawExact.Load())

	// The crashed replica comes back serving its stale generation 1;
	// the health sweep catches it up from the generation root instead
	// of routing stale labels.
	srv2, err := cluster.NewShardServer(cluster.ShardConfig{
		Store: lc.stores[2], Name: "shard2", GenerationRoot: root,
	})
	if err != nil {
		t.Fatalf("restart shard2: %v", err)
	}
	ln, err := net.Listen("tcp", lc.addrs[2])
	if err != nil {
		t.Fatalf("relisten %s: %v", lc.addrs[2], err)
	}
	go srv2.Serve(ln)
	defer srv2.Close()
	waitShard(t, fe, "shard2", func(h cluster.ShardHealth) bool {
		return h.Healthy && h.Generation == 2 && !h.GenLagged
	})

	// Full strength restored: exact answers with every replica serving
	// generation 2.
	a, err := srv.Distance(context.Background(), 0, 35, &QueryOptions{Faults: reqFaults})
	if err != nil || a.Error != "" || !a.Exact || !a.Connected {
		t.Fatalf("answer after recovery: %+v err=%v", a, err)
	}
}

// waitShard polls the frontend's health view until the named shard
// satisfies pred.
func waitShard(t *testing.T, fe *cluster.Frontend, name string, pred func(cluster.ShardHealth) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, h := range fe.Health() {
			if h.Name == name && pred(h) {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("shard %s never reached the expected state: %+v", name, fe.Health())
}
