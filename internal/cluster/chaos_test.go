package cluster

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"fsdl/internal/faultinject"
	"fsdl/internal/graph"
	"fsdl/internal/labelstore"
	"fsdl/internal/server"
)

// restartableShard is a shard that can be killed and brought back on
// the same address, the way a crashed-and-restarted fsdl-shard process
// would reappear.
type restartableShard struct {
	store *labelstore.Store
	name  string
	addr  string
	srv   *ShardServer
}

func (r *restartableShard) start(t *testing.T) {
	t.Helper()
	srv, err := NewShardServer(ShardConfig{Store: r.store, Name: r.name})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", r.addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", r.addr, err)
	}
	r.addr = ln.Addr().String()
	go srv.Serve(ln)
	r.srv = srv
}

func (r *restartableShard) stop() {
	if r.srv != nil {
		r.srv.Close()
		r.srv = nil
	}
}

// TestClusterChaosDegradedUpperBounds is the cluster chaos scenario: a
// faultinject crash schedule takes an entire replica set down
// mid-workload. While the outage holds, queries naming an unreachable
// fault vertex must still answer — flagged exact:false — and every
// answer must remain an upper bound on the true d_{G\F}. After the
// schedule restarts the shards, the same query must return to exact.
func TestClusterChaosDegradedUpperBounds(t *testing.T) {
	const eps = 2.0
	g, st := buildFullStore(t, 8)
	n := st.NumVertices()

	names := []Node{{Name: "shard0"}, {Name: "shard1"}, {Name: "shard2"}}
	ring := NewRing(names, 2)
	parts := ring.Partition(n)

	// A fault vertex owned exclusively by shards 1 and 2 — the replica
	// set the crash schedule will take down together — and query
	// endpoints shard 0 replicates, so the endpoints stay fetchable
	// through the outage and only the fault label is lost.
	faultV := -1
	var endpoints []int
	owners := make([]int, 0, 2)
	for v := 0; v < n; v++ {
		owners = ring.Owners(int32(v), owners[:0])
		if owners[0] != 0 && owners[1] != 0 {
			if faultV < 0 {
				faultV = v
			}
		} else {
			endpoints = append(endpoints, v)
		}
	}
	if faultV < 0 {
		t.Fatal("no vertex owned by exactly shards {1,2}; ring layout changed")
	}
	if len(endpoints) < 6 {
		t.Fatalf("only %d shard0-backed endpoints; ring layout changed", len(endpoints))
	}

	shards := make([]*restartableShard, 3)
	membership := &Membership{Replication: 2}
	for i := range shards {
		var buf bytes.Buffer
		if err := labelstore.Write(&buf, st, parts[i]); err != nil {
			t.Fatal(err)
		}
		ps, err := labelstore.Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = &restartableShard{store: ps, name: names[i].Name, addr: "127.0.0.1:0"}
		shards[i].start(t)
		membership.Nodes = append(membership.Nodes, Node{Name: names[i].Name, Addr: shards[i].addr})
	}
	t.Cleanup(func() {
		for _, sh := range shards {
			sh.stop()
		}
	})

	fe := newTestFrontend(t, &testCluster{membership: membership}, func(cfg *FrontendConfig) {
		cfg.FetchTimeout = 400 * time.Millisecond
		// No decoded-label cache: every step re-fetches, so the outage
		// is visible the moment it starts instead of being masked by a
		// label cached before the crash.
		cfg.LabelCacheSize = -1
	})
	// The result cache is disabled so every step recomputes: the steps
	// repeat identical queries, and exact answers cached before the
	// crash would (correctly) keep answering during it, hiding the
	// degraded path this test exists to exercise. Degraded answers
	// themselves are never cached — server.TestDegradedAnswersNotCached
	// pins recovery with the default cache on.
	srv, err := server.New(server.Config{Source: fe, CacheCapacity: -1})
	if err != nil {
		t.Fatal(err)
	}

	// The schedule: shards 1 and 2 crash together at step 2 and restart
	// at step 5 — between those steps the whole replica set of faultV
	// is gone.
	inj, err := faultinject.NewInjector(faultinject.Plan{Crashes: []faultinject.Crash{
		{Router: 1, At: 2, RestartAt: 5},
		{Router: 2, At: 2, RestartAt: 5},
	}}, len(shards))
	if err != nil {
		t.Fatal(err)
	}

	faults := graph.NewFaultSet()
	faults.AddVertex(faultV)
	m := len(endpoints)
	pairs := [][2]int{
		{endpoints[0], endpoints[m-1]},
		{endpoints[1], endpoints[m-2]},
		{endpoints[2], endpoints[m-3]},
	}
	trueDist := make([]int32, len(pairs))
	for i, p := range pairs {
		trueDist[i] = g.DistAvoiding(p[0], p[1], faults)
	}

	ctx := context.Background()
	sawDegraded, sawExact := false, false
	for now := int64(0); now < 8; now++ {
		for i, sh := range shards {
			if inj.CrashedAt(now, i) {
				sh.stop()
			} else if sh.srv == nil {
				sh.start(t)
			}
		}
		outage := inj.CrashedAt(now, 1)
		if outage {
			// Shards just died with connections pooled; give the
			// frontend's first failed fetch + health sweep a beat.
			time.Sleep(100 * time.Millisecond)
		}

		answers, err := srv.AnswerPairs(ctx, pairs, &server.QueryOptions{Faults: faults})
		if err != nil {
			t.Fatalf("step %d: AnswerPairs: %v", now, err)
		}
		for i, a := range answers {
			if a.Error != "" {
				// Endpoints were chosen with shard 0 in their replica
				// set, so they stay fetchable even during the outage.
				t.Fatalf("step %d pair %v errored: %s", now, pairs[i], a.Error)
			}
			if a.Connected {
				// Every answer, degraded or not, upper-bounds d_{G\F}.
				if int32(a.Dist) < trueDist[i] {
					t.Fatalf("step %d pair %v: answer %d below true distance %d", now, pairs[i], a.Dist, trueDist[i])
				}
				if a.Exact && a.Dist > int64(float64(trueDist[i])*(1+eps)) {
					t.Fatalf("step %d pair %v: exact answer %d above (1+eps) bound of %d", now, pairs[i], a.Dist, trueDist[i])
				}
			} else if trueDist[i] >= 0 && !a.Degraded {
				t.Fatalf("step %d pair %v: non-degraded answer says disconnected but d=%d", now, pairs[i], trueDist[i])
			}
			if a.Degraded {
				if a.Exact {
					t.Fatalf("step %d pair %v: degraded answer flagged exact", now, pairs[i])
				}
				if !outage {
					t.Fatalf("step %d pair %v: degraded answer while all shards up", now, pairs[i])
				}
				sawDegraded = true
			} else if outage {
				// The fault label is unreachable during the outage, so a
				// confident answer would be a correctness bug.
				t.Fatalf("step %d pair %v: outage answer not flagged degraded", now, pairs[i])
			} else if a.Exact {
				sawExact = true
			}
		}
	}
	if !sawDegraded {
		t.Fatal("outage produced no degraded answers; the chaos schedule never bit")
	}
	if !sawExact {
		t.Fatal("no exact answers outside the outage")
	}

	// Post-restart health reflects three live shards again.
	deadline := time.Now().Add(3 * time.Second)
	for {
		healthy := 0
		for _, h := range fe.Health() {
			if h.Healthy {
				healthy++
			}
		}
		if healthy == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/3 shards healthy after restart", healthy)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
