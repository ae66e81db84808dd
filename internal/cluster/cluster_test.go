package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"fsdl/internal/core"
	"fsdl/internal/frame"
	"fsdl/internal/gen"
	"fsdl/internal/graph"
	"fsdl/internal/labelstore"
)

// buildFullStore builds a grid scheme and round-trips it through the
// labelstore container.
func buildFullStore(t testing.TB, side int) (*graph.Graph, *labelstore.Store) {
	t.Helper()
	g := gen.Grid2D(side, side)
	s, err := core.BuildScheme(g, 2)
	if err != nil {
		t.Fatalf("BuildScheme: %v", err)
	}
	var buf bytes.Buffer
	if err := labelstore.Save(&buf, s, nil); err != nil {
		t.Fatalf("Save: %v", err)
	}
	st, err := labelstore.Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return g, st
}

// testCluster is a live in-process cluster: shard servers listening on
// loopback, plus the membership that reaches them.
type testCluster struct {
	membership *Membership
	shards     []*ShardServer
	stores     []*labelstore.Store
}

// startCluster partitions st by ring ownership over `shards` nodes with
// replication R and starts a ShardServer per partition. hooks[i], when
// set, becomes shard i's FaultHook.
func startCluster(t testing.TB, st *labelstore.Store, shards, r int, hooks map[int]func(byte) error) *testCluster {
	t.Helper()
	names := make([]Node, shards)
	for i := range names {
		names[i] = Node{Name: fmt.Sprintf("shard%d", i)}
	}
	ring := NewRing(names, r)
	parts := ring.Partition(st.NumVertices())

	tc := &testCluster{membership: &Membership{Replication: r}}
	for i := 0; i < shards; i++ {
		var buf bytes.Buffer
		// A shard holds only the vertices in its slice that the store has
		// a label for (region bundles cover a subset of [0,n)).
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
		srv, err := NewShardServer(ShardConfig{Store: ps, Name: names[i].Name, FaultHook: hooks[i]})
		if err != nil {
			t.Fatalf("NewShardServer %d: %v", i, err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
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
	return tc
}

// isLabelFetch reports whether op asks a shard for label records — what
// a test's FaultHook stalls or fails to make a shard slow or sick.
func isLabelFetch(op byte) bool {
	return op == OpGetLabelsGen || op == OpGetLabelsStored
}

func newTestFrontend(t testing.TB, tc *testCluster, mut func(*FrontendConfig)) *Frontend {
	t.Helper()
	cfg := FrontendConfig{
		Membership:     tc.membership,
		FetchTimeout:   2 * time.Second,
		DialTimeout:    500 * time.Millisecond,
		HealthInterval: 50 * time.Millisecond,
		HealthTimeout:  500 * time.Millisecond,
		StartupTimeout: 5 * time.Second,
	}
	if mut != nil {
		mut(&cfg)
	}
	f, err := NewFrontend(cfg)
	if err != nil {
		t.Fatalf("NewFrontend: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func labelBytes(t testing.TB, l *core.Label) []byte {
	t.Helper()
	buf, nbits := l.Encode()
	return buf[:(nbits+7)/8]
}

func TestClusterFetchMatchesStore(t *testing.T) {
	_, st := buildFullStore(t, 8)
	tc := startCluster(t, st, 3, 2, nil)
	f := newTestFrontend(t, tc, nil)

	if f.NumVertices() != st.NumVertices() {
		t.Fatalf("NumVertices = %d, want %d", f.NumVertices(), st.NumVertices())
	}
	if f.NumLabels() != st.NumLabels() {
		t.Fatalf("NumLabels = %d, want %d", f.NumLabels(), st.NumLabels())
	}
	ctx := context.Background()
	for v := 0; v < st.NumVertices(); v++ {
		got, err := f.Label(ctx, v)
		if err != nil {
			t.Fatalf("Label(%d): %v", v, err)
		}
		want, err := st.Label(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(labelBytes(t, got), labelBytes(t, want)) {
			t.Fatalf("label %d differs between cluster and local store", v)
		}
	}
	// Second pass is all cache hits.
	h0, _ := f.LabelCacheStats()
	for v := 0; v < st.NumVertices(); v++ {
		if _, err := f.Label(ctx, v); err != nil {
			t.Fatal(err)
		}
	}
	h1, _ := f.LabelCacheStats()
	if h1-h0 != int64(st.NumVertices()) {
		t.Fatalf("second pass hit the cache %d times, want %d", h1-h0, st.NumVertices())
	}
}

func TestClusterPrefetchWarmsCache(t *testing.T) {
	_, st := buildFullStore(t, 6)
	tc := startCluster(t, st, 3, 2, nil)
	f := newTestFrontend(t, tc, nil)
	ctx := context.Background()

	ids := []int{0, 5, 9, 14, 22, 30, 35, 35, -3, 9999} // dups and junk tolerated
	f.Prefetch(ctx, ids)
	h0, m0 := f.LabelCacheStats()
	for _, v := range []int{0, 5, 9, 14, 22, 30, 35} {
		if _, err := f.Label(ctx, v); err != nil {
			t.Fatalf("Label(%d) after prefetch: %v", v, err)
		}
	}
	h1, m1 := f.LabelCacheStats()
	if m1 != m0 {
		t.Fatalf("labels fetched again after prefetch: misses %d→%d", m0, m1)
	}
	if h1-h0 != 7 {
		t.Fatalf("prefetch warmed %d of 7 labels", h1-h0)
	}
}

func TestClusterFailoverWithReplicaUp(t *testing.T) {
	_, st := buildFullStore(t, 8)
	tc := startCluster(t, st, 3, 2, nil)
	f := newTestFrontend(t, tc, nil)
	ctx := context.Background()

	// Kill shard 0. Every label it owned as primary must still resolve
	// from its replica.
	tc.shards[0].Close()
	for v := 0; v < st.NumVertices(); v++ {
		if _, err := f.Label(ctx, v); err != nil {
			t.Fatalf("Label(%d) with shard0 down: %v", v, err)
		}
	}
	if f.met.failovers.Load() == 0 {
		t.Fatal("no failovers recorded though a shard was down")
	}
	var sb strings.Builder
	f.WriteMetrics(&sb)
	if !strings.Contains(sb.String(), "fsdl_cluster_failovers_total") {
		t.Fatal("metrics exposition missing failover counter")
	}
}

func TestClusterUnavailableWhenAllReplicasDown(t *testing.T) {
	_, st := buildFullStore(t, 6)
	tc := startCluster(t, st, 3, 1, nil) // R=1: no replicas
	f := newTestFrontend(t, tc, func(cfg *FrontendConfig) {
		cfg.FetchTimeout = 300 * time.Millisecond
	})
	ctx := context.Background()

	ring := tc.membership.Ring()
	victim := ring.Primary(0)
	tc.shards[victim].Close()
	// Give the health loop a beat to notice.
	time.Sleep(150 * time.Millisecond)

	sawUnavailable := false
	for v := 0; v < st.NumVertices(); v++ {
		_, err := f.Label(ctx, v)
		if ring.Primary(int32(v)) == victim {
			if err == nil {
				t.Fatalf("Label(%d) succeeded though its only owner is down", v)
			}
			if errors.Is(err, core.ErrNoLabel) {
				t.Fatalf("Label(%d): down shard misreported as absent label: %v", v, err)
			}
			sawUnavailable = true
		} else if err != nil {
			t.Fatalf("Label(%d) on a live shard: %v", v, err)
		}
	}
	if !sawUnavailable {
		t.Fatal("victim shard owned no vertices; test is vacuous")
	}
	if f.met.unavailable.Load() == 0 {
		t.Fatal("unavailable counter not incremented")
	}
}

func TestClusterAbsentLabelIsAuthoritative(t *testing.T) {
	g, _ := buildFullStore(t, 6)
	// A store covering only half the vertex space: queries for the rest
	// must come back "no label", not "unreachable".
	s, err := core.BuildScheme(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for v := 0; v < g.NumVertices()/2; v++ {
		ids = append(ids, v)
	}
	var buf bytes.Buffer
	if err := labelstore.Save(&buf, s, ids); err != nil {
		t.Fatal(err)
	}
	st, err := labelstore.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	tc := startCluster(t, st, 3, 2, nil)
	f := newTestFrontend(t, tc, nil)
	ctx := context.Background()

	if _, err := f.Label(ctx, 2); err != nil {
		t.Fatalf("present label: %v", err)
	}
	_, err = f.Label(ctx, g.NumVertices()-1)
	if err == nil || !errors.Is(err, core.ErrNoLabel) {
		t.Fatalf("absent label: got %v, want authoritative no-label error", err)
	}
	// The absence is negative-cached: a repeat lookup is served locally.
	n0 := f.met.negHits.Load()
	if _, err := f.Label(ctx, g.NumVertices()-1); err == nil {
		t.Fatal("absent label resolved on retry")
	}
	if f.met.negHits.Load() != n0+1 {
		t.Fatal("repeat absent lookup missed the negative cache")
	}
}

func TestClusterHedgeRacesSlowPrimary(t *testing.T) {
	_, st := buildFullStore(t, 6)
	// Pick a vertex and make its primary artificially slow; the hedge
	// must win via the replica long before the primary responds.
	names := []Node{{Name: "shard0"}, {Name: "shard1"}, {Name: "shard2"}}
	ring := NewRing(names, 2)
	const v = 17
	primary := ring.Primary(v)

	slow := make(chan struct{})
	hooks := map[int]func(byte) error{
		primary: func(op byte) error {
			if isLabelFetch(op) {
				<-slow // stall label fetches; pings stay fast
			}
			return nil
		},
	}
	tc := startCluster(t, st, 3, 2, hooks)
	defer close(slow)
	f := newTestFrontend(t, tc, func(cfg *FrontendConfig) {
		cfg.HedgeDelay = 20 * time.Millisecond
		cfg.FetchTimeout = 10 * time.Second // the stall must lose to the hedge, not to a timeout
	})

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := f.Label(ctx, v); err != nil {
		t.Fatalf("hedged Label: %v (after %v)", err, time.Since(start))
	}
	if f.met.hedges.Load() == 0 {
		t.Fatal("no hedge launched against the stalled primary")
	}
}

func TestShardServerProtocolErrors(t *testing.T) {
	_, st := buildFullStore(t, 4)
	srv, err := NewShardServer(ShardConfig{Store: st, Name: "s0"})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Unknown op → OpError, connection stays usable. 16 is the retired
	// alias-generation op: unassigned, so refused like any other, and a
	// shard's generation does not move.
	for _, unknown := range []byte{0x7f, 16} {
		if err := frame.Write(conn, unknown, AppendGeneration(nil, 2)); err != nil {
			t.Fatal(err)
		}
		op, _, err := frame.Read(conn)
		if err != nil || op != OpError || srv.Generation() != 1 {
			t.Fatalf("unknown op %d: got op=%d err=%v, generation %d; want OpError and generation 1", unknown, op, err, srv.Generation())
		}
	}
	// 1 is the retired untagged label request: a well-formed one is refused
	// like any unknown op, not answered.
	if err := frame.Write(conn, 1, AppendLabelRequest(nil, []int32{1})); err != nil {
		t.Fatal(err)
	}
	if op, payload, err := frame.Read(conn); err != nil || op != OpError || !strings.Contains(string(payload), "unknown op 1") {
		t.Fatalf("retired op 1: op=%d payload=%q err=%v, want OpError naming the unknown op", op, payload, err)
	}
	// Out-of-range vertex → OpError.
	if err := frame.Write(conn, OpGetLabelsGen, AppendGenLabelRequest(nil, 0, []int32{99})); err != nil {
		t.Fatal(err)
	}
	op, payload, err := frame.Read(conn)
	if err != nil || op != OpError || !strings.Contains(string(payload), "out of range") {
		t.Fatalf("out-of-range id: op=%d payload=%q err=%v", op, payload, err)
	}
	// A well-formed request still works on the same connection.
	if err := frame.Write(conn, OpGetLabelsGen, AppendGenLabelRequest(nil, 0, []int32{1})); err != nil {
		t.Fatal(err)
	}
	op, payload, err = frame.Read(conn)
	if err != nil || op != OpLabels {
		t.Fatalf("valid request after errors: op=%d err=%v", op, err)
	}
	if _, recs, err := ParseLabelResponse(payload); err != nil || len(recs) != 1 || !recs[0].Present {
		t.Fatalf("bad label response: %v", err)
	}
	// A corrupt frame poisons the connection: the server hangs up.
	bad := frame.Append(nil, OpPing, nil)
	bad[len(bad)-1] ^= 0xff
	if _, err := conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := frame.Read(conn); err == nil {
		t.Fatal("server answered a corrupt frame instead of hanging up")
	}
}

func TestFrontendStartupRequiresAShard(t *testing.T) {
	m := &Membership{Replication: 1, Nodes: []Node{{Name: "ghost", Addr: "127.0.0.1:1"}}}
	_, err := NewFrontend(FrontendConfig{
		Membership:     m,
		StartupTimeout: 300 * time.Millisecond,
		HealthTimeout:  100 * time.Millisecond,
		DialTimeout:    100 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("frontend started with no reachable shard")
	}
}

// TestShardResponseChunkingMatchesStore shrinks the per-frame budgets
// so every batch fetch crosses the chunking paths — multi-frame
// OpLabelsPart responses and split label requests — and verifies
// the reassembled labels are byte-identical to the local store.
func TestShardResponseChunkingMatchesStore(t *testing.T) {
	_, st := buildFullStore(t, 8)
	// Budget: the largest single record plus slack, so every record fits
	// a frame but any two large ones force a chunk boundary.
	maxRec := 0
	for _, v := range st.Vertices() {
		if bits, _, ok := st.Raw(v); ok {
			r := LabelRecord{Vertex: int32(v), Present: true, Bits: bits}
			if sz := r.wireSize(); sz > maxRec {
				maxRec = sz
			}
		}
	}
	defer func(a, b int) { maxLabelChunkPayload, maxRequestIDs = a, b }(maxLabelChunkPayload, maxRequestIDs)
	maxLabelChunkPayload = maxRec + 64
	maxRequestIDs = 7

	tc := startCluster(t, st, 2, 1, nil)
	f := newTestFrontend(t, tc, nil)
	ctx := context.Background()

	ids := make([]int, st.NumVertices())
	for v := range ids {
		ids[v] = v
	}
	f.Prefetch(ctx, ids)
	for v := 0; v < st.NumVertices(); v++ {
		got, err := f.Label(ctx, v)
		if err != nil {
			t.Fatalf("Label(%d) with chunked wire: %v", v, err)
		}
		want, err := st.Label(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(labelBytes(t, got), labelBytes(t, want)) {
			t.Fatalf("label %d differs through chunked fetch", v)
		}
	}

	// A direct big request must actually produce continuation frames.
	conn, err := net.Dial("tcp", tc.membership.Nodes[0].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	all := make([]int32, st.NumVertices())
	for v := range all {
		all[v] = int32(v)
	}
	if err := frame.Write(conn, OpGetLabelsGen, AppendGenLabelRequest(nil, 0, all)); err != nil {
		t.Fatal(err)
	}
	frames := 0
	for {
		op, payload, err := frame.Read(conn)
		if err != nil {
			t.Fatalf("frame %d: %v", frames, err)
		}
		if op != OpLabels && op != OpLabelsPart {
			t.Fatalf("frame %d: unexpected op %d (%s)", frames, op, payload)
		}
		if len(payload) > maxLabelChunkPayload {
			t.Fatalf("chunk payload %d exceeds budget %d", len(payload), maxLabelChunkPayload)
		}
		if _, _, err := ParseLabelResponse(payload); err != nil {
			t.Fatalf("chunk %d does not parse: %v", frames, err)
		}
		frames++
		if op == OpLabels {
			break
		}
	}
	if frames < 2 {
		t.Fatalf("big response arrived in %d frame(s); chunking never engaged", frames)
	}
}

// TestShardOversizedRecordAnswersError pins the no-panic contract: when
// even a single record cannot fit a frame, the shard answers OpError on
// a live connection instead of dying in frame.Append.
func TestShardOversizedRecordAnswersError(t *testing.T) {
	_, st := buildFullStore(t, 4)
	defer func(a int) { maxLabelChunkPayload = a }(maxLabelChunkPayload)
	maxLabelChunkPayload = 8 // below even the chunk header

	srv, err := NewShardServer(ShardConfig{Store: st, Name: "s0"})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := frame.Write(conn, OpGetLabelsGen, AppendGenLabelRequest(nil, 0, []int32{1})); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	op, payload, err := frame.Read(conn)
	if err != nil {
		t.Fatalf("shard dropped the connection instead of answering: %v", err)
	}
	if op != OpError || !strings.Contains(string(payload), "too large") {
		t.Fatalf("got op=%d payload=%q, want OpError about an oversized label", op, payload)
	}
	// The connection survives for well-formed traffic.
	if err := frame.Write(conn, OpPing, nil); err != nil {
		t.Fatal(err)
	}
	if op, _, err = frame.Read(conn); err != nil || op != OpPong {
		t.Fatalf("connection unusable after oversize error: op=%d err=%v", op, err)
	}
}

// TestSalvagedShardFailsOverToReplica: a shard running off a
// salvage-loaded partition answers lost records with the "unknown"
// state, so the frontend advances to an intact replica instead of
// negative-caching the loss into a permanent 404.
func TestSalvagedShardFailsOverToReplica(t *testing.T) {
	_, st := buildFullStore(t, 6)

	// shard1's copy is damaged: truncate the serialized store so the
	// tail records are lost in salvage.
	var buf bytes.Buffer
	if err := labelstore.Write(&buf, st, st.Vertices()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	salvStore, rep, err := labelstore.LoadPartial(bytes.NewReader(full[:len(full)-100]))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost() == 0 {
		t.Fatal("truncation lost no records; test is vacuous")
	}

	mk := func(cfg ShardConfig) string {
		t.Helper()
		srv, err := NewShardServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		return ln.Addr().String()
	}
	addr0 := mk(ShardConfig{Store: st, Name: "shard0"})
	addr1 := mk(ShardConfig{Store: salvStore, Name: "shard1"})

	// R=2 over two shards: both own every vertex, so each lost label has
	// an intact replica at shard0 regardless of who is primary.
	m := &Membership{Replication: 2, Nodes: []Node{
		{Name: "shard0", Addr: addr0},
		{Name: "shard1", Addr: addr1},
	}}
	f := newTestFrontend(t, &testCluster{membership: m}, nil)
	ctx := context.Background()

	// Every label must resolve — salvage loss on one replica is not
	// absence — and none may land in the negative cache.
	for v := 0; v < st.NumVertices(); v++ {
		got, err := f.Label(ctx, v)
		if err != nil {
			t.Fatalf("Label(%d) with a salvaged replica: %v", v, err)
		}
		want, err := st.Label(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(labelBytes(t, got), labelBytes(t, want)) {
			t.Fatalf("label %d differs after salvage failover", v)
		}
	}
	if f.met.unavailable.Load() != 0 {
		t.Fatalf("%d labels reported unavailable though shard0 holds everything", f.met.unavailable.Load())
	}

	// The wire answer for a lost vertex is the unknown state, not
	// authoritative absence.
	lost := -1
	for _, v := range st.Vertices() {
		if !salvStore.Has(v) {
			lost = v
			break
		}
	}
	if lost < 0 {
		t.Fatal("no lost vertex found")
	}
	conn, err := net.Dial("tcp", addr1)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := frame.Write(conn, OpGetLabelsGen, AppendGenLabelRequest(nil, 0, []int32{int32(lost)})); err != nil {
		t.Fatal(err)
	}
	op, payload, err := frame.Read(conn)
	if err != nil || op != OpLabels {
		t.Fatalf("salvaged shard: op=%d err=%v", op, err)
	}
	_, recs, err := ParseLabelResponse(payload)
	if err != nil || len(recs) != 1 {
		t.Fatalf("bad response from salvaged shard: %v", err)
	}
	if recs[0].Present || !recs[0].Unknown {
		t.Fatalf("lost record answered present=%v unknown=%v, want the unknown state", recs[0].Present, recs[0].Unknown)
	}
}

// TestSweepHealthExcludesMismatchedShard: a shard that comes (back) up
// serving a partition from a different store must be excluded from
// routing by the health sweep, not merely fail every fetch.
func TestSweepHealthExcludesMismatchedShard(t *testing.T) {
	_, st := buildFullStore(t, 6)  // n = 36
	_, st2 := buildFullStore(t, 4) // n = 16: a different store entirely

	shards := []*restartableShard{
		{store: st, name: "shard0", addr: "127.0.0.1:0"},
		{store: st, name: "shard1", addr: "127.0.0.1:0"},
	}
	m := &Membership{Replication: 1}
	for _, sh := range shards {
		sh.start(t)
		m.Nodes = append(m.Nodes, Node{Name: sh.name, Addr: sh.addr})
	}
	t.Cleanup(func() {
		for _, sh := range shards {
			sh.stop()
		}
	})
	f := newTestFrontend(t, &testCluster{membership: m}, func(cfg *FrontendConfig) {
		cfg.HealthInterval = 25 * time.Millisecond
	})

	// shard1 restarts on the same address with the wrong store.
	shards[1].stop()
	shards[1].store = st2
	shards[1].start(t)

	deadline := time.Now().Add(3 * time.Second)
	for {
		h := f.Health()
		if !h[1].Healthy && h[1].Mismatched {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mismatched shard still healthy=%v mismatched=%v after restart with wrong store", h[1].Healthy, h[1].Mismatched)
		}
		time.Sleep(20 * time.Millisecond)
	}
	var sb strings.Builder
	f.WriteMetrics(&sb)
	if !strings.Contains(sb.String(), `fsdl_cluster_shard_mismatched{shard="shard1"} 1`) {
		t.Fatal("metrics exposition missing the mismatched-shard gauge")
	}
	// shard0 stays healthy and keeps serving its slice.
	if h := f.Health(); !h[0].Healthy {
		t.Fatal("intact shard went unhealthy")
	}
}
