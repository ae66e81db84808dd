package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"fsdl/internal/graph"
	"fsdl/internal/liveupdate"
)

// bfsAvoid is the ground truth: the true distance in g avoiding the
// fault set.
func bfsAvoid(g *graph.Graph, src, dst int, faults *graph.FaultSet) (int64, bool) {
	if faults != nil && (faults.HasVertex(src) || faults.HasVertex(dst)) {
		return 0, false
	}
	n := g.NumVertices()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == dst {
			return dist[u], true
		}
		for _, w := range g.Neighbors(u) {
			v := int(w)
			if dist[v] >= 0 {
				continue
			}
			if faults != nil && (faults.HasVertex(v) || faults.HasEdge(u, v)) {
				continue
			}
			dist[v] = dist[u] + 1
			queue = append(queue, v)
		}
	}
	return 0, false
}

// newLiveServer builds a local-store server with a WAL-backed live
// pipeline rooted in a temp dir.
func newLiveServer(t *testing.T, side int) (*Server, *graph.Graph, string) {
	t.Helper()
	g, st := testStore(t, side, side, 2)
	root := t.TempDir()
	p, err := liveupdate.Open(liveupdate.Config{Base: g, WALPath: filepath.Join(root, "mutations.wal")})
	if err != nil {
		t.Fatalf("liveupdate.Open: %v", err)
	}
	s := newTestServer(t, Config{Store: st, Live: p, LiveRoot: root, CacheCapacity: -1})
	return s, g, root
}

// TestLiveMutateQueryCompact walks the full local live-update cycle:
// mutations suspend exactness but keep answers sound (deletions as
// soft faults, insertions as patches), compaction bakes the delta into
// generation 2 and swaps it in, and exactness returns.
func TestLiveMutateQueryCompact(t *testing.T) {
	s, _, _ := newLiveServer(t, 6)
	ctx := context.Background()

	// Baseline: exact answers, no delta.
	a, err := s.Distance(ctx, 0, 35, nil)
	if err != nil || a.Error != "" || !a.Exact {
		t.Fatalf("baseline answer: %+v err=%v", a, err)
	}

	// Stream a batch: drop the (0,1) corner edge, bridge the diagonal.
	st, err := s.Mutate([]liveupdate.Mutation{
		{Op: liveupdate.MutDelete, U: 0, V: 1},
		{Op: liveupdate.MutInsert, U: 0, V: 35},
	})
	if err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	if st.Pending != 2 || st.Exact || st.Generation != 1 {
		t.Fatalf("mutate state %+v", st)
	}

	// The pipeline's effective graph is the ground truth from here on.
	snap, err := s.live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	gPrime := snap.Graph

	// The inserted edge is visible immediately via the patch tier: the
	// two corners are now adjacent, and the answer must say so while
	// flying the exact:false flag.
	a, err = s.Distance(ctx, 0, 35, nil)
	if err != nil || a.Error != "" {
		t.Fatalf("patched answer: %+v err=%v", a, err)
	}
	if a.Exact || !a.Connected || a.Dist != 1 {
		t.Fatalf("patched (0,35): %+v, want dist 1, exact false", a)
	}

	// The deleted edge is a soft fault: d(0,1) must reflect the detour
	// (≥ the true mutated distance), never the stale direct edge.
	want, ok := bfsAvoid(gPrime, 0, 1, graph.NewFaultSet())
	if !ok {
		t.Fatal("ground truth disconnected")
	}
	a, err = s.Distance(ctx, 0, 1, nil)
	if err != nil || a.Error != "" || !a.Connected {
		t.Fatalf("post-delete answer: %+v err=%v", a, err)
	}
	if a.Exact || a.Dist < want {
		t.Fatalf("post-delete (0,1): %+v, want sound upper bound on %d, exact false", a, want)
	}

	// State surfaces the delta.
	snapState := s.Snapshot()
	if snapState.LivePending != 2 || snapState.LiveGeneration != 1 || snapState.LiveSeq != 2 {
		t.Fatalf("state %+v", snapState)
	}

	// Compact: generation 2 is built, swapped into the store source and
	// committed; answers are exact again and still sound.
	res, err := s.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if res.Generation != 2 || res.Pending != 0 {
		t.Fatalf("compact result %+v", res)
	}
	for _, pair := range [][2]int{{0, 35}, {0, 1}, {5, 30}} {
		want, ok := bfsAvoid(gPrime, pair[0], pair[1], graph.NewFaultSet())
		a, err := s.Distance(ctx, pair[0], pair[1], nil)
		if err != nil || a.Error != "" {
			t.Fatalf("post-compact (%d,%d): %+v err=%v", pair[0], pair[1], a, err)
		}
		if !a.Exact {
			t.Fatalf("post-compact (%d,%d) not exact: %+v", pair[0], pair[1], a)
		}
		if a.Connected != ok || (ok && a.Dist < want) {
			t.Fatalf("post-compact (%d,%d): %+v, truth %d/%v", pair[0], pair[1], a, want, ok)
		}
	}

	// The WAL saw every batch plus the compaction marker.
	if s.WALFlushedTotal() == 0 {
		t.Fatal("no WAL flushes recorded")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestLiveMetricsExposition: the live counters — fsdl_wal_flushed_total
// above all — appear in /metrics once a pipeline is attached.
func TestLiveMetricsExposition(t *testing.T) {
	s, _, _ := newLiveServer(t, 4)
	if _, err := s.Mutate([]liveupdate.Mutation{{Op: liveupdate.MutDelete, U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	for _, want := range []string{
		"fsdl_wal_flushed_total 1",
		"fsdl_live_deletes_total 1",
		"fsdl_live_pending 1",
		"fsdl_live_generation 1",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// A live-less server exposes none of it.
	_, st := testStore(t, 4, 4, 2)
	plain := newTestServer(t, Config{Store: st})
	if strings.Contains(plain.Metrics(), "fsdl_live_") {
		t.Error("live metrics leaked into a live-less server")
	}
}

// TestMutateBatchAtomicity: a batch with one invalid mutation applies
// nothing, and validation sees earlier entries of the same batch.
func TestMutateBatchAtomicity(t *testing.T) {
	s, _, _ := newLiveServer(t, 4)
	if _, err := s.Mutate([]liveupdate.Mutation{
		{Op: liveupdate.MutDelete, U: 0, V: 1},
		{Op: liveupdate.MutDelete, U: 0, V: 1}, // already gone mid-batch
	}); err == nil {
		t.Fatal("double delete accepted")
	}
	if p := s.live.Pending(); p != 0 {
		t.Fatalf("failed batch left %d pending edges", p)
	}
	// Insert-then-delete of the same edge inside one batch is legal and
	// nets out to nothing.
	if _, err := s.Mutate([]liveupdate.Mutation{
		{Op: liveupdate.MutInsert, U: 0, V: 5},
		{Op: liveupdate.MutDelete, U: 0, V: 5},
	}); err != nil {
		t.Fatalf("insert+delete batch: %v", err)
	}
	if p := s.live.Pending(); p != 0 {
		t.Fatalf("net-zero batch left %d pending edges", p)
	}
}

// TestMutateHTTP drives /v1/mutate and /v1/compact over the wire:
// happy path, validation failures, and the 400 on a live-less server.
func TestMutateHTTP(t *testing.T) {
	s, _, _ := newLiveServer(t, 6)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/mutate", map[string]any{
		"mutations": []map[string]any{
			{"op": "insert", "u": 0, "v": 35},
			{"op": "delete", "u": 0, "v": 1},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %d %s", resp.StatusCode, body)
	}
	var ms MutateState
	if err := json.Unmarshal(body, &ms); err != nil || ms.Seq != 2 || ms.Pending != 2 || ms.Exact {
		t.Fatalf("mutate response %s (err %v)", body, err)
	}

	// Query over HTTP reflects the insertion, exact:false.
	resp, body = postJSON(t, ts.URL+"/v1/distance", map[string]any{"s": 0, "t": 35})
	var a Answer
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &a) != nil {
		t.Fatalf("distance: %d %s", resp.StatusCode, body)
	}
	if a.Exact || a.Dist != 1 {
		t.Fatalf("live distance answer %s", body)
	}

	resp, body = postJSON(t, ts.URL+"/v1/compact", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact: %d %s", resp.StatusCode, body)
	}
	var cr CompactResult
	if err := json.Unmarshal(body, &cr); err != nil || cr.Generation != 2 || cr.Pending != 0 {
		t.Fatalf("compact response %s (err %v)", body, err)
	}

	// Validation failures are 400s.
	for _, bad := range []any{
		map[string]any{"mutations": []map[string]any{}},
		map[string]any{"mutations": []map[string]any{{"op": "replace", "u": 0, "v": 1}}},
		map[string]any{"mutations": []map[string]any{{"op": "delete", "u": 0, "v": 1}}}, // already deleted
	} {
		if resp, _ := postJSON(t, ts.URL+"/v1/mutate", bad); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad mutate %v: %d, want 400", bad, resp.StatusCode)
		}
	}

	// A server without a pipeline refuses both endpoints.
	_, st := testStore(t, 4, 4, 2)
	plain := newTestServer(t, Config{Store: st})
	tsPlain := httptest.NewServer(plain.Handler())
	defer tsPlain.Close()
	if resp, _ := postJSON(t, tsPlain.URL+"/v1/mutate", map[string]any{
		"mutations": []map[string]any{{"op": "insert", "u": 0, "v": 9}},
	}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mutate without pipeline: %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, tsPlain.URL+"/v1/compact", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("compact without pipeline: %d, want 400", resp.StatusCode)
	}
}

// TestLiveDeltaReadAsOneState: a batch reads the pending deletions and
// the pending inserts of one state of the delta. On a path 0–30 with a
// 10-edge detour from 0 to 1, the delta flips between empty (d(0,30) =
// 30) and {delete (0,1), insert (1,30)} (d = 11) as fast as Apply takes
// it. Deletions of the empty state beside the inserts of the other would
// let a query take (0,1) and then (1,30): δ = 2, below the distance in
// either state. No answer may come in under 11.
func TestLiveDeltaReadAsOneState(t *testing.T) {
	b := graph.NewBuilder(40)
	for i := 0; i < 30; i++ {
		b.AddEdge(i, i+1)
	}
	b.AddEdge(0, 31)
	for i := 31; i < 39; i++ {
		b.AddEdge(i, i+1)
	}
	b.AddEdge(39, 1)
	g := b.MustBuild()
	p, err := liveupdate.Open(liveupdate.Config{Base: g})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Store: storeOf(t, g, 2), Live: p, CacheCapacity: -1})
	flip := [2][]liveupdate.Mutation{
		{{Op: liveupdate.MutDelete, U: 0, V: 1}, {Op: liveupdate.MutInsert, U: 1, V: 30}},
		{{Op: liveupdate.MutInsert, U: 0, V: 1}, {Op: liveupdate.MutDelete, U: 1, V: 30}},
	}
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	done := make(chan error, 1)
	go func() {
		for i := 0; ctx.Err() == nil; i++ {
			if _, err := p.Apply(flip[i%2]); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	const readers, rounds = 2, 3000
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		go func() {
			for i := 0; i < rounds; i++ {
				a, err := s.AnswerPairs(context.Background(), [][2]int{{0, 30}}, nil)
				if err != nil {
					errs <- err
					return
				}
				if !a[0].Connected || a[0].Dist < 11 {
					errs <- fmt.Errorf("round %d: answered %+v, below d(0,30) in every state of the delta", i, a[0])
					return
				}
			}
			errs <- nil
		}()
	}
	for r := 0; r < readers; r++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	stop()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
