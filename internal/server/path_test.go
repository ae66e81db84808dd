package server

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"fsdl/internal/graph"
	"fsdl/internal/liveupdate"
)

// checkAnswerWalk validates one answer's witness walk against the
// ground-truth graph: endpoints match, every hop is realizable in
// truth\F at exactly the weight it contributed (patch hops — inserted
// edges not yet baked into truth's labels — count 1), and the hop
// weights sum to the reported distance.
func checkAnswerWalk(t *testing.T, truth *graph.Graph, faults *graph.FaultSet, patches map[[2]int32]bool, a Answer) {
	t.Helper()
	if !a.Connected {
		if len(a.Path) != 0 {
			t.Fatalf("(%d,%d): disconnected answer carries a path %v", a.S, a.T, a.Path)
		}
		return
	}
	p := a.Path
	if len(p) == 0 {
		t.Fatalf("(%d,%d): connected path answer carries no path", a.S, a.T)
	}
	if int(p[0]) != a.S || int(p[len(p)-1]) != a.T {
		t.Fatalf("(%d,%d): path endpoints %d..%d", a.S, a.T, p[0], p[len(p)-1])
	}
	var total int64
	for i := 1; i < len(p); i++ {
		u, v := p[i-1], p[i]
		if patches[[2]int32{u, v}] || patches[[2]int32{v, u}] {
			total++
			continue
		}
		d, ok := bfsAvoid(truth, int(u), int(v), faults)
		if !ok {
			t.Fatalf("(%d,%d): hop %d-%d not realizable avoiding F", a.S, a.T, u, v)
		}
		total += d
	}
	if total != a.Dist {
		t.Fatalf("(%d,%d): walk weighs %d, answer says %d (path %v)", a.S, a.T, total, a.Dist, p)
	}
}

// TestAnswerPairsPath answers a fault-laden batch with path reporting
// on and verifies every witness walk end-to-end against the graph.
func TestAnswerPairsPath(t *testing.T) {
	const side = 10
	g, st := testStore(t, side, side, 2)
	s := newTestServer(t, Config{Store: st})
	n := g.NumVertices()

	rng := rand.New(rand.NewSource(11))
	faults := graph.NewFaultSet()
	for faults.NumVertices() < 5 {
		faults.AddVertex(1 + rng.Intn(n-2))
	}
	var pairs [][2]int
	for len(pairs) < 40 {
		pairs = append(pairs, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	ans, err := s.AnswerPairs(context.Background(), pairs, &QueryOptions{Faults: faults, Path: true})
	if err != nil {
		t.Fatalf("AnswerPairs: %v", err)
	}
	for _, a := range ans {
		if a.Error != "" {
			continue // forbidden endpoint et al. — no walk expected
		}
		checkAnswerWalk(t, g, faults, nil, a)
	}

	// Distance-only answers must not grow paths.
	ans, err = s.AnswerPairs(context.Background(), pairs[:5], &QueryOptions{Faults: faults})
	if err != nil {
		t.Fatalf("AnswerPairs: %v", err)
	}
	for _, a := range ans {
		if len(a.Path) != 0 {
			t.Fatalf("distance-only answer for (%d,%d) carries a path", a.S, a.T)
		}
	}
}

// TestPathCacheSeparation is the regression test for the result-cache
// key: path and distance-only answers for the same (s,t,F) are
// different payloads and must never substitute for one another.
func TestPathCacheSeparation(t *testing.T) {
	g, st := testStore(t, 8, 8, 2)
	s := newTestServer(t, Config{Store: st})
	n := g.NumVertices()
	ctx := context.Background()

	// Seed the cache with the distance-only answer.
	plain, err := s.Distance(ctx, 0, n-1, nil)
	if err != nil || plain.Error != "" {
		t.Fatalf("plain query: %v / %q", err, plain.Error)
	}
	// The path query for the same (s,t,F) must decode fresh, not serve
	// the cached pathless answer.
	withPath, err := s.Distance(ctx, 0, n-1, &QueryOptions{Path: true})
	if err != nil || withPath.Error != "" {
		t.Fatalf("path query: %v / %q", err, withPath.Error)
	}
	if withPath.Cached {
		t.Fatal("path query served from the distance-only cache entry")
	}
	if len(withPath.Path) == 0 {
		t.Fatal("path query returned no path")
	}
	if withPath.Dist != plain.Dist {
		t.Fatalf("path query dist %d != plain dist %d", withPath.Dist, plain.Dist)
	}
	// Repeats hit their own entries, payload intact either way.
	again, err := s.Distance(ctx, 0, n-1, &QueryOptions{Path: true})
	if err != nil || !again.Cached || len(again.Path) == 0 {
		t.Fatalf("cached path answer lost its path: %+v err=%v", again, err)
	}
	plainAgain, err := s.Distance(ctx, 0, n-1, nil)
	if err != nil || !plainAgain.Cached || len(plainAgain.Path) != 0 {
		t.Fatalf("cached plain answer grew a path: %+v err=%v", plainAgain, err)
	}
}

// TestHTTPDistancePath drives path reporting over the wire: "path":true
// returns the walk and its absence omits the field. The retired
// "dynamic" field is rejected like any unknown field: a client still
// sending it learns the dynamic-oracle path is gone instead of silently
// getting a label-decoded answer.
func TestHTTPDistancePath(t *testing.T) {
	g, st := testStore(t, 6, 6, 2)
	s := newTestServer(t, Config{Store: st})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/distance", map[string]any{"s": 0, "t": 35, "fail": []int{7}, "path": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("distance+path: %d %s", resp.StatusCode, body)
	}
	var a Answer
	if err := json.Unmarshal(body, &a); err != nil {
		t.Fatalf("unmarshal %s: %v", body, err)
	}
	faults := graph.NewFaultSet()
	faults.AddVertex(7)
	checkAnswerWalk(t, g, faults, nil, a)

	resp, body = postJSON(t, ts.URL+"/v1/distance", map[string]any{"s": 0, "t": 35})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("distance: %d %s", resp.StatusCode, body)
	}
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	if _, has := raw["path"]; has {
		t.Fatalf("pathless answer leaked a path field: %s", body)
	}

	if resp, body = postJSON(t, ts.URL+"/v1/distance", map[string]any{"s": 0, "t": 35, "dynamic": true}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf(`"dynamic":true answered %d, want 400: %s`, resp.StatusCode, body)
	}
}

// TestLivePathUnderPatches verifies witness walks while a live delta is
// pending (deletions as soft faults, insertions as patch hops) and
// again after compaction bakes the delta in.
func TestLivePathUnderPatches(t *testing.T) {
	s, _, _ := newLiveServer(t, 6)
	ctx := context.Background()

	if _, err := s.Mutate([]liveupdate.Mutation{
		{Op: liveupdate.MutDelete, U: 0, V: 1},
		{Op: liveupdate.MutInsert, U: 0, V: 35},
	}); err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	snap, err := s.live.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	truth := snap.Graph // grid minus (0,1) plus (0,35)
	patches := map[[2]int32]bool{{0, 35}: true}

	a, err := s.Distance(ctx, 0, 35, &QueryOptions{Path: true})
	if err != nil || a.Error != "" {
		t.Fatalf("patched path query: %+v err=%v", a, err)
	}
	if a.Dist != 1 {
		t.Fatalf("patched distance %d, want 1 (inserted edge)", a.Dist)
	}
	checkAnswerWalk(t, truth, graph.NewFaultSet(), patches, a)

	// Compaction bakes the delta: the same query now walks generation-2
	// sketch edges, no patch hops needed.
	if _, err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	a, err = s.Distance(ctx, 0, 35, &QueryOptions{Path: true})
	if err != nil || a.Error != "" || !a.Exact {
		t.Fatalf("post-compact path query: %+v err=%v", a, err)
	}
	checkAnswerWalk(t, truth, graph.NewFaultSet(), nil, a)
}
