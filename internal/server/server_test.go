package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"fsdl/internal/core"
	"fsdl/internal/gen"
	"fsdl/internal/graph"
	"fsdl/internal/labelstore"
	"fsdl/internal/oracle"
)

// testStore builds a grid scheme and round-trips it through the
// labelstore container, the way a deployed server receives it.
func testStore(t *testing.T, w, h int, eps float64) (*graph.Graph, *labelstore.Store) {
	t.Helper()
	g := gen.Grid2D(w, h)
	return g, storeOf(t, g, eps)
}

// storeOf round-trips g's scheme through the label container.
func storeOf(t *testing.T, g *graph.Graph, eps float64) *labelstore.Store {
	t.Helper()
	s, err := core.BuildScheme(g, eps)
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
	return st
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// TestBatchMatchesStaticOracle is the acceptance-criterion check at
// unit scale (`go run ./bench` repeats it, against BFS, on every answer
// of four served workloads): a batch of
// ≥100 pairs with a shared fault set must answer every pair exactly as
// oracle.Static.Distance does.
func TestBatchMatchesStaticOracle(t *testing.T) {
	const side, eps = 20, 2.0
	g, st := testStore(t, side, side, eps)
	s := newTestServer(t, Config{Store: st})
	static, err := oracle.BuildStatic(g, eps)
	if err != nil {
		t.Fatalf("BuildStatic: %v", err)
	}

	rng := rand.New(rand.NewSource(7))
	faults := graph.NewFaultSet()
	for faults.NumVertices() < 8 {
		faults.AddVertex(rng.Intn(g.NumVertices()))
	}
	var pairs [][2]int
	for len(pairs) < 120 {
		pairs = append(pairs, [2]int{rng.Intn(g.NumVertices()), rng.Intn(g.NumVertices())})
	}

	answers, err := s.AnswerPairs(context.Background(), pairs, &QueryOptions{Faults: faults})
	if err != nil {
		t.Fatalf("AnswerPairs: %v", err)
	}
	for i, a := range answers {
		if a.Error != "" {
			t.Fatalf("pair %v: unexpected error %q", pairs[i], a.Error)
		}
		if !a.Exact {
			t.Errorf("pair %v: expected exact answer, got degraded=%v budget=%v", pairs[i], a.Degraded, a.BudgetExhausted)
		}
		want, wantOK, err := static.Distance(pairs[i][0], pairs[i][1], faults)
		if err != nil {
			t.Fatalf("static.Distance(%v): %v", pairs[i], err)
		}
		if a.Connected != wantOK || (wantOK && a.Dist != want) {
			t.Errorf("pair %v: server (%d,%v) != static oracle (%d,%v)",
				pairs[i], a.Dist, a.Connected, want, wantOK)
		}
	}
}

func TestCacheHitsAndFlushOnFail(t *testing.T) {
	g, st := testStore(t, 8, 8, 2)
	s := newTestServer(t, Config{Store: st})
	n := g.NumVertices()

	first, err := s.Distance(context.Background(), 0, n-1, nil)
	if err != nil || first.Error != "" {
		t.Fatalf("first query: %v / %q", err, first.Error)
	}
	if first.Cached {
		t.Error("first answer claims cached")
	}
	second, err := s.Distance(context.Background(), 0, n-1, nil)
	if err != nil {
		t.Fatalf("second query: %v", err)
	}
	if !second.Cached || second.Dist != first.Dist {
		t.Errorf("second answer cached=%v dist=%d, want cached copy of %d", second.Cached, second.Dist, first.Dist)
	}
	if s.met.cacheHits.Load() != 1 || s.met.cacheMisses.Load() != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", s.met.cacheHits.Load(), s.met.cacheMisses.Load())
	}

	// A different budget is a different cache key.
	third, err := s.Distance(context.Background(), 0, n-1, &QueryOptions{Budget: 100000})
	if err != nil {
		t.Fatalf("budget query: %v", err)
	}
	if third.Cached {
		t.Error("different budget must not hit the no-budget entry")
	}

	// fail flushes the cache and the overlay changes the answer.
	if err := s.Fail([]int{1}, nil); err != nil {
		t.Fatalf("Fail: %v", err)
	}
	if s.cache.Len() != 0 {
		t.Errorf("cache not flushed: %d entries", s.cache.Len())
	}
	if s.met.cacheFlushes.Load() != 1 {
		t.Errorf("cacheFlushes = %d", s.met.cacheFlushes.Load())
	}
	after, err := s.Distance(context.Background(), 0, n-1, nil)
	if err != nil {
		t.Fatalf("post-fail query: %v", err)
	}
	if after.Cached {
		t.Error("post-fail answer served from flushed cache")
	}
	want := g.DistAvoiding(0, n-1, graph.FaultVertices(1))
	if !after.Connected || after.Dist < int64(want) {
		t.Errorf("post-fail dist %d (connected %v), want ≥ exact %d", after.Dist, after.Connected, want)
	}
	// A query against the failed vertex itself: forbidden endpoint.
	forb, err := s.Distance(context.Background(), 1, 5, nil)
	if err != nil {
		t.Fatalf("forbidden query: %v", err)
	}
	if forb.Connected || !forb.Exact {
		t.Errorf("failed endpoint: connected=%v exact=%v, want false/true", forb.Connected, forb.Exact)
	}

	// recover flushes again and restores the original verdict.
	if err := s.Recover([]int{1}, nil); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	restored, err := s.Distance(context.Background(), 0, n-1, nil)
	if err != nil {
		t.Fatalf("post-recover query: %v", err)
	}
	if restored.Dist != first.Dist {
		t.Errorf("post-recover dist %d, want %d", restored.Dist, first.Dist)
	}
}

// TestBudgetDegradesToUpperBound checks the admission-control contract:
// a query whose work budget is exhausted answers with a safe upper
// bound flagged exact: false, not an error.
func TestBudgetDegradesToUpperBound(t *testing.T) {
	g, st := testStore(t, 12, 12, 2)
	s := newTestServer(t, Config{Store: st})
	rng := rand.New(rand.NewSource(3))
	faults := graph.NewFaultSet()
	for faults.NumVertices() < 6 {
		v := rng.Intn(g.NumVertices())
		if v != 0 && v != g.NumVertices()-1 {
			faults.AddVertex(v)
		}
	}
	exact := g.DistAvoiding(0, g.NumVertices()-1, faults)
	if !graph.Reachable(exact) {
		t.Fatal("test instance disconnected; pick different faults")
	}
	// Walk budgets upward until one truncates fault decoding while
	// endpoint labels still fit: a connected, inexact answer. The
	// decode order (S, T, then faults) guarantees such a window exists.
	found := false
	for budget := 1; budget <= 1<<20; budget *= 2 {
		a, err := s.Distance(context.Background(), 0, g.NumVertices()-1,
			&QueryOptions{Faults: faults, Budget: budget})
		if err != nil || a.Error != "" {
			t.Fatalf("budget %d: %v / %q", budget, err, a.Error)
		}
		if a.Connected && !a.Exact {
			found = true
			if !a.BudgetExhausted {
				t.Errorf("budget %d: inexact answer without BudgetExhausted", budget)
			}
			if a.Dist < int64(exact) {
				t.Errorf("budget %d: dist %d underestimates exact %d — safety violated", budget, a.Dist, exact)
			}
			break
		}
		if a.Exact {
			break // budget is already big enough for a full decode
		}
	}
	if !found {
		t.Fatal("no budget produced a connected exact:false answer")
	}
	if s.met.budgetExhausted.Load() == 0 {
		t.Error("budgetExhausted counter never incremented")
	}
}

func TestDegradedFaultLabels(t *testing.T) {
	// A store missing one fault's label must answer degraded, not fail.
	g := gen.Grid2D(8, 8)
	sch, err := core.BuildScheme(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	keep := make([]int, 0, g.NumVertices()-1)
	const missing = 27
	for v := 0; v < g.NumVertices(); v++ {
		if v != missing {
			keep = append(keep, v)
		}
	}
	var buf bytes.Buffer
	if err := labelstore.Save(&buf, sch, keep); err != nil {
		t.Fatal(err)
	}
	st, err := labelstore.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Store: st})
	faults := graph.FaultVertices(missing)
	a, err := s.Distance(context.Background(), 0, g.NumVertices()-1, &QueryOptions{Faults: faults})
	if err != nil || a.Error != "" {
		t.Fatalf("query: %v / %q", err, a.Error)
	}
	if a.Exact || !a.Degraded {
		t.Errorf("exact=%v degraded=%v, want inexact degraded", a.Exact, a.Degraded)
	}
	if len(a.MissingFaultLabels) != 1 || a.MissingFaultLabels[0] != missing {
		t.Errorf("MissingFaultLabels = %v, want [%d]", a.MissingFaultLabels, missing)
	}
	exact := g.DistAvoiding(0, g.NumVertices()-1, faults)
	if !a.Connected || a.Dist < int64(exact) {
		t.Errorf("degraded dist %d (connected %v) vs exact %d — safety violated", a.Dist, a.Connected, exact)
	}
	if s.met.degraded.Load() == 0 {
		t.Error("degraded counter never incremented")
	}
}

func TestAdmissionOverloadAndDeadline(t *testing.T) {
	_, st := testStore(t, 6, 6, 2)
	s := newTestServer(t, Config{Store: st, Workers: 1, QueueDepth: 1, DefaultDeadline: time.Minute})

	// Occupy the single worker slot so admissions queue.
	s.slots <- struct{}{}
	defer func() { <-s.slots }()

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	queuedErr := make(chan error, 1)
	go func() {
		_, err := s.AnswerPairs(ctx, [][2]int{{0, 1}}, nil)
		queuedErr <- err
	}()
	// Wait for the goroutine to occupy the queue slot.
	deadline := time.Now().Add(2 * time.Second)
	for len(s.queued) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("queued request never registered")
		}
		time.Sleep(time.Millisecond)
	}
	// Queue capacity is Workers+QueueDepth = 2; one admission is
	// queued, so two more fill and overflow it.
	overflow := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := s.AnswerPairs(ctx, [][2]int{{0, 1}}, nil)
			overflow <- err
		}()
	}
	sawOverload := false
	for i := 0; i < 2; i++ {
		if err := <-overflow; err == ErrOverloaded {
			sawOverload = true
		}
	}
	if !sawOverload {
		t.Error("expected at least one ErrOverloaded from overflow admissions")
	}
	// The queued request dies with ErrDeadline when its context expires.
	if err := <-queuedErr; err != ErrDeadline {
		t.Errorf("queued request: %v, want ErrDeadline", err)
	}
	if s.met.rejectedOverload.Load() == 0 || s.met.rejectedDeadline.Load() == 0 {
		t.Errorf("rejection counters overload=%d deadline=%d, want both > 0",
			s.met.rejectedOverload.Load(), s.met.rejectedDeadline.Load())
	}
}

func TestHTTPEndpoints(t *testing.T) {
	g, st := testStore(t, 8, 8, 2)
	rep := &labelstore.SalvageReport{Version: 2, Total: st.NumLabels(), Kept: st.NumLabels()}
	s := newTestServer(t, Config{Store: st, Report: rep})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	n := g.NumVertices()

	post := func(path string, body any) (*http.Response, []byte) {
		t.Helper()
		b, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		out.ReadFrom(resp.Body)
		return resp, out.Bytes()
	}

	// healthz
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", err, resp.StatusCode)
	}
	resp.Body.Close()

	// distance
	resp, body := post("/v1/distance", map[string]any{"s": 0, "t": n - 1, "fail": []int{12}})
	if resp.StatusCode != 200 {
		t.Fatalf("distance: %d %s", resp.StatusCode, body)
	}
	var ans Answer
	if err := json.Unmarshal(body, &ans); err != nil {
		t.Fatalf("distance decode: %v", err)
	}
	want := g.DistAvoiding(0, n-1, graph.FaultVertices(12))
	if !ans.Connected || ans.Dist < int64(want) || !ans.Exact {
		t.Errorf("distance answer %+v, want connected exact ≥ %d", ans, want)
	}

	// batch-distance
	pairs := [][2]int{}
	for i := 0; i < 16; i++ {
		pairs = append(pairs, [2]int{i, n - 1 - i})
	}
	resp, body = post("/v1/batch-distance", map[string]any{"pairs": pairs})
	if resp.StatusCode != 200 {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var batch struct {
		Answers []Answer `json:"answers"`
	}
	if err := json.Unmarshal(body, &batch); err != nil || len(batch.Answers) != len(pairs) {
		t.Fatalf("batch decode: %v (%d answers)", err, len(batch.Answers))
	}

	// connected
	resp, body = post("/v1/connected", map[string]any{"s": 0, "t": 5})
	if resp.StatusCode != 200 {
		t.Fatalf("connected: %d %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &ans)
	if !ans.Connected {
		t.Error("0 and 5 should be connected")
	}

	// fail / state / recover
	resp, body = post("/v1/fail", map[string]any{"vertices": []int{3}})
	if resp.StatusCode != 200 {
		t.Fatalf("fail: %d %s", resp.StatusCode, body)
	}
	var state State
	json.Unmarshal(body, &state)
	if len(state.OverlayVertices) != 1 || state.OverlayVertices[0] != 3 {
		t.Errorf("state overlay = %v, want [3]", state.OverlayVertices)
	}
	resp, _ = post("/v1/recover", map[string]any{"vertices": []int{3}})
	if resp.StatusCode != 200 {
		t.Fatal("recover failed")
	}
	resp, err = http.Get(ts.URL + "/v1/state")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("state: %v", err)
	}
	json.NewDecoder(resp.Body).Decode(&state)
	resp.Body.Close()
	if len(state.OverlayVertices) != 0 {
		t.Errorf("post-recover overlay = %v, want empty", state.OverlayVertices)
	}

	// error mapping
	resp, _ = post("/v1/distance", map[string]any{"s": -1, "t": 0})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-range: %d, want 400", resp.StatusCode)
	}
	resp, _ = post("/v1/fail", map[string]any{"vertices": []int{n + 5}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("fail out-of-range: %d, want 400", resp.StatusCode)
	}
	resp, _ = post("/v1/batch-distance", map[string]any{"pairs": [][2]int{}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: %d, want 400", resp.StatusCode)
	}

	// metrics: counters and salvage gauges all present.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mb bytes.Buffer
	mb.ReadFrom(resp.Body)
	resp.Body.Close()
	metricsText := mb.String()
	for _, want := range []string{
		`fsdl_requests_total{endpoint="distance"}`,
		"fsdl_cache_hits_total",
		"fsdl_cache_flushes_total 2",
		"fsdl_label_cache_hits_total",
		"fsdl_label_cache_misses_total",
		"fsdl_label_levels_interned_total",
		"fsdl_label_level_lists",
		"fsdl_decoder_pool_gets_total",
		"fsdl_decoder_pool_news_total",
		fmt.Sprintf("fsdl_salvage_records_kept %d", st.NumLabels()),
		"fsdl_request_seconds_bucket",
		"fsdl_inflight 0",
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestConcurrentChurn hammers the HTTP server with mixed queries and
// fail/recover from many goroutines; run under -race this is the
// concurrency-safety proof for the whole serving path.
func TestConcurrentChurn(t *testing.T) {
	g, st := testStore(t, 8, 8, 2)
	s := newTestServer(t, Config{Store: st, Workers: 4, QueueDepth: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	n := g.NumVertices()

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 30; i++ {
				var resp *http.Response
				var err error
				switch i % 3 {
				case 0:
					b, _ := json.Marshal(map[string]any{"s": rng.Intn(n), "t": rng.Intn(n)})
					resp, err = http.Post(ts.URL+"/v1/distance", "application/json", bytes.NewReader(b))
				case 1:
					b, _ := json.Marshal(map[string]any{"pairs": [][2]int{{rng.Intn(n), rng.Intn(n)}, {rng.Intn(n), rng.Intn(n)}}})
					resp, err = http.Post(ts.URL+"/v1/batch-distance", "application/json", bytes.NewReader(b))
				case 2:
					resp, err = http.Get(ts.URL + "/metrics")
				}
				if err != nil {
					errs <- err.Error()
					return
				}
				if resp.StatusCode != 200 && resp.StatusCode != 429 && resp.StatusCode != 503 {
					errs <- fmt.Sprintf("worker %d: status %d", w, resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(w)
	}
	for u := 0; u < 2; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			v := 10 + u
			for i := 0; i < 10; i++ {
				ep := "/v1/fail"
				if i%2 == 1 {
					ep = "/v1/recover"
				}
				b, _ := json.Marshal(map[string]any{"vertices": []int{v}})
				resp, err := http.Post(ts.URL+ep, "application/json", bytes.NewReader(b))
				if err != nil {
					errs <- err.Error()
					return
				}
				if resp.StatusCode != 200 {
					errs <- fmt.Sprintf("updater %d: status %d", u, resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(u)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New without a store should fail")
	}
}

// gatedSource is a store source whose label lookups block on
// designated vertices until the caller's context dies — a stand-in for
// a hung remote shard fetch.
type gatedSource struct {
	*storeSource
	blockOn map[int]bool
}

func (g gatedSource) PinLabels() (func(context.Context, int) (*core.Label, error), func(context.Context, []int) int) {
	return pinFailing(g.storeSource, func(ctx context.Context, v int) error {
		if !g.blockOn[v] {
			return nil
		}
		<-ctx.Done()
		return ctx.Err()
	})
}

// pinFailing is s.PinLabels with every label lookup first put to fail:
// a non-nil error is that lookup's answer.
func pinFailing(s *storeSource, fail func(ctx context.Context, v int) error) (func(context.Context, int) (*core.Label, error), func(context.Context, []int) int) {
	label, prefetch := s.PinLabels()
	return func(ctx context.Context, v int) (*core.Label, error) {
		if err := fail(ctx, v); err != nil {
			return nil, err
		}
		return label(ctx, v)
	}, prefetch
}

// TestClientDisconnectReturnsSlot: when the requester's context is
// canceled mid-batch (client hung up), the server must abandon the
// batch and free its admission slot immediately — not grind through
// the remaining pairs first.
func TestClientDisconnectReturnsSlot(t *testing.T) {
	_, st := testStore(t, 8, 8, 2)
	src := gatedSource{storeSource: newStoreSource(st), blockOn: map[int]bool{0: true}}
	s := newTestServer(t, Config{Source: src, Workers: 1, CacheCapacity: -1})

	// A big batch whose very first pair hangs in Label until the client
	// disconnects.
	pairs := make([][2]int, 256)
	for i := range pairs {
		pairs[i] = [2]int{0, 1}
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := s.AnswerPairs(ctx, pairs, nil)
		errCh <- err
	}()
	// Let the batch get admitted and stuck in the gated Label call,
	// then hang up.
	time.Sleep(50 * time.Millisecond)
	cancel()

	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "abandoned") && !strings.Contains(err.Error(), "canceled") {
			t.Fatalf("abandoned batch returned %v, want cancellation error", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled batch did not return; slot still held")
	}

	// The single worker slot must be free again: a query on an ungated
	// vertex answers well inside the deadline.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	ans, err := s.Distance(ctx2, 1, 2, nil)
	if err != nil {
		t.Fatalf("query after disconnect: %v (slot not returned?)", err)
	}
	if !ans.Connected {
		t.Fatal("post-disconnect query answered wrong")
	}
}

// TestPrefetchSourceSeesBatch: a source with a prefetch receives every
// distinct in-range vertex of the batch (endpoints and faults) before
// per-pair answering starts.
func TestPrefetchSourceSeesBatch(t *testing.T) {
	_, st := testStore(t, 6, 6, 2)
	src := &prefetchSpy{storeSource: newStoreSource(st)}
	s := newTestServer(t, Config{Source: src})

	f := graph.NewFaultSet()
	f.AddVertex(7)
	f.AddEdge(8, 9)
	_, err := s.AnswerPairs(context.Background(), [][2]int{{1, 2}, {2, 3}, {1, 2}, {-5, 999999}}, &QueryOptions{Faults: f})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3, 7, 8, 9}
	got := src.got
	sort.Ints(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("prefetch saw %v, want %v", got, want)
	}
}

type prefetchSpy struct {
	*storeSource
	got []int
}

func (p *prefetchSpy) PinLabels() (func(context.Context, int) (*core.Label, error), func(context.Context, []int) int) {
	label, _ := p.storeSource.PinLabels()
	return label, func(_ context.Context, ids []int) int {
		p.got = append(p.got, ids...)
		return 0
	}
}

// flakySource is a store source whose designated vertices are
// transiently unreachable — the label is there, but fetching it fails
// while down is set, the way a cluster frontend surfaces a replica-set
// outage.
type flakySource struct {
	*storeSource
	mu   sync.Mutex
	down map[int]bool
}

func (f *flakySource) setDown(v int, down bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down == nil {
		f.down = map[int]bool{}
	}
	f.down[v] = down
}

func (f *flakySource) PinLabels() (func(context.Context, int) (*core.Label, error), func(context.Context, []int) int) {
	return pinFailing(f.storeSource, func(_ context.Context, v int) error {
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.down[v] {
			return fmt.Errorf("label for vertex %d unavailable: all replicas unreachable", v)
		}
		return nil
	})
}

// TestDegradedAnswersNotCached: with the default result cache ENABLED,
// an answer degraded by a transiently unavailable fault label must not
// be pinned in the cache — once the label source recovers, the same
// query returns to exact.
func TestDegradedAnswersNotCached(t *testing.T) {
	_, st := testStore(t, 8, 8, 2)
	src := &flakySource{storeSource: newStoreSource(st)}
	s := newTestServer(t, Config{Source: src}) // default caches on
	ctx := context.Background()

	const faultV = 10
	faults := graph.NewFaultSet()
	faults.AddVertex(faultV)
	opts := &QueryOptions{Faults: faults}

	src.setDown(faultV, true)
	a, err := s.Distance(ctx, 0, 63, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Degraded || a.Exact {
		t.Fatalf("outage answer degraded=%v exact=%v, want degraded upper bound", a.Degraded, a.Exact)
	}

	// Source recovers: the very next identical query must be exact, not
	// a cache replay of the degraded verdict.
	src.setDown(faultV, false)
	a, err = s.Distance(ctx, 0, 63, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cached {
		t.Fatal("degraded answer was served from the result cache after recovery")
	}
	if a.Degraded || !a.Exact {
		t.Fatalf("post-recovery answer degraded=%v exact=%v, want exact", a.Degraded, a.Exact)
	}

	// Exact answers still cache as before.
	a, err = s.Distance(ctx, 0, 63, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Cached || !a.Exact {
		t.Fatalf("repeat exact query cached=%v exact=%v, want cached exact", a.Cached, a.Exact)
	}
}

// TestHTTPBatchAndFaultCaps: oversized batches and fault sets are
// rejected with 400 before they fan out into label fetches.
func TestHTTPBatchAndFaultCaps(t *testing.T) {
	_, st := testStore(t, 4, 4, 2)
	s := newTestServer(t, Config{Store: st})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path string, body any) int {
		t.Helper()
		b, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	big := make([][2]int, maxBatchPairs+1)
	for i := range big {
		big[i] = [2]int{0, 1}
	}
	if code := post("/v1/batch-distance", map[string]any{"pairs": big}); code != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400", code)
	}
	manyFaults := make([]int, maxRequestFaults+1)
	for i := range manyFaults {
		manyFaults[i] = i % st.NumVertices()
	}
	if code := post("/v1/distance", map[string]any{"s": 0, "t": 1, "fail": manyFaults}); code != http.StatusBadRequest {
		t.Fatalf("oversized fault set: status %d, want 400", code)
	}
	// At-limit requests still answer.
	ok := make([][2]int, 4)
	for i := range ok {
		ok[i] = [2]int{0, 1}
	}
	if code := post("/v1/batch-distance", map[string]any{"pairs": ok}); code != http.StatusOK {
		t.Fatalf("small batch: status %d, want 200", code)
	}
}

// wordedSource is a store source that reports designated vertices
// missing in words of its own.
type wordedSource struct {
	*storeSource
	errs map[int]error
}

func (w wordedSource) PinLabels() (func(context.Context, int) (*core.Label, error), func(context.Context, []int) int) {
	return pinFailing(w.storeSource, func(_ context.Context, v int) error { return w.errs[v] })
}

// TestAbsenceIsASentinel: what makes a missing endpoint label a 404 is
// that its error wraps core.ErrNoLabel, whatever the message says — and
// an error that merely says "no label for vertex" is not one. A missing
// fault label is demoted to the degraded tier either way.
func TestAbsenceIsASentinel(t *testing.T) {
	_, st := testStore(t, 6, 6, 2)
	s := newTestServer(t, Config{Source: wordedSource{newStoreSource(st), map[int]error{
		7: fmt.Errorf("shelf 7 is empty: %w", core.ErrNoLabel),
		8: errors.New("no label for vertex 8"),
	}}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for v, want := range map[int]int{7: http.StatusNotFound, 8: http.StatusBadRequest} {
		resp, body := postJSON(t, ts.URL+"/v1/distance", map[string]any{"s": v, "t": 30})
		if resp.StatusCode != want {
			t.Errorf("endpoint %d: status %d, want %d (%s)", v, resp.StatusCode, want, body)
		}
	}
	as, err := s.AnswerPairs(context.Background(), [][2]int{{7, 30}}, nil)
	if err != nil || !errors.Is(as[0].err, core.ErrNoLabel) || as[0].Error != as[0].err.Error() {
		t.Errorf("AnswerPairs carries %+v (err %v), want the source's error", as[0], err)
	}

	a, err := s.Distance(context.Background(), 0, 35, &QueryOptions{Faults: graph.FaultVertices(7, 8)})
	if err != nil || a.Error != "" {
		t.Fatalf("absent fault labels: %+v, %v", a, err)
	}
	if !a.Degraded || a.Exact || !slices.Equal(a.MissingFaultLabels, []int32{7, 8}) {
		t.Errorf("absent fault labels: %+v, want a degraded bound missing 7 and 8", a)
	}

	// The local store's own absence is the sentinel too.
	part, err := labelstore.NewEmpty(st.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := part.Label(3); !errors.Is(err, core.ErrNoLabel) {
		t.Errorf("empty store's Label error %v does not wrap core.ErrNoLabel", err)
	}
}
