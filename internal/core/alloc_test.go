package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"fsdl/internal/graph"
)

// These are the PR's regression gates: steady-state decode and warm-cache
// label extraction must stay (near-)allocation-free. CI runs them on
// every push (bench-smoke job); a refactor that reintroduces per-query
// maps fails here before it can land.

// TestQueryDistanceAllocs pins the steady-state decode at ≤ 2 allocs per
// query (warm pool). The pooled scratch owns every transient structure,
// so the expected count is 0; the ≤ 2 slack absorbs runtime noise
// (pool refills after an unlucky GC).
func TestQueryDistanceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unstable under -race (sync.Pool reuse is randomized)")
	}
	g := gridGraph(t, 8, 8)
	s, err := BuildScheme(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := graph.NewFaultSet()
	f.AddVertex(27)
	f.AddVertex(36)
	q, err := s.NewQuery(0, 63, f)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := s.NewQuery(0, 63, graph.NewFaultSet())
	if err != nil {
		t.Fatal(err)
	}
	// The labels answer the fault-free query alone, and not the faulted
	// one: its certificate is tested and fails.
	mustCertify(t, "no faults", clean, true)
	mustCertify(t, "faults 27, 36", q, false)
	// The scheme's labels share their level lists, the copies nothing, and
	// the factored ones read the ring's unsaturated levels off the rows.
	for _, q := range append([]*Query{q, mapQuery(q, unsharedLabel), ringFactoredQuery(t), clean}, gridWideQueries(t)...) {
		q.Distance() // warm the pool and size the scratch
		allocs := testing.AllocsPerRun(200, func() {
			if _, ok := q.Distance(); !ok {
				t.Fatal("query became disconnected")
			}
		})
		if allocs > 2 {
			t.Errorf("Query.Distance steady-state allocs/op = %g, want <= 2", allocs)
		}
	}
	// A budgeted decode runs the same loops on truncated edge lists.
	q.Budget = 300
	if allocs := testing.AllocsPerRun(200, func() { q.DistanceRobust() }); allocs > 2 {
		t.Errorf("budgeted Query.DistanceRobust steady-state allocs/op = %g, want <= 2", allocs)
	}
}

// TestDecoderDistanceAllocs pins the batch decoder (one scratch held
// across calls, no pool traffic at all) at zero steady-state allocations.
func TestDecoderDistanceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unstable under -race (sync.Pool reuse is randomized)")
	}
	g := gridGraph(t, 8, 8)
	s, err := BuildScheme(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := graph.NewFaultSet()
	f.AddVertex(20)
	q, err := s.NewQuery(1, 62, f)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := s.NewQuery(1, 62, graph.NewFaultSet())
	if err != nil {
		t.Fatal(err)
	}
	mustCertify(t, "no faults", clean, true)
	mustCertify(t, "fault 20", q, false)
	dec := NewDecoder()
	defer dec.Release()

	// The scheme's labels share one edge list per level (an 8×8 grid is
	// saturated throughout), so t's and the fault's are skipped; the deep
	// copies share nothing and are all scanned; the factored ring labels
	// leave their unsaturated levels to the level graphs' rows. The
	// fault-free query is answered by its labels alone. The grid24 ones
	// test protected balls of 16 and of more than 64 centers.
	for _, q := range append([]*Query{q, mapQuery(q, unsharedLabel), ringFactoredQuery(t), clean}, gridWideQueries(t)...) {
		var tr Trace
		dec.DistanceWithTrace(q, &tr)          // size the scratch
		for _, budget := range []int{0, 300} { // unlimited; cut off mid-scan
			q.Budget = budget
			allocs := testing.AllocsPerRun(200, func() {
				dec.Decode(q, Opts{})
			})
			if allocs > 0 {
				t.Errorf("Decoder.Decode (budget %d, %d levels skipped) steady-state allocs/op = %g, want 0",
					budget, tr.SharedLevelsSkipped, allocs)
			}
		}
	}
	if res := dec.DistanceRobust(q); !res.BudgetExhausted {
		t.Errorf("budget %d did not cut the decode short: %+v", q.Budget, res)
	}
}

// gridWideQueries are corner-to-corner decodes on a 24×24 grid under 16
// vertex faults — one mask word a point, fused — and under 70, more than
// 64 protected-ball centers and so two words a point.
func gridWideQueries(t *testing.T) []*Query {
	t.Helper()
	s, err := BuildScheme(gridGraph(t, 24, 24), 2)
	if err != nil {
		t.Fatal(err)
	}
	s.SetCacheLimit(4096)
	rng := rand.New(rand.NewSource(36))
	var qs []*Query
	for _, nf := range []int{16, 70} {
		f := graph.NewFaultSet()
		for f.Size() < nf {
			if v := rng.Intn(576); v != 0 && v != 575 {
				f.AddVertex(v)
			}
		}
		q, err := s.NewQuery(0, 575, f)
		if err != nil {
			t.Fatal(err)
		}
		if fr := NewFrame(q, nil); fr == nil || fr.fr.maskWords != (nf+63)/64 {
			t.Fatalf("%d vertex faults: not a frame of %d mask words a point", nf, (nf+63)/64)
		}
		qs = append(qs, q)
	}
	return qs
}

// ringFactoredQuery is a query over labels a factored container hands
// out — their balls and the level graphs — on a 256-vertex ring lattice,
// whose lower levels are not saturated: s and t far apart, two vertex
// faults between them.
func ringFactoredQuery(t *testing.T) *Query {
	t.Helper()
	s, err := BuildScheme(ringLattice(t, 256), 2)
	if err != nil {
		t.Fatal(err)
	}
	q, err := s.NewQuery(3, 131, graph.FaultVertices(60, 61))
	if err != nil {
		t.Fatal(err)
	}
	q = mapQuery(q, factoredLabels(t, s))
	if q.S.HoldsEdges(0) {
		t.Fatal("the ring's lowest level is saturated")
	}
	return q
}

// TestLabelExtractColdAllocs pins the cache-miss Label path: with the
// pooled extraction scratch (BFS state, open-addressing inBall, reusable
// point/edge buffers), a cold extract allocates only what the returned
// Label retains — the Label, its Levels slice, and up to two exact-size
// copies per level. An 8×8 grid has 4 levels, so the expected count is
// ~10; the ≤ 16 bound absorbs pool refills. (Before the scratch pool
// this path cost 168 allocs / 2.8 MB per extract.)
func TestLabelExtractColdAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unstable under -race (sync.Pool reuse is randomized)")
	}
	g := gridGraph(t, 8, 8)
	s, err := BuildScheme(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.SetCacheLimit(0) // every Label call extracts from scratch
	s.Label(27)        // warm the pool and size the scratch
	allocs := testing.AllocsPerRun(100, func() {
		if s.Label(27) == nil {
			t.Fatal("nil label")
		}
	})
	if allocs > 16 {
		t.Errorf("cold label extract allocs/op = %g, want <= 16", allocs)
	}
}

// TestSchemeLabelAllocs pins the warm-cache Label path: a cache hit must
// not allocate.
func TestSchemeLabelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unstable under -race")
	}
	g := gridGraph(t, 8, 8)
	s, err := BuildScheme(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.Label(17) // populate the cache
	allocs := testing.AllocsPerRun(200, func() {
		s.Label(17)
	})
	if allocs > 0 {
		t.Errorf("Scheme.Label warm-cache allocs/op = %g, want 0", allocs)
	}
}

// TestConcurrentLabelDistanceStress hammers the sharded label cache and
// the pooled decoder from many goroutines and checks every answer —
// labels byte-for-byte, distances exactly — against a serially computed
// baseline. Run under -race this is the concurrency proof for the whole
// new fast path.
func TestConcurrentLabelDistanceStress(t *testing.T) {
	g := gridGraph(t, 7, 7)
	s, err := BuildScheme(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.SetCacheLimit(16) // small cache: forces concurrent miss/evict churn
	n := g.NumVertices()

	// Serial baseline, computed before any concurrency.
	base, berr := BuildScheme(g, 2)
	if berr != nil {
		t.Fatal(berr)
	}
	wantBytes := make([][]byte, n)
	for v := 0; v < n; v++ {
		buf, nbits := base.Label(v).Encode()
		wantBytes[v] = buf[:(nbits+7)/8]
	}
	f := graph.NewFaultSet()
	f.AddVertex(24)
	type pair struct{ s, t int }
	pairs := []pair{{0, 48}, {6, 42}, {3, 45}, {1, 47}, {10, 38}}
	wantDist := make(map[pair]int64)
	wantOK := make(map[pair]bool)
	for _, p := range pairs {
		d, ok := base.Distance(p.s, p.t, f)
		wantDist[p], wantOK[p] = d, ok
	}

	var wg sync.WaitGroup
	// Bulk extraction beside the single lookups: both hand out the store's
	// one edge list per saturated level (wholeEdges), built by whoever
	// comes first.
	wg.Add(1)
	go func() {
		defer wg.Done()
		all := make([]int, n)
		for v := range all {
			all[v] = v
		}
		for workers := 0; workers < 3; workers++ { // 0: every core, as Labels
			for v, l := range s.LabelsWorkers(all, workers) {
				if buf, nbits := l.Encode(); string(buf[:(nbits+7)/8]) != string(wantBytes[v]) {
					t.Errorf("bulk label %d not bit-identical under concurrency", v)
					return
				}
			}
		}
	}()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			dec := NewDecoder()
			defer dec.Release()
			for i := 0; i < 300; i++ {
				v := rng.Intn(n)
				buf, nbits := s.Label(v).Encode()
				got := buf[:(nbits+7)/8]
				if string(got) != string(wantBytes[v]) {
					t.Errorf("label %d not bit-identical under concurrency", v)
					return
				}
				p := pairs[rng.Intn(len(pairs))]
				q, err := s.NewQuery(p.s, p.t, f)
				if err != nil {
					t.Error(err)
					return
				}
				res := dec.Decode(q, Opts{})
				if d, ok := res.Dist, res.OK; ok != wantOK[p] || (ok && d != wantDist[p]) {
					t.Errorf("query (%d,%d) = (%d,%v), want (%d,%v)",
						p.s, p.t, d, ok, wantDist[p], wantOK[p])
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()

	if hits, misses := s.LabelCacheStats(); hits == 0 || misses == 0 {
		t.Errorf("cache stats (hits=%d, misses=%d) show no churn — stress ineffective", hits, misses)
	}
}

var benchSharedSink int64

// BenchmarkDecodeSharedLevels is one query — grid 24×24, corner to
// corner, |F| vertex faults — over labels that share their level lists
// (the scheme's: a 24×24 grid is saturated at every level) and over deep
// copies that share nothing. The gap is what scanOwners' skip buys: the
// unshared decode walks the same 26.8 k-edge lists once per owner. The
// Decoder's fault frame is dropped before every op, so each is a lone
// query's decode and not a batch's second pair.
func BenchmarkDecodeSharedLevels(b *testing.B) {
	g := gridGraph(b, 24, 24)
	s, err := BuildScheme(g, 2)
	if err != nil {
		b.Fatal(err)
	}
	s.SetCacheLimit(4096)
	for _, nf := range []int{0, 4, 16} {
		f := graph.NewFaultSet()
		for i := 0; i < nf; i++ {
			f.AddVertex(25 + 33*i)
		}
		q, err := s.NewQuery(0, 575, f)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range []struct {
			name string
			q    *Query
		}{{"shared", q}, {"unshared", mapQuery(q, unsharedLabel)}} {
			b.Run(fmt.Sprintf("F=%d/%s", nf, v.name), func(b *testing.B) {
				dec := NewDecoder()
				defer dec.Release()
				dec.Decode(v.q, Opts{})
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dec.scratch().keyed = false
					benchSharedSink = dec.Decode(v.q, Opts{}).Dist
				}
			})
		}
	}
}
