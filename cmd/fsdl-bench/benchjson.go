package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"fsdl/internal/core"
	"fsdl/internal/gen"
	"fsdl/internal/graph"
	"fsdl/internal/labelstore"
	"fsdl/internal/liveupdate"
	"fsdl/internal/server"
)

// This file is the machine-readable perf baseline: `fsdl-bench -json
// PATH` runs a fixed suite of micro-benchmarks through testing.Benchmark
// and writes one JSON document (schema fsdl-bench-v1) that CI archives
// as BENCH_PR*.json. The suite covers the four costs the query fast
// path optimizes — scheme build, label extraction (cold and warm-cache),
// decode vs |F|, and server batch throughput — plus the live-update
// write path: mutation apply, the compact+swap cycle, the delta-scoped
// incremental rebuild, and the WAL's group-commit append.

// benchResult is one measured kernel.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// PairsPerSec is set only for the server batch kernel.
	PairsPerSec float64 `json:"pairs_per_sec,omitempty"`
	// ParentNsPerOp is set only in a paired record (pairedGate): the
	// parent's median beside this, the change's.
	ParentNsPerOp float64 `json:"parent_ns_per_op,omitempty"`
}

// benchDoc is the whole emitted document.
type benchDoc struct {
	Schema  string        `json:"schema"`
	Quick   bool          `json:"quick"`
	GOOS    string        `json:"goos"`
	GOARCH  string        `json:"goarch"`
	CPUs    int           `json:"cpus"`
	Results []benchResult `json:"results"`
}

// measureFunc runs one kernel of a suite run (runJSON's measure).
type measureFunc func(name string, fn func(b *testing.B)) benchResult

// logGoroutines writes, before the strict kernel name runs, how many
// goroutines exist and, when the caller's is not alone, every stack: none
// of them is the kernel's, and one an earlier kernel left running would
// allocate inside the kernel's exact allocs count.
func logGoroutines(w io.Writer, name string) {
	n := runtime.NumGoroutine()
	fmt.Fprintf(w, "goroutines before %s: %d\n", name, n)
	if n > 1 {
		pprof.Lookup("goroutine").WriteTo(w, 1)
	}
}

// allocRuns is how many iterations count the allocs/op of a strict or
// decode row, after one warm-up iteration. The count is fixed: the b.N
// testing.Benchmark picks from wall time divides a run's constant
// allocations and its pool refills by fewer iterations on a slow run.
// It is large enough to spread a decode scratch that sync.Pool hands
// back cold (about 200 allocations) below one alloc per op:
// decode_mmap_F16 checks one out per op, and at 32 iterations it read 13
// allocs/op instead of 7 in some runs.
const allocRuns = 256

// countAllocs runs fn once to warm it up, then allocRuns times, and
// returns the allocs and bytes per op of the counted iterations. It
// works only because testing.Benchmark reads the process-global
// -test.benchtime flag afresh on every call: "256x" makes it run b.N = 1
// and then b.N = 256, and the deferred Set restores the wall-time target
// for the timed rows. A testing that read the flag once, or a timed row
// run concurrently with a count, would break this silently.
func countAllocs(fn func(b *testing.B)) (allocs, bytes int64) {
	testing.Init()
	f := flag.Lookup("test.benchtime")
	prev := f.Value.String()
	f.Value.Set(fmt.Sprintf("%dx", allocRuns))
	defer f.Value.Set(prev)
	r := testing.Benchmark(fn)
	return r.AllocsPerOp(), r.AllocedBytesPerOp()
}

// benchmark runs one kernel under testing.Benchmark.
func benchmark(name string, fn func(b *testing.B)) benchResult {
	r := testing.Benchmark(fn)
	return benchResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// runJSON executes the suite and writes the document to path ("-" for
// stdout). quick shrinks instance sizes so CI smoke runs stay fast;
// timed keeps only the timed rows and the byte-size rows. When
// baseline names a previously committed document, the run fails if any
// kernel regressed against it (see checkBaseline); compare names a
// document to diff against informationally (see compareDoc).
func runJSON(path string, quick, timed bool, baseline, compare string, log io.Writer) error {
	side := 24
	if quick {
		side = 12
	}
	g := gen.Grid2D(side, side)
	n := g.NumVertices()

	doc := benchDoc{
		Schema: "fsdl-bench-v1",
		Quick:  quick,
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		CPUs:   runtime.GOMAXPROCS(0),
	}
	// timed (-timed) runs only the rows pairedGate compares: every other
	// kernel is skipped, a row of zero iterations that add drops.
	measure := func(name string, fn func(b *testing.B)) benchResult {
		if timed && !timedRow(name) {
			return benchResult{Name: name}
		}
		if !strictKernels[name] && !decodeRow(name) {
			return benchmark(name, fn)
		}
		// A gated row's allocs come from a counted run of their own, its
		// time from the usual timed one. -timed gates time alone, so it
		// skips the count.
		logGoroutines(log, name)
		r := benchmark(name, fn)
		if !timed {
			r.AllocsPerOp, r.BytesPerOp = countAllocs(fn)
		}
		return r
	}
	add := func(r benchResult) {
		if r.Iterations == 0 {
			return
		}
		doc.Results = append(doc.Results, r)
		fmt.Fprintf(log, "%-28s %12.0f ns/op %8d allocs/op\n", r.Name, r.NsPerOp, r.AllocsPerOp)
	}

	// 1. Preprocessing: net hierarchy + level store, serial and with the
	// full worker pool. On a 1-CPU host the two coincide; the determinism
	// contract (identical scheme bytes for any worker count) is what the
	// tests enforce, so both entries measure the same output.
	add(measure(fmt.Sprintf("build_scheme_grid%d_w1", side), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.BuildSchemeWorkers(g, 2, 1); err != nil {
				b.Fatal(err)
			}
		}
	}))
	add(measure(fmt.Sprintf("build_scheme_grid%d_wmax", side), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.BuildSchemeWorkers(g, 2, 0); err != nil {
				b.Fatal(err)
			}
		}
	}))

	s, err := core.BuildScheme(g, 2)
	if err != nil {
		return err
	}

	// 2a. Label extraction, cold: cache disabled, every call extracts.
	s.SetCacheLimit(0)
	add(measure("label_extract_cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Label(n / 2)
		}
	}))

	// 2b. Label extraction, warm: the sharded-LRU hit path.
	s.SetCacheLimit(core.DefaultLabelCacheSize)
	s.Label(n / 2)
	add(measure("label_extract_warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Label(n / 2)
		}
	}))

	// 3. Decode vs |F| on one held Decoder, labels prefetched — a pool
	// checkout per op would let a GC between iterations hand back a cold
	// scratch and flip allocs/op between 0 and 2. Vertex faults are
	// protected-ball centers one for one: F1–F16 run the fused one-word
	// masks (≤ 62 centers) and F64, exactly 64 centers and so still one
	// mask word, the plain one-word loop. The multi-word loop (> 64
	// centers) has no kernel here; BenchmarkQueryTimeVsF/F-70 times it and
	// TestDecodeMatchesReference checks it.
	//
	// Every op is a lone query's decode: a held Decoder keeps the fault
	// frame of the query before (core.faultFrame) and would answer a
	// repeat of it as a batch's second pair, so each kernel takes turns
	// between the query and its twin over the labels of a second, equal
	// scheme — other pointers, the same work. The decode_batch8_* rows
	// below are where a frame is meant to be found.
	s.SetCacheLimit(4096)
	twin, err := core.BuildScheme(g, 2)
	if err != nil {
		return err
	}
	twin.SetCacheLimit(4096)
	var dec core.Decoder
	// randomFaults draws nf vertex faults clear of the corners every
	// decode kernel queries between; the same nf gives the same set.
	randomFaults := func(nf int) *graph.FaultSet {
		rng := rand.New(rand.NewSource(2))
		f := graph.NewFaultSet()
		for f.Size() < nf {
			v := rng.Intn(n)
			if v != 0 && v != n-1 {
				f.AddVertex(v)
			}
		}
		return f
	}
	for _, nf := range []int{1, 4, 16, 64} {
		var qs [2]*core.Query
		for i, sch := range []*core.Scheme{s, twin} {
			if qs[i], err = sch.NewQuery(0, n-1, randomFaults(nf)); err != nil {
				return err
			}
		}
		add(measure(fmt.Sprintf("decode_F%d", nf), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dec.Decode(qs[i&1], core.Opts{})
			}
		}))
		if nf == 4 {
			// The cold path: a traced decode also derives the sketch as a
			// caller sees it — sorted, one edge per pair of vertices — from
			// the candidates the other kernels hand the solver as scanned
			// (what Query.Sketch and, later, "explain" pay), and reports
			// the walk with its weights. Its allocations are the trace's.
			var tr core.Trace
			add(measure("decode_sketch_F4", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					dec.Decode(qs[i&1], core.Opts{Trace: &tr})
				}
			}))
		}
		if nf == 16 {
			// The fault side of the same query frozen into a frame: its
			// protected-ball masks, its owners' run packed and collapsed.
			add(measure(fmt.Sprintf("new_frame_F16_grid%d", side), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					core.NewFrame(qs[0], nil)
				}
			}))
			// Path reporting on the same query: decode + parent-tree
			// walk into a reused buffer, still allocation-free.
			var pbuf []int32
			add(measure("decode_path_F16", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					pbuf = pbuf[:0]
					dec.Decode(qs[i&1], core.Opts{Path: &pbuf})
				}
			}))
		}
	}
	dec.Release()

	// 3b. Patched decode: two faults and four pending inserts answered
	// from one sketch — the live pipeline's query (docs/LIVE.md).
	{
		rng := rand.New(rand.NewSource(4))
		var qs [2]*core.Query
		var patches [2][]core.PatchEdge
		for i, sch := range []*core.Scheme{s, twin} {
			if qs[i], err = sch.NewQuery(0, n-1, graph.FaultVertices(n/3, n/2)); err != nil {
				return err
			}
		}
		for len(patches[0]) < 4 {
			u, v := 1+rng.Intn(n-2), 1+rng.Intn(n-2)
			if u != v && !g.HasEdge(u, v) && u != n/3 && u != n/2 && v != n/3 && v != n/2 {
				patches[0] = append(patches[0], core.PatchEdge{U: s.Label(u), V: s.Label(v)})
				patches[1] = append(patches[1], core.PatchEdge{U: twin.Label(u), V: twin.Label(v)})
			}
		}
		var dec core.Decoder
		add(measure("decode_patched_F2_P4", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dec.Decode(qs[i&1], core.Opts{Patches: patches[i&1]})
			}
		}))
		dec.Release()
	}

	// 4. Server batch throughput: distinct pairs per op, result cache
	// disabled, so every answer runs the full label-fetch + decode path.
	var buf sliceBuffer
	if err := labelstore.Save(&buf, s, nil); err != nil {
		return err
	}
	st, err := labelstore.Load(&buf)
	if err != nil {
		return err
	}
	// 3c. Decode over the serving path's labels: parsed from records by
	// labelstore.Load's store, which shares equal level lists between
	// them (core.LevelTable) — the decode_F* kernels above see scheme
	// labels, whose saturated levels are shared at extraction. The store
	// is read through once first, vertex 1 leading: a list is shared from
	// its second sighting on, so the first label parsed keeps private
	// copies, and a warm server's query rarely touches that one label.
	// The twin is the same bytes loaded again: equal labels, other
	// pointers.
	stTwin, err := labelstore.Load(&sliceBuffer{data: buf.data})
	if err != nil {
		return err
	}
	for _, st := range []*labelstore.Store{st, stTwin} {
		for v := 1; v <= n; v++ {
			if _, err := st.Label(v % n); err != nil {
				return err
			}
		}
	}
	for _, nf := range []int{0, 16} {
		var qs [2]*core.Query
		for i, st := range []*labelstore.Store{st, stTwin} {
			if qs[i], err = core.ResolveQuery(0, n-1, randomFaults(nf), st.Label, false); err != nil {
				return err
			}
		}
		var dec core.Decoder
		add(measure(fmt.Sprintf("decode_store_F%d", nf), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dec.Decode(qs[i&1], core.Opts{})
			}
		}))
		dec.Release()
	}

	// 3d. A batch as /v1/batch-distance decodes it: 8 pairs under one
	// fault set on one Decoder (ns/op is per batch). The ring lattice of
	// the bench's cluster3_ring_batch — local low levels, shared top ones
	// — with that workload's fault shape, ⌈|F|/2⌉ vertices and ⌊|F|/2⌋
	// edges. Two equal schemes' labels take turns here too, batch by
	// batch, so every batch starts without a frame as a request does; in
	// the _fresh twin they take turns pair by pair, so no pair finds the
	// frame of the one before and each is decoded as a lone query: the
	// gap between the two rows is what the fault frame saves. (Releasing
	// the Decoder instead would put the scratch pool in the loop, and a
	// GC that empties it shows as 1–2 allocs/op on an exact-allocs row.)
	if err := benchBatches(quick, measure, add); err != nil {
		return err
	}

	srv, err := server.New(server.Config{Store: st, CacheCapacity: -1})
	if err != nil {
		return err
	}
	batch := 64
	if quick {
		batch = 16
	}
	rng := rand.New(rand.NewSource(3))
	pairs := make([][2]int, batch)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	faults := graph.NewFaultSet()
	faults.AddVertex(n / 3)
	r := measure("server_batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := srv.AnswerPairs(context.Background(), pairs, &server.QueryOptions{Faults: faults}); err != nil {
				b.Fatal(err)
			}
		}
	})
	if r.NsPerOp > 0 {
		r.PairsPerSec = float64(batch) / (r.NsPerOp / 1e9)
	}
	add(r)

	// 5a. Live mutation apply: validation + delta bookkeeping on the
	// write path (no WAL, so fsync latency doesn't drown the CPU cost).
	// Insert/delete of the same edge nets to zero, keeping state flat
	// across iterations.
	lp, err := liveupdate.Open(liveupdate.Config{Base: g})
	if err != nil {
		return err
	}
	lu, lv := int32(0), int32(n-1)
	add(measure("mutate_apply", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lp.Apply([]liveupdate.Mutation{{Op: liveupdate.MutInsert, U: lu, V: lv}}); err != nil {
				b.Fatal(err)
			}
			if _, err := lp.Apply([]liveupdate.Mutation{{Op: liveupdate.MutDelete, U: lu, V: lv}}); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// 5b. Full compact + swap cycle on a small live server: generation
	// build, on-disk manifest write, store reload, atomic source swap
	// and delta commit. One toggled mutation per cycle keeps every
	// compaction non-trivial without growing the delta.
	side2 := 8
	if quick {
		side2 = 6
	}
	g2 := gen.Grid2D(side2, side2)
	s2, err := core.BuildScheme(g2, 2)
	if err != nil {
		return err
	}
	var buf2 sliceBuffer
	if err := labelstore.Save(&buf2, s2, nil); err != nil {
		return err
	}
	st2, err := labelstore.Load(&buf2)
	if err != nil {
		return err
	}
	root, err := os.MkdirTemp("", "fsdl-bench-gens-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	lp2, err := liveupdate.Open(liveupdate.Config{Base: g2})
	if err != nil {
		return err
	}
	liveSrv, err := server.New(server.Config{Store: st2, Live: lp2, LiveRoot: root, CacheCapacity: -1})
	if err != nil {
		return err
	}
	bridge := int32(g2.NumVertices() - 1)
	present := false
	add(measure("compact_swap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			op := liveupdate.MutInsert
			if present {
				op = liveupdate.MutDelete
			}
			present = !present
			if _, err := liveSrv.Mutate([]liveupdate.Mutation{{Op: op, U: 0, V: bridge}}); err != nil {
				b.Fatal(err)
			}
			if _, err := liveSrv.Compact(); err != nil {
				b.Fatal(err)
			}
		}
	}))
	// Close the live server (and its pipeline with it). Nothing below uses
	// them, so what they hold (schemes, the generations' mapped stores) is
	// garbage: two collections free it and run the mappings' finalizers
	// before the strict kernel below counts a single allocation.
	if err := liveSrv.Close(); err != nil {
		return err
	}
	runtime.GC()
	runtime.GC()

	// 5c. Incremental compaction on a small-delta workload: a ring
	// lattice (±1, ±2 chords) whose diameter dwarfs the scheme's
	// largest coverage radius, so one deleted chord dirties well under
	// 10% of the labels. Each kernel covers the full compaction-shaped
	// path — scheme build plus label extraction — because extraction is
	// where nearly all compaction time goes; the incremental side
	// extracts only the dirty labels (exactly what labelstore.Spliced does),
	// the full side extracts every label. The ratio of the two is the
	// incremental speedup. Single worker on both sides: deterministic
	// allocs (this kernel is gated exactly) and an apples-to-apples
	// CPU comparison.
	ringN := 2048
	if quick {
		ringN = 512
	}
	ringG, err := ringLattice(ringN)
	if err != nil {
		return err
	}
	prevScheme, err := core.BuildSchemeWorkers(ringG, 2, 1)
	if err != nil {
		return err
	}
	rb2 := graph.NewBuilder(ringN)
	for i := 0; i < ringN; i++ {
		if i != 0 {
			rb2.AddEdge(i, (i+1)%ringN)
		}
		rb2.AddEdge(i, (i+2)%ringN)
	}
	mutG, err := rb2.Build()
	if err != nil {
		return err
	}
	mutated := [][2]int32{{0, 1}}
	incR := measure("compact_incremental_small_delta", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			inc, err := core.BuildSchemeIncremental(prevScheme, mutG, mutated, 1)
			if err != nil {
				b.Fatal(err)
			}
			for _, v := range inc.Dirty {
				inc.Scheme.Label(int(v))
			}
		}
	})
	add(incR)
	fullR := measure("compact_full_small_delta", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := core.BuildSchemeWorkers(mutG, 2, 1)
			if err != nil {
				b.Fatal(err)
			}
			for v := 0; v < ringN; v++ {
				s.Label(v)
			}
		}
	})
	add(fullR)
	if incR.NsPerOp > 0 && fullR.NsPerOp > 0 {
		fmt.Fprintf(log, "incremental compaction speedup on ring%d, 1-edge delta: %.1fx\n",
			ringN, fullR.NsPerOp/incR.NsPerOp)
	}

	// 5d. WAL group append: one 4-mutation batch encoded and written in
	// a single append, then one group-commit fsync — the per-batch
	// durability cost the mutate path pays. A real file, so the fsync
	// is in the measurement on purpose.
	walDir, err := os.MkdirTemp("", "fsdl-bench-wal-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	w, _, err := liveupdate.OpenWAL(filepath.Join(walDir, "bench.wal"))
	if err != nil {
		return err
	}
	defer w.Close()
	groupMuts := []liveupdate.Mutation{
		{Op: liveupdate.MutInsert, U: 0, V: 1},
		{Op: liveupdate.MutDelete, U: 0, V: 1},
		{Op: liveupdate.MutInsert, U: 0, V: 2},
		{Op: liveupdate.MutDelete, U: 0, V: 2},
	}
	add(measure("wal_append_group", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := w.Append(groupMuts); err != nil {
				b.Fatal(err)
			}
			if err := w.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// 6. Out-of-core storage: the FSDL3 mmap path (docs/STORAGE.md). The
	// same scheme saved as FSDL2 and as FSDL3 — the factored form: one set
	// of level graphs per file, records reduced to their balls — gives the
	// bytes-per-vertex comparison the storage claim rests on; load_mmap_cold measures the
	// open-validate-serve-close cycle of the mapped container (header,
	// index and level-graphs section — records stay on disk until
	// touched), label_cold_fsdl3c one decoded-cache miss on it (balls
	// parsed, edges induced), decode_mmap_F16 the robust-query fast path
	// served entirely through the mapped container.
	storeDir, err := os.MkdirTemp("", "fsdl-bench-store-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(storeDir)
	_, size2, err := writeStoreFile(filepath.Join(storeDir, "labels2.fsdl"), s, false)
	if err != nil {
		return err
	}
	path3c, size3c, err := writeStoreFile(filepath.Join(storeDir, "labels3c.fsdl"), s, true)
	if err != nil {
		return err
	}
	// Bytes-per-vertex pseudo-kernels: BytesPerOp carries whole-file
	// bytes per vertex (one "op" = one vertex), so the committed JSON
	// documents the storage claim next to the timing kernels.
	for _, e := range []struct {
		name string
		size int64
	}{
		{"label_bytes_per_vertex_fsdl2", size2},
		{"label_bytes_per_vertex_fsdl3c", size3c},
	} {
		r := benchResult{Name: e.name, Iterations: n, BytesPerOp: (e.size + int64(n) - 1) / int64(n)}
		doc.Results = append(doc.Results, r)
		fmt.Fprintf(log, "%-28s %12d bytes/vertex (file %d bytes)\n", r.Name, r.BytesPerOp, e.size)
	}
	ratio := float64(size2) / float64(size3c)
	fmt.Fprintf(log, "factored FSDL3 vs FSDL2: %.1fx smaller on grid%d\n", ratio, side)
	if !quick && ratio < 5 {
		// The storage engine's headline claim; a codec or layout change
		// that erodes it should fail the perf suite, not slip through.
		return fmt.Errorf("factored FSDL3 only %.1fx smaller than FSDL2 (claim: >= 5x)", ratio)
	}

	if err := benchBalls(storeDir, measure, add, func(r benchResult, what string) {
		doc.Results = append(doc.Results, r)
		fmt.Fprintf(log, "%-44s %8d bytes %s\n", r.Name, r.BytesPerOp, what)
	}); err != nil {
		return err
	}

	add(measure("load_mmap_cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st3, err := labelstore.Open(path3c)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, ok := st3.Raw(n / 2); !ok {
				b.Fatal("record missing")
			}
			if err := st3.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// One decoded-cache miss per op: a one-slot LRU under a sweep of all
	// n vertices, every vertex touched twice beforehand so each op is the
	// same steady-state miss (parse the balls, induce the edges, admit,
	// evict).
	cold, err := labelstore.Open(path3c)
	if err != nil {
		return err
	}
	defer cold.Close()
	cold.SetDecodedCacheCapacity(1)
	for i := 0; i < 2*n; i++ {
		if _, err := cold.Label(i % n); err != nil {
			return err
		}
	}
	next := 0
	add(measure("label_cold_fsdl3c", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cold.Label(next % n); err != nil {
				b.Fatal(err)
			}
			next++
		}
	}))

	st3, err := labelstore.Open(path3c)
	if err != nil {
		return err
	}
	defer st3.Close()
	f16 := randomFaults(16)
	if _, err := st3.DistanceRobust(0, n-1, f16, 0); err != nil {
		return err
	}
	add(measure("decode_mmap_F16", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := st3.DistanceRobust(0, n-1, f16, 0); err != nil {
				b.Fatal(err)
			}
		}
	}))

	if err := writeDoc(path, doc, log); err != nil {
		return err
	}
	if compare != "" {
		if err := compareDoc(doc, compare, log); err != nil {
			return err
		}
	}
	if baseline != "" {
		return checkBaseline(doc, baseline, log)
	}
	return nil
}

// ringLattice is the cycle on n vertices with the ±2 chords.
func ringLattice(n int) (*graph.Graph, error) {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
		b.AddEdge(i, (i+2)%n)
	}
	return b.Build()
}

// benchBatches measures the decode_batch8_* rows (see runJSON, 3d).
func benchBatches(quick bool, measure measureFunc, add func(benchResult)) error {
	ringN := 4096
	if quick {
		ringN = 1024
	}
	ring, err := ringLattice(ringN)
	if err != nil {
		return err
	}
	var schemes [2]*core.Scheme
	for i := range schemes {
		if schemes[i], err = core.BuildScheme(ring, 2); err != nil {
			return err
		}
	}
	for _, nf := range []int{0, 2, 4} {
		rng := rand.New(rand.NewSource(int64(5 + nf)))
		f := graph.NewFaultSet()
		for f.NumVertices() < (nf+1)/2 {
			f.AddVertex(rng.Intn(ringN))
		}
		for f.NumEdges() < nf/2 {
			if u := rng.Intn(ringN); !f.HasVertex(u) && !f.HasVertex((u+1)%ringN) {
				f.AddEdge(u, (u+1)%ringN)
			}
		}
		var pairs [][2]int
		for len(pairs) < 8 {
			if a, b := rng.Intn(ringN), rng.Intn(ringN); a != b && !f.HasVertex(a) && !f.HasVertex(b) {
				pairs = append(pairs, [2]int{a, b})
			}
		}
		// batches[i] is the batch over the labels of schemes[i].
		var batches [2][]*core.Query
		for i, rs := range schemes {
			label := func(v int) (*core.Label, error) { return rs.Label(v), nil }
			var tmpl core.Query
			if err := tmpl.ResolveFaults(f, label, false); err != nil {
				return err
			}
			for _, p := range pairs {
				q := tmpl
				q.S, q.T = rs.Label(p[0]), rs.Label(p[1])
				batches[i] = append(batches[i], &q)
			}
		}
		var dec core.Decoder
		add(measure(fmt.Sprintf("decode_batch8_F%d", nf), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, q := range batches[i&1] {
					dec.Decode(q, core.Opts{})
				}
			}
		}))
		if nf > 0 { // with nothing to share the row above is its own twin
			add(measure(fmt.Sprintf("decode_batch8_F%d_fresh", nf), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for k := range pairs {
						dec.Decode(batches[k&1][k], core.Opts{})
					}
				}
			}))
		}
		dec.Release()
	}
	return nil
}

// writeStoreFile writes every label of s to path as one container (FSDL2
// unless format3) and returns the path and the file's size.
func writeStoreFile(path string, s *core.Scheme, format3 bool) (string, int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	if format3 {
		err = labelstore.Write(f, labelstore.FromScheme(s), nil)
	} else {
		err = labelstore.Save(f, s, nil)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", 0, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return "", 0, err
	}
	return path, fi.Size(), nil
}

// benchBalls measures the factored record coding on the two graphs whose
// containers are mostly balls (docs/PERFORMANCE.md, "Each distance
// once"): the whole-file bytes per vertex of the factored FSDL3c file of
// ring4096 and rgg1024 — the stores `go run ./bench` serves
// cluster3_ring_batch and fetch_rgg_mmap from, so the same number as
// their store_bytes_per_vertex — and the two kernels under every such
// record, on ring4096: encode_balls (one label: cost flat against nested
// for each level, write the cheaper) and parse_balls (every record of the
// file read back, the nested levels derived — Store.BallStats — per
// record); and decoded_label_bytes_ring4096, what a label parsed from
// that file keeps to itself (decodedLabelBytes). On rgg1024,
// new_frame_F4_rgg1024 builds the frame of four vertex faults and
// decode_mmap_F4_rgg1024 decodes one pair under them over the mapped
// file. The row names carry the sizes, so -quick runs them as they are;
// together they take about two seconds.
func benchBalls(dir string, measure measureFunc, add func(benchResult), addBytes func(benchResult, string)) error {
	ring, err := ringLattice(4096)
	if err != nil {
		return err
	}
	rgg, _, err := gen.RandomGeometric(1024, 0.056, rand.New(rand.NewSource(1)))
	if err != nil {
		return err
	}
	for _, e := range []struct {
		name string
		g    *graph.Graph
	}{{"ring4096", ring}, {"rgg1024", rgg}} {
		s, err := core.BuildScheme(e.g, 2)
		if err != nil {
			return err
		}
		path, size, err := writeStoreFile(filepath.Join(dir, e.name+".fsdl"), s, true)
		if err != nil {
			return err
		}
		n := int64(e.g.NumVertices())
		addBytes(benchResult{Name: "label_bytes_per_vertex_fsdl3c_" + e.name, Iterations: int(n), BytesPerOp: (size + n - 1) / n}, fmt.Sprintf("per vertex (file %d bytes)", size))
		if e.name != "ring4096" {
			// Four vertex faults: the largest fault set of the bench's
			// fetch_rgg_mmap workload.
			f := graph.FaultVertices(100, 300, 500, 700)
			q, err := s.NewQuery(0, int(n)-1, f)
			if err != nil {
				return err
			}
			add(measure("new_frame_F4_"+e.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					core.NewFrame(q, nil)
				}
			}))
			// The same query as a lone decode over the mapped factored
			// store, the labels fetch_rgg_mmap decodes: parsed from their
			// balls, each level either saturated — the level graphs' one
			// whole list — or read off their rows. It takes turns with its
			// twin over the same file opened again (other pointers, the
			// same work), so that no decode finds the frame of the one
			// before.
			var qs [2]*core.Query
			for i := range qs {
				st, err := labelstore.Open(path)
				if err != nil {
					return err
				}
				defer st.Close()
				if qs[i], err = core.ResolveQuery(0, int(n)-1, f, st.Label, false); err != nil {
					return err
				}
			}
			var dec core.Decoder
			add(measure("decode_mmap_F4_"+e.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					dec.Decode(qs[i&1], core.Opts{})
				}
			}))
			dec.Release()
			continue
		}
		enc, l := labelstore.NewBallEncoder(s.LevelGraphs()), s.Label(1000)
		add(measure("encode_balls", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := enc.Encode(l); err != nil {
					b.Fatal(err)
				}
			}
		}))
		st, err := labelstore.Open(path)
		if err != nil {
			return err
		}
		retained, err := decodedLabelBytes(st, int(n))
		if err != nil {
			return err
		}
		addBytes(benchResult{Name: "decoded_label_bytes_ring4096", Iterations: int(n), BytesPerOp: retained}, "per parsed label, held by no other")
		r := measure("parse_balls", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := st.BallStats(); err != nil {
					b.Fatal(err)
				}
			}
		})
		st.Close()
		r.NsPerOp, r.AllocsPerOp, r.BytesPerOp = r.NsPerOp/float64(n), r.AllocsPerOp/n, r.BytesPerOp/n
		add(r)
	}
	return nil
}

// decodedLabelBytes is the mean number of bytes a label parsed from st
// holds that no other label shares: its points, and every edge array no
// other parsed label holds too. Every label is held until the count is
// done, so no array's address can be reused by another's.
func decodedLabelBytes(st *labelstore.Store, n int) (int64, error) {
	labels := make([]*core.Label, n)
	holders := make(map[*core.EdgeEntry]int)
	var total int64
	for v := range labels {
		l, err := st.Label(v)
		if err != nil {
			return 0, err
		}
		labels[v] = l
		for _, lv := range l.Levels {
			total += int64(len(lv.Points)) * int64(unsafe.Sizeof(core.PointEntry{}))
			if len(lv.Edges) > 0 {
				holders[&lv.Edges[0]]++
			}
		}
	}
	for _, l := range labels {
		for _, lv := range l.Levels {
			if len(lv.Edges) > 0 && holders[&lv.Edges[0]] == 1 {
				total += int64(len(lv.Edges)) * int64(unsafe.Sizeof(core.EdgeEntry{}))
			}
		}
	}
	return (total + int64(n) - 1) / int64(n), nil
}

// checkBaseline compares the run's allocs/op against a committed baseline
// document and fails on regression. Only kernels present in both documents
// are compared, so adding or renaming kernels never breaks the gate.
// Allocation counts are deterministic (unlike wall-clock), which makes
// them a metric CI can gate on absolutely across heterogeneous runners;
// the slack (25% + 8) absorbs Go-runtime variation between toolchains.
// Time is gated relatively instead, parent against change on one machine
// (pairedGate).
//
// Decode kernels and new_frame_* get a stricter gate: allocs/op must not
// exceed the baseline by more than a thousandth — that is, at all for
// the decode hot path, which is pooled and allocation-free by design
// (one stray byte is a leak, not noise), and by the handful of allocs
// a GC costs a kernel in the thousands when it empties a scratch pool
// mid-run (compact_incremental_small_delta reads 5568 or 5570 on the
// same binary).
//
// strictKernels get that allocs gate too: single-threaded kernels whose
// cost the PR's perf claims rest on, so drift is a regression rather
// than noise. The value says whether the row is timed as well — not
// wal_append_group, which does a real fsync per op and so measures the
// runner's disk, not the code.
var strictKernels = map[string]bool{
	"compact_incremental_small_delta": true,
	"wal_append_group":                false,
	// A few microseconds per op on a mapped file: allocs are the
	// regression a change to the cold path would show, time is the
	// runner's.
	"label_cold_fsdl3c": false,
	// The record codec under every factored write and read: encode works
	// in the writer's scratch (0 allocs), parse allocates the slices it
	// hands on and nothing else.
	"encode_balls": false,
	"parse_balls":  false,
}

// decodeRow reports whether a row is a decode kernel or a frame build:
// strict and timed.
func decodeRow(name string) bool {
	return strings.HasPrefix(name, "decode_") || strings.HasPrefix(name, "new_frame_")
}

// timedRow reports whether the paired gate compares a row's ns/op. The
// decode kernels are single-threaded, cache-resident and run no I/O.
func timedRow(name string) bool {
	return decodeRow(name) || strictKernels[name]
}

func checkBaseline(doc benchDoc, path string, log io.Writer) error {
	base, err := readDoc(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	byName := make(map[string]benchResult, len(base.Results))
	for _, r := range base.Results {
		byName[r.Name] = r
	}
	var regressions []string
	compared := 0
	for _, r := range doc.Results {
		b, ok := byName[r.Name]
		if !ok {
			continue
		}
		compared++
		_, strict := strictKernels[r.Name]
		limit := int64(float64(b.AllocsPerOp)*1.25) + 8
		if strict || decodeRow(r.Name) {
			limit = b.AllocsPerOp + b.AllocsPerOp/1000
		}
		if r.AllocsPerOp > limit {
			regressions = append(regressions,
				fmt.Sprintf("%s: %d allocs/op (baseline %d, limit %d)", r.Name, r.AllocsPerOp, b.AllocsPerOp, limit))
		}
		// What a decoded label retains is deterministic: any growth is
		// state the decoded-label caches hold for every label.
		if strings.HasPrefix(r.Name, "decoded_label_bytes_") && r.BytesPerOp > b.BytesPerOp+b.BytesPerOp/100 {
			regressions = append(regressions,
				fmt.Sprintf("%s: %d bytes per label (baseline %d)", r.Name, r.BytesPerOp, b.BytesPerOp))
		}
	}
	if compared == 0 {
		return fmt.Errorf("baseline %s: no kernel names in common (schema drift?)", path)
	}
	return report(regressions, "vs "+path, compared, log)
}

// report prints the regressions a gate found and fails on any.
func report(regressions []string, what string, compared int, log io.Writer) error {
	if len(regressions) > 0 {
		for _, s := range regressions {
			fmt.Fprintln(log, "BENCH REGRESSION", s)
		}
		return fmt.Errorf("%d bench regression(s) %s", len(regressions), what)
	}
	fmt.Fprintf(log, "%s: %d kernels compared, no regressions\n", what, compared)
	return nil
}

// writeDoc writes doc to path ("-" for log).
func writeDoc(path string, doc benchDoc, log io.Writer) error {
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = log.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// readDoc reads one fsdl-bench document.
func readDoc(path string) (benchDoc, error) {
	var d benchDoc
	raw, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// pairedGate is the time gate: two builds of fsdl-bench, the parent's and
// the change's, run in k >= 5 interleaved rounds on one machine, each
// round leaving dir/parent-<i>.json and dir/change-<i>.json. A timed
// row fails when the median of its change rounds exceeds the median of
// its parent rounds by more than 30%; a slow hour slows both sides, so
// the ratio holds where an absolute bound would not. A timed row the
// change's rounds lack fails too, so a rename or a drop cannot pass; a
// row only the change has is listed, not gated. The record it returns
// is the change's medians with the parent's beside them.
func pairedGate(dir string, log io.Writer) (benchDoc, error) {
	var sides [2][]benchDoc
	for i, side := range []string{"parent", "change"} {
		paths, _ := filepath.Glob(filepath.Join(dir, side+"-*.json"))
		for _, p := range paths {
			d, err := readDoc(p)
			if err != nil {
				return benchDoc{}, err
			}
			sides[i] = append(sides[i], d)
		}
	}
	if k := len(sides[1]); k < 5 || len(sides[0]) != k {
		return benchDoc{}, fmt.Errorf("paired: %d parent and %d change rounds in %s, want the same k >= 5", len(sides[0]), k, dir)
	}
	parent, rec := medians(sides[0]), medians(sides[1])
	byName := make(map[string]benchResult, len(parent.Results))
	for _, r := range parent.Results {
		byName[r.Name] = r
	}
	fmt.Fprintf(log, "\n### Paired rounds (%d each, medians; min–max over the rounds)\n\n"+
		"| kernel | parent ns/op | parent min–max | change ns/op | change min–max | change/parent |\n|---|---:|---:|---:|---:|---:|\n", len(sides[1]))
	var regressions []string
	compared := 0
	timed := make(map[string]bool, len(rec.Results))
	for i := range rec.Results {
		r := &rec.Results[i]
		if !timedRow(r.Name) || r.NsPerOp <= 0 {
			continue
		}
		timed[r.Name] = true
		changeSpread := spread(sides[1], r.Name)
		p, ok := byName[r.Name]
		if !ok || p.NsPerOp <= 0 {
			fmt.Fprintf(log, "| %s | — | — | %.0f | %s | new, not gated |\n", r.Name, r.NsPerOp, changeSpread)
			continue
		}
		compared++
		r.ParentNsPerOp = p.NsPerOp
		ratio := r.NsPerOp / p.NsPerOp
		parentSpread := spread(sides[0], r.Name)
		fmt.Fprintf(log, "| %s | %.0f | %s | %.0f | %s | %.2f |\n", r.Name, p.NsPerOp, parentSpread, r.NsPerOp, changeSpread, ratio)
		if ratio > 1.30 {
			regressions = append(regressions, fmt.Sprintf("%s: %.0f ns/op (rounds %s), parent %.0f (rounds %s) (%.2fx, limit 1.30x)",
				r.Name, r.NsPerOp, changeSpread, p.NsPerOp, parentSpread, ratio))
		}
	}
	for _, p := range parent.Results {
		if timedRow(p.Name) && p.NsPerOp > 0 && !timed[p.Name] {
			regressions = append(regressions, fmt.Sprintf("%s: timed in the parent's rounds, missing from the change's (renamed or dropped)", p.Name))
		}
	}
	if compared == 0 {
		return rec, fmt.Errorf("paired: no timed kernel in both sides' rounds")
	}
	return rec, report(regressions, "change vs parent", compared, log)
}

// medians is one document of the per-row medians over docs, rows in the
// first document's order.
func medians(docs []benchDoc) benchDoc {
	out := docs[0]
	out.Results = nil
	for _, r := range docs[0].Results {
		var ns []float64
		var allocs, bytes []int64
		for _, d := range docs {
			for _, x := range d.Results {
				if x.Name == r.Name {
					ns, allocs, bytes = append(ns, x.NsPerOp), append(allocs, x.AllocsPerOp), append(bytes, x.BytesPerOp)
				}
			}
		}
		r.NsPerOp, r.AllocsPerOp, r.BytesPerOp = median(ns), median(allocs), median(bytes)
		out.Results = append(out.Results, r)
	}
	return out
}

// spread is "min–max" of row name's ns/op over the rounds docs: what the
// medians the paired gate compares leave out.
func spread(docs []benchDoc, name string) string {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, d := range docs {
		for _, x := range d.Results {
			if x.Name == name {
				lo, hi = min(lo, x.NsPerOp), max(hi, x.NsPerOp)
			}
		}
	}
	return fmt.Sprintf("%.0f–%.0f", lo, hi)
}

// median is the middle value of xs (the lower one of an even count).
func median[T int64 | float64](xs []T) T {
	slices.Sort(xs)
	return xs[(len(xs)-1)/2]
}

// compareDoc renders a benchstat-style markdown table of the run
// against an older committed document — old vs new ns/op and allocs/op
// with the relative delta — for humans (CI appends it to the job
// summary). Unlike checkBaseline it never fails: it reports
// improvements just as loudly as regressions.
func compareDoc(doc benchDoc, path string, log io.Writer) error {
	old, err := readDoc(path)
	if err != nil {
		return fmt.Errorf("compare: %w", err)
	}
	byName := make(map[string]benchResult, len(old.Results))
	for _, r := range old.Results {
		byName[r.Name] = r
	}
	fmt.Fprintf(log, "\n### Bench vs %s\n\n", path)
	fmt.Fprintln(log, "| kernel | old ns/op | new ns/op | delta | old allocs | new allocs |")
	fmt.Fprintln(log, "|---|---:|---:|---:|---:|---:|")
	for _, r := range doc.Results {
		o, ok := byName[r.Name]
		if !ok {
			fmt.Fprintf(log, "| %s | — | %.0f | new | — | %d |\n", r.Name, r.NsPerOp, r.AllocsPerOp)
			continue
		}
		delta := "~"
		if o.NsPerOp > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(r.NsPerOp-o.NsPerOp)/o.NsPerOp)
		}
		fmt.Fprintf(log, "| %s | %.0f | %.0f | %s | %d | %d |\n",
			r.Name, o.NsPerOp, r.NsPerOp, delta, o.AllocsPerOp, r.AllocsPerOp)
	}
	return nil
}

// sliceBuffer is a minimal in-memory io.ReadWriter (avoids bytes.Buffer
// aliasing concerns across Save/Load).
type sliceBuffer struct {
	data []byte
	off  int
}

func (sb *sliceBuffer) Write(p []byte) (int, error) {
	sb.data = append(sb.data, p...)
	return len(p), nil
}

func (sb *sliceBuffer) Read(p []byte) (int, error) {
	if sb.off >= len(sb.data) {
		return 0, io.EOF
	}
	k := copy(p, sb.data[sb.off:])
	sb.off += k
	return k, nil
}
