package core

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"fsdl/internal/graph"
)

// These tests pin the parallel preprocessing pipeline's contract: the
// worker count is a throughput knob only. A scheme built with any number
// of workers must be byte-identical — same persisted stream, same encoded
// labels — to the serial build, and the build itself must be race-free.

// schemeBytes persists s and returns the stream, the canonical
// whole-scheme fingerprint (SaveScheme serializes params, hierarchy, and
// every level's net graph).
func schemeBytes(t *testing.T, s *Scheme) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveScheme(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelBuildDeterminism proves the worker count never leaks into
// the output: for several graphs, schemes built with 1, 2, 3, 4, and 8
// workers persist to identical bytes and encode identical labels.
func TestParallelBuildDeterminism(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid-9x8":  gridGraph(t, 9, 8),
		"path-70":   pathGraph(t, 70),
		"grid-16x5": gridGraph(t, 16, 5),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			ref, err := BuildSchemeWorkers(g, 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := schemeBytes(t, ref)
			n := g.NumVertices()
			wantLabels := make([][]byte, n)
			for v := 0; v < n; v++ {
				buf, nbits := ref.Label(v).Encode()
				wantLabels[v] = buf[:(nbits+7)/8]
			}
			for _, workers := range []int{2, 3, 4, 8, 0} {
				s, err := BuildSchemeWorkers(g, 2, workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got := schemeBytes(t, s); !bytes.Equal(got, want) {
					t.Fatalf("workers=%d: persisted scheme differs from serial build (%d vs %d bytes)",
						workers, len(got), len(want))
				}
				for v := 0; v < n; v++ {
					buf, nbits := s.Label(v).Encode()
					if !bytes.Equal(buf[:(nbits+7)/8], wantLabels[v]) {
						t.Fatalf("workers=%d: label %d not bit-identical", workers, v)
					}
				}
			}
		})
	}
}

// TestParallelBuildRaceStress builds schemes concurrently with the full
// worker pool while extracting labels and answering queries on each —
// under -race this exercises every shared structure of the pipeline
// (greedy level workers, the global BFS task queue, CSR assembly, and
// the pooled extraction scratch).
func TestParallelBuildRaceStress(t *testing.T) {
	g := gridGraph(t, 12, 12)
	n := g.NumVertices()
	ref, err := BuildSchemeWorkers(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := graph.FaultVertices(40, 75)
	wantD, wantOK := ref.Distance(0, n-1, f)

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(workers int) {
			defer wg.Done()
			s, err := BuildSchemeWorkers(g, 2, workers)
			if err != nil {
				t.Error(err)
				return
			}
			for v := 0; v < n; v += 7 {
				if s.Label(v) == nil {
					t.Errorf("workers=%d: nil label for %d", workers, v)
					return
				}
			}
			if d, ok := s.Distance(0, n-1, f); ok != wantOK || d != wantD {
				t.Errorf("workers=%d: query (%d,%v), want (%d,%v)", workers, d, ok, wantD, wantOK)
			}
		}(1 + w%4)
	}
	wg.Wait()
}

// TestParallelBuildSpeedup demonstrates the point of the pipeline: on a
// machine with ≥ 4 CPUs, building a 64×64 grid with 4 workers must be
// meaningfully faster than with 1. Skipped on smaller machines (CI smoke
// runners are often 1–2 vCPUs) where no parallel speedup is physically
// available; determinism is covered independently above.
func TestParallelBuildSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabled {
		t.Skip("timings are meaningless under -race")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("GOMAXPROCS=%d < 4: no parallel speedup available", runtime.GOMAXPROCS(0))
	}
	g := gridGraph(t, 64, 64)
	best := func(workers int) time.Duration {
		b := time.Duration(1<<63 - 1)
		for trial := 0; trial < 3; trial++ {
			start := time.Now()
			if _, err := BuildSchemeWorkers(g, 2, workers); err != nil {
				t.Fatal(err)
			}
			if el := time.Since(start); el < b {
				b = el
			}
		}
		return b
	}
	serial := best(1)
	par := best(4)
	ratio := float64(serial) / float64(par)
	t.Logf("serial %v, 4 workers %v: %.2fx", serial, par, ratio)
	if ratio < 1.5 {
		t.Errorf("4-worker build only %.2fx faster than serial (want >= 1.5x)", ratio)
	}
}

// TestBuildSchemeWorkersMatchesBuildScheme pins the facade: BuildScheme
// is BuildSchemeWorkers with the default pool.
func TestBuildSchemeWorkersMatchesBuildScheme(t *testing.T) {
	g := gridGraph(t, 6, 6)
	a, err := BuildScheme(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildSchemeWorkers(g, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(schemeBytes(t, a), schemeBytes(t, b)) {
		t.Fatal("BuildScheme and BuildSchemeWorkers(…, 3) disagree")
	}
}
