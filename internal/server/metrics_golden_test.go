package server

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"fsdl/internal/liveupdate"
)

// checkGolden compares got with testdata/<name> byte for byte. A
// missing golden file is written and the test fails, so regenerating
// one is a deliberate delete, re-run and commit.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s did not exist; wrote it — inspect and commit", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}

// poolLine matches the decoder-pool and decode-counter samples: they are
// process-wide, so their counts depend on which tests ran first.
var poolLine = regexp.MustCompile(`(?m)^(fsdl_decoder_pool_\w+|fsdl_decode_\w+_total) \d+$`)

// setFixedCounters drives every counter the server owns to a fixed,
// distinct value — some past a million, where %d and %g part ways.
func setFixedCounters(s *Server) {
	m := s.met
	for i, e := range endpoints {
		m.requests[e].Store(int64(100 + i))
	}
	m.queries.Store(1234567)
	m.cacheHits.Store(300)
	m.cacheMisses.Store(100)
	m.cacheFlushes.Store(4)
	m.sharedFramesBuilt.Store(13)
	m.sharedFrameBatches.Store(14)
	m.degraded.Store(5)
	m.budgetExhausted.Store(6)
	m.rejectedOverload.Store(7)
	m.rejectedDeadline.Store(8)
	m.canceledMidBatch.Store(9)
	m.errors.Store(10)
	m.inflight.Store(3000000)
	m.failsApplied.Store(11)
	m.recoversApplied.Store(12)
	for _, v := range []float64{0.0002, 0.003, 0.04, 0.04, 7, 20} {
		m.latency.Observe(v)
	}
	for i := 0; i < 3; i++ {
		s.cache.Put(cacheKey{s: int32(i), t: 9}, Answer{})
	}
}

// TestMetricsGolden pins the /metrics exposition of a local-store
// server and of one with a live pipeline, byte for byte, at fixed
// counter values. The golden files were cut from the renderers this
// package had before they moved onto stats.Exposition.
func TestMetricsGolden(t *testing.T) {
	t.Run("local", func(t *testing.T) {
		_, st := testStore(t, 4, 4, 2)
		// Salvaged with vertex 3's record corrupt and the file cut inside
		// the last one: 16 declared, 14 kept, 1 corrupt, truncated.
		st = salvagedCopy(t, st, 3, 1)
		for _, v := range []int{0, 0, 0, 5} {
			if _, err := st.Label(v); err != nil {
				t.Fatal(err)
			}
		}
		s := newTestServer(t, Config{Store: st})
		setFixedCounters(s)
		checkGolden(t, "metrics_local.golden", poolLine.ReplaceAllString(s.Metrics(), "$1 0"))
	})
	t.Run("live", func(t *testing.T) {
		s, _, _ := newLiveServer(t, 4)
		if _, err := s.Mutate([]liveupdate.Mutation{
			{Op: liveupdate.MutDelete, U: 0, V: 1},
			{Op: liveupdate.MutInsert, U: 0, V: 15},
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Mutate([]liveupdate.Mutation{{Op: liveupdate.MutInsert, U: 0, V: 99}}); err == nil {
			t.Fatal("out-of-range insert accepted")
		}
		setFixedCounters(s)
		checkGolden(t, "metrics_live.golden", poolLine.ReplaceAllString(s.Metrics(), "$1 0"))
	})
}
