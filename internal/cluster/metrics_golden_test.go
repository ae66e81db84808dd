package cluster

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
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

// goldenFrontend is a 2-shard frontend (replication 2) with breakers,
// retry budget and repair on, its background loops parked an hour away
// and every counter driven to a fixed, distinct value: shard1's breaker
// tripped open, shard0 draining, one gauge past a million (where %d and
// %g part ways).
func goldenFrontend(t *testing.T) *Frontend {
	t.Helper()
	_, st := buildFullStore(t, 4)
	tc := startCluster(t, st, 2, 2, nil)
	f := newTestFrontend(t, tc, func(c *FrontendConfig) {
		c.HealthInterval = time.Hour
		c.RepairInterval = time.Hour
	})
	m := &f.met
	m.labelHits.Store(900)
	m.labelMisses.Store(100)
	m.negHits.Store(3)
	m.recordsStored.Store(70)
	m.recordsCanonical.Store(25)
	for cause := range m.decodeFailures {
		m.decodeFailures[cause].Store(int64(11 + cause))
	}
	m.levelsFetched.Store(1)
	m.fetchCalls.Store(40)
	m.hedges.Store(5)
	m.failovers.Store(6)
	m.unavailable.Store(7)
	m.retries.Store(8)
	m.budgetSpent.Store(9)
	m.budgetDenied.Store(10)
	f.budget.spend()
	f.budget.spend()
	nodes := f.state.Load().nodes
	for i, c := range nodes {
		c.fetches.Store(int64(20 + i))
		c.fetchErrors.Store(int64(2 + i))
		for _, v := range []float64{0.0002, 0.003, 0.04 * float64(i+1), 2} {
			c.latency.Observe(v)
		}
	}
	nodes[0].draining.Store(true)
	now := time.Now()
	for i := 0; i < 8; i++ {
		nodes[1].breaker.record(now, false)
	}
	f.rep.sweeps.Store(12)
	f.rep.repaired.Store(34)
	f.rep.sealed.Store(1)
	f.rep.backlog.Store(2000000)
	f.rep.converged.Store(true)
	return f
}

// TestFrontendMetricsGolden pins Frontend.WriteMetrics byte for byte at
// fixed counter values. The golden file was cut from the renderer this
// package had before it moved onto stats.Exposition.
func TestFrontendMetricsGolden(t *testing.T) {
	var sb strings.Builder
	goldenFrontend(t).WriteMetrics(&sb)
	checkGolden(t, "metrics_frontend.golden", sb.String())
}
