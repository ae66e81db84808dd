package experiments

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func quickCfg(buf *bytes.Buffer) Config {
	return Config{Out: buf, Quick: true, Seed: 42}
}

func TestAllExperimentsHaveDistinctIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Fatalf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if len(seen) != 15 {
		t.Fatalf("expected 15 experiments, got %d", len(seen))
	}
}

func TestFind(t *testing.T) {
	if _, ok := Find("E3"); !ok {
		t.Error("E3 must exist")
	}
	if _, ok := Find("E99"); ok {
		t.Error("E99 must not exist")
	}
}

// Each experiment must run to completion in quick mode and produce a
// non-trivial report.
func TestExperimentsRunQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(quickCfg(&buf)); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if buf.Len() < 40 {
				t.Fatalf("%s: report suspiciously short: %q", e.ID, buf.String())
			}
		})
	}
}

func TestE3ReportsZeroViolations(t *testing.T) {
	var buf bytes.Buffer
	if err := RunE3Stretch(quickCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "violations") {
		t.Fatalf("missing violations column:\n%s", out)
	}
	// Parse data rows: the violations column is the 8th; assert all zeros
	// by checking no row has a nonzero entry there. Simpler: every data
	// row of the E3 table ends with two integer columns; scan for the
	// word "violations" header and ensure rows contain " 0 " patterns is
	// brittle — instead rerun with a stricter check via the table text:
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "grid") {
			fields := strings.Fields(line)
			if len(fields) < 2 {
				continue
			}
			// violations is the second-to-last field.
			if fields[len(fields)-2] != "0" {
				t.Fatalf("nonzero violations in row: %q", line)
			}
		}
	}
}

func TestE6ReportsExactReconstruction(t *testing.T) {
	var buf bytes.Buffer
	if err := RunE6LowerBound(quickCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "exact match: true") {
		t.Fatalf("reconstruction must match exactly:\n%s", buf.String())
	}
}

func TestE8ReportsZeroSafetyViolations(t *testing.T) {
	var buf bytes.Buffer
	if err := RunE8Trace(quickCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0 violations") {
		t.Fatalf("trace safety check failed:\n%s", buf.String())
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var buf bytes.Buffer
	if err := RunAll(quickCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	for _, e := range All() {
		if !strings.Contains(buf.String(), e.ID+" done") {
			t.Errorf("missing completion marker for %s", e.ID)
		}
	}
}

func TestHelperLog2Sq(t *testing.T) {
	if got := log2sq(1024); got < 99.9 || got > 100.1 {
		t.Errorf("log2sq(1024) = %v, want 100", got)
	}
}

func TestHelperFamilyOf(t *testing.T) {
	cases := map[string]string{
		"path n=256":  "path",
		"grid 16x16":  "grid",
		"rgg n=1024":  "rgg",
		"road 24x24":  "road",
		"mystery one": "mystery one",
	}
	for in, want := range cases {
		if got := familyOf(in); got != want {
			t.Errorf("familyOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHelperSampleVertices(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vs := sampleVertices(100, 10, rng)
	if len(vs) != 10 {
		t.Fatalf("got %d samples, want 10", len(vs))
	}
	seen := map[int]bool{}
	for _, v := range vs {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("bad sample %d", v)
		}
		seen[v] = true
	}
	all := sampleVertices(5, 10, rng)
	if len(all) != 5 {
		t.Errorf("oversized request should return all %d vertices, got %d", 5, len(all))
	}
}

func TestHelperRandomFaultSet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := randomFaultSet(50, 5, 3, 7, rng)
	if f.NumVertices() != 5 {
		t.Fatalf("got %d faults, want 5", f.NumVertices())
	}
	if f.HasVertex(3) || f.HasVertex(7) {
		t.Error("endpoints must be protected")
	}
}

func TestHelperWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gridWorkload(5)
	if g.g.NumVertices() != 25 || g.name == "" {
		t.Error("gridWorkload broken")
	}
	r, err := rggWorkload(100, rng)
	if err != nil || !r.g.IsConnected() {
		t.Errorf("rggWorkload: %v", err)
	}
	rd, err := roadWorkload(8, rng)
	if err != nil || !rd.g.IsConnected() {
		t.Errorf("roadWorkload: %v", err)
	}
}
