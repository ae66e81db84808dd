package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"fsdl/internal/gen"
	"fsdl/internal/server"
)

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestSpecMatchesBenchmarkJSON: the metric and workload lists the
// command prints from are exactly the ones BENCHMARK.json declares.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	d := loadDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, bench has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, bench has %q (or the reasons differ)", i, d.Workloads[i].Name, w.name)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or reason", w.name)
		}
	}
	if len(d.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, bench has %d", len(d.EndToEnd), len(endToEnd))
	}
	seen := map[string]bool{}
	hasSetup := false
	for i, m := range endToEnd {
		got := d.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, bench %+v", i, got, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		seen[m.Name] = true
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(d.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, bench has %d", len(d.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := d.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, bench %+v", i, got, m)
		}
		if m.Moves == "" {
			t.Errorf("%s: no predicted end-to-end target", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric name %s used twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q unit %q: outside the allowed alphabet", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better=%q", m.Name, m.Better)
		}
	}
}

// TestTinyWorkloads runs every workload, timed and traced, at toy
// scale: nothing may fail the checker, and each run must emit exactly
// the metrics declared for its mode.
func TestTinyWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := &runConfig{w: w, seed: 7, seconds: 0.25, tiny: true, workDir: t.TempDir()}
			specs, run, mode := endToEnd, runTimed, "timed"
			if traced {
				specs, run, mode = perLayer, runTraced, "traced"
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, mode, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s %s: %d of %d ops failed: %v", w.name, mode, res.failed, res.attempted, res.violations)
			}
			want := map[string]bool{}
			for _, s := range specs {
				want[s.Name] = true
				v, ok := res.metrics[s.Name]
				if !traced && (!ok || v.Value == 0) {
					t.Errorf("%s %s: end-to-end metric %s missing or 0", w.name, mode, s.Name)
				}
			}
			for name := range res.metrics {
				if !want[name] {
					t.Errorf("%s %s: emitted undeclared metric %s", w.name, mode, name)
				}
			}
			if traced && len(res.spans) == 0 {
				t.Errorf("%s traced: no spans recorded", w.name)
			}
		}
	}
}

// TestCheckerRejectsPlantedErrors proves the checker is live: a true
// answer passes, the same answer one hop short fails, and so does a
// path that walks through a forbidden vertex.
func TestCheckerRejectsPlantedErrors(t *testing.T) {
	g := gen.Grid2D(4, 4) // vertex = 4*row + col
	m := newModel(g)
	none := newForbidden(&faultSet{})
	pair := [2]int{0, 15}

	good := server.Answer{S: 0, T: 15, Connected: true, Dist: 6, Exact: true, Path: []int32{0, 3, 15}}
	if v := checkAnswer(m, &good, pair, none, true, false); v.violation != "" {
		t.Fatalf("true answer rejected: %s", v.violation)
	}
	short := good
	short.Dist = 5
	if v := checkAnswer(m, &short, pair, none, false, false); v.violation == "" {
		t.Error("δ = d−1 accepted")
	}
	loose := good
	loose.Dist = 19
	if v := checkAnswer(m, &loose, pair, none, false, false); v.violation == "" {
		t.Error("exact answer above (1+ε)·d accepted")
	}
	loose.Exact = false
	if v := checkAnswer(m, &loose, pair, none, false, false); v.violation != "" {
		t.Errorf("inexact upper bound rejected: %s", v.violation)
	}

	// Forbid vertex 3 (the top-right corner): 0→15 is still 6 hops, but a
	// walk through 3 is no longer realizable.
	f := newForbidden(&faultSet{V: []int{3}})
	if v := checkAnswer(m, &good, pair, f, true, false); v.violation == "" {
		t.Error("path through a forbidden vertex accepted")
	}
	around := server.Answer{S: 0, T: 15, Connected: true, Dist: 6, Exact: true, Path: []int32{0, 12, 15}}
	if v := checkAnswer(m, &around, pair, f, true, false); v.violation != "" {
		t.Errorf("path around the fault rejected: %s", v.violation)
	}
	gone := server.Answer{S: 0, T: 15, Exact: true}
	if v := checkAnswer(m, &gone, pair, none, false, false); v.violation == "" {
		t.Error("exact disconnected verdict on a connected pair accepted")
	}
}
