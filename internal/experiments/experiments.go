// Package experiments implements the reproduction harness: one runner per
// experiment E1–E15 of DESIGN.md, each regenerating the measurable content
// of one of the paper's theorems or figures (the paper is a theory paper,
// so its "tables and figures" are its bounds — see EXPERIMENTS.md for the
// claim-by-claim mapping and recorded results). E15 goes beyond the
// paper: it exercises the chaos harness and the degraded decoding path
// (docs/RESILIENCE.md). The serving subsystem is measured by `go run
// ./bench` and checked by internal/server's tests (docs/SERVER.md).
package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"time"

	"fsdl/internal/gen"
	"fsdl/internal/graph"
)

// Config controls an experiment run.
type Config struct {
	// Out receives the human-readable report.
	Out io.Writer
	// Quick shrinks instance sizes so the whole suite runs in seconds
	// (used by tests); the full sizes are the defaults.
	Quick bool
	// Seed drives all randomness, making runs reproducible.
	Seed int64
}

// Experiment is one runnable experiment.
type Experiment struct {
	// ID is the experiment identifier (E1…E15).
	ID string
	// Title is a one-line description.
	Title string
	// Claim is the paper bound the experiment measures.
	Claim string
	// Run executes the experiment, writing its report to cfg.Out.
	Run func(cfg Config) error
}

// All returns the experiments in order.
func All() []Experiment {
	return []Experiment{
		{
			ID:    "E1",
			Title: "Label length vs n",
			Claim: "Lemma 2.5: label length O(1+1/eps)^{2a} log^2 n — growth in n is log^2 n",
			Run:   RunE1LabelLengthVsN,
		},
		{
			ID:    "E2",
			Title: "Label length vs epsilon and dimension",
			Claim: "Lemma 2.5: label length blows up with 1/eps and with the doubling dimension",
			Run:   RunE2LabelLengthVsEpsilon,
		},
		{
			ID:    "E3",
			Title: "Stretch under faults",
			Claim: "Thm 2.1 / Lemma 2.4: d <= estimate <= (1+eps) d on G\\F, for every F",
			Run:   RunE3Stretch,
		},
		{
			ID:    "E4",
			Title: "Query time vs |F|",
			Claim: "Lemma 2.6: query time O(1+1/eps)^{2a} |F|^2 log n; recompute baseline grows with n",
			Run:   RunE4QueryTime,
		},
		{
			ID:    "E5",
			Title: "Forbidden-set routing",
			Claim: "Thm 2.7: routing stretch 1+eps with label-sized tables; adaptive recovery",
			Run:   RunE5Routing,
		},
		{
			ID:    "E6",
			Title: "Lower bound",
			Claim: "Thm 3.1: labels need Omega(2^{a/2} + log n) bits — counting + reconstruction attack",
			Run:   RunE6LowerBound,
		},
		{
			ID:    "E7",
			Title: "Oracle sizes and dynamic oracle",
			Claim: "Intro: oracle of size independent of the number of faults tolerated; ACG'12 dynamic transform",
			Run:   RunE7Oracle,
		},
		{
			ID:    "E8",
			Title: "Sketch path trace (Figures 1-2)",
			Claim: "Claim 2: per-hop sketch edges exist with weight <= (1+eps/2) 2^l",
			Run:   RunE8Trace,
		},
		{
			ID:    "E9",
			Title: "Design ablations",
			Claim: "the ball radii r_i buy completeness (Lemma 2.4); the protected balls buy safety (Lemma 2.3)",
			Run:   RunE9Ablation,
		},
		{
			ID:    "E10",
			Title: "Treewidth comparison (Courcelle-Twigg)",
			Claim: "related work: on treewidth-1 inputs exact CT-style labels are tiny; the doubling scheme's niche is small alpha with large treewidth",
			Run:   RunE10TreewidthComparison,
		},
		{
			ID:    "E11",
			Title: "Distributed failure recovery",
			Claim: "Applications: reroute in flight without global recomputation; flooding vs piggybacking vs contact-only discovery",
			Run:   RunE11DistributedRecovery,
		},
		{
			ID:    "E12",
			Title: "Weighted road networks",
			Claim: "Applications: integer weights via the subdivision reduction, guarantee preserved for weighted surviving distances",
			Run:   RunE12WeightedRoads,
		},
		{
			ID:    "E13",
			Title: "Hub labels (practical baseline)",
			Claim: "Applications: exact hub labels are tiny but fault-intolerant — the measured price of fault tolerance",
			Run:   RunE13HubLabels,
		},
		{
			ID:    "E14",
			Title: "Preprocessing time and persistence",
			Claim: "Thm 2.1: all labels computable in polynomial time; persistence amortizes it to once",
			Run:   RunE14Preprocessing,
		},
		{
			ID:    "E15",
			Title: "Chaos resilience and graceful degradation",
			Claim: "robustness: seeded transport/router faults are survived by retries+dedup (delivery >= 95%), and damaged label stores degrade to safe upper bounds, never below d_{G\\F}",
			Run:   RunE15Chaos,
		},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment in order.
func RunAll(cfg Config) error {
	for _, e := range All() {
		if err := runOne(e, cfg); err != nil {
			return err
		}
	}
	return nil
}

func runOne(e Experiment, cfg Config) error {
	fmt.Fprintf(cfg.Out, "== %s: %s ==\n", e.ID, e.Title)
	fmt.Fprintf(cfg.Out, "claim: %s\n\n", e.Claim)
	start := time.Now()
	if err := e.Run(cfg); err != nil {
		return fmt.Errorf("experiment %s: %w", e.ID, err)
	}
	fmt.Fprintf(cfg.Out, "[%s done in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	return nil
}

// log2sq returns log₂(n)².
func log2sq(n int) float64 {
	l := math.Log2(float64(n))
	return l * l
}

// workload is a named graph instance used across experiments.
type workload struct {
	name string
	g    *graph.Graph
}

// gridWorkload builds a w×w grid workload.
func gridWorkload(w int) workload {
	return workload{name: fmt.Sprintf("grid %dx%d", w, w), g: gen.Grid2D(w, w)}
}

// rggWorkload builds a connected random geometric graph with mean degree
// around 6.
func rggWorkload(n int, rng *rand.Rand) (workload, error) {
	radius := math.Sqrt(6 / (math.Pi * float64(n)))
	g, _, err := gen.RandomGeometric(n, radius, rng)
	if err != nil {
		return workload{}, err
	}
	return workload{name: fmt.Sprintf("rgg n=%d", n), g: g}, nil
}

// roadWorkload builds a perturbed-grid road network.
func roadWorkload(w int, rng *rand.Rand) (workload, error) {
	g, err := gen.RoadNetwork(w, w, 0.12, w/2, rng)
	if err != nil {
		return workload{}, err
	}
	return workload{name: fmt.Sprintf("road %dx%d", w, w), g: g}, nil
}

// sampleVertices returns up to k distinct vertices of an n-vertex graph.
func sampleVertices(n, k int, rng *rand.Rand) []int {
	if k >= n {
		vs := make([]int, n)
		for i := range vs {
			vs[i] = i
		}
		return vs
	}
	perm := rng.Perm(n)[:k]
	sort.Ints(perm)
	return perm
}

// randomFaultSet draws k distinct failed vertices avoiding the endpoints.
func randomFaultSet(n, k, src, dst int, rng *rand.Rand) *graph.FaultSet {
	f := graph.NewFaultSet()
	for f.NumVertices() < k && f.NumVertices() < n-2 {
		v := rng.Intn(n)
		if v != src && v != dst {
			f.AddVertex(v)
		}
	}
	return f
}
