package fsdl_test

// One testing.B benchmark per experiment of DESIGN.md / EXPERIMENTS.md.
// Custom metrics (label-bits, stretch, sketch sizes) are attached via
// b.ReportMetric so `go test -bench . -benchmem` regenerates the numbers
// the experiment reports record. The full sweeps with tables live in
// cmd/fsdl-bench; these benches are the per-configuration measurement
// kernels.

import (
	"fmt"
	"math/rand"
	"testing"

	"fsdl"
	"fsdl/internal/baseline"
	"fsdl/internal/core"
	"fsdl/internal/hub"
	"fsdl/internal/lowerbound"
	"fsdl/internal/oracle"
	"fsdl/internal/treelabel"
)

func mustScheme(b *testing.B, g *fsdl.Graph, eps float64) *fsdl.Scheme {
	b.Helper()
	s, err := fsdl.Build(g, eps)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkBuildScheme measures preprocessing (net hierarchy + level
// store) on a 24x24 grid.
func BenchmarkBuildScheme(b *testing.B) {
	g := fsdl.GridGraph2D(24, 24)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fsdl.Build(g, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildSchemeParallel measures the worker-pool preprocessing
// pipeline on a large grid (the per-level greedy passes and the global
// (level, net-point) BFS queue both scale with workers; output is
// bit-identical for any count — see TestParallelBuildDeterminism).
func BenchmarkBuildSchemeParallel(b *testing.B) {
	g := fsdl.GridGraph2D(64, 64)
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fsdl.BuildWithWorkers(g, 2, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLabelLengthVsN is the E1 kernel: label extraction + encoding at
// growing n; the label-bits metric is the experiment's measurement.
func BenchmarkLabelLengthVsN(b *testing.B) {
	for _, side := range []int{8, 16, 32} {
		side := side
		b.Run(fmt.Sprintf("grid-%dx%d", side, side), func(b *testing.B) {
			g := fsdl.GridGraph2D(side, side)
			s := mustScheme(b, g, 2)
			s.SetCacheLimit(0)
			v := g.NumVertices() / 2
			var bits int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, bits = s.Label(v).Encode()
			}
			b.ReportMetric(float64(bits), "label-bits")
		})
	}
}

// BenchmarkLabelLengthVsEps is the E2 kernel.
func BenchmarkLabelLengthVsEps(b *testing.B) {
	g := fsdl.GridGraph2D(16, 16)
	for _, eps := range []float64{3, 1, 0.5} { // c = 2, 3, 4
		eps := eps
		b.Run(fmt.Sprintf("eps-%g", eps), func(b *testing.B) {
			s := mustScheme(b, g, eps)
			s.SetCacheLimit(0)
			v := g.NumVertices() / 2
			var bits int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, bits = s.Label(v).Encode()
			}
			b.ReportMetric(float64(bits), "label-bits")
		})
	}
}

// BenchmarkQueryStretch is the E3 kernel: full query (fetch + decode) with
// |F| faults; the stretch metric reports estimate/truth.
func BenchmarkQueryStretch(b *testing.B) {
	g := fsdl.GridGraph2D(20, 20)
	s := mustScheme(b, g, 2)
	s.SetCacheLimit(4096)
	n := g.NumVertices()
	for _, nf := range []int{0, 4, 8} {
		nf := nf
		b.Run(fmt.Sprintf("F-%d", nf), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var totalStretch, count float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src, dst := rng.Intn(n), rng.Intn(n)
				f := fsdl.NewFaultSet()
				for f.Size() < nf {
					v := rng.Intn(n)
					if v != src && v != dst {
						f.AddVertex(v)
					}
				}
				est, ok := s.Distance(src, dst, f)
				if !ok {
					continue
				}
				b.StopTimer()
				truth := g.DistAvoiding(src, dst, f)
				if truth > 0 {
					totalStretch += float64(est) / float64(truth)
					count++
				}
				b.StartTimer()
			}
			if count > 0 {
				b.ReportMetric(totalStretch/count, "stretch")
			}
		})
	}
}

// BenchmarkQueryTimeVsF is the E4 kernel: decode only (labels prefetched),
// the quantity Lemma 2.6 bounds.
func BenchmarkQueryTimeVsF(b *testing.B) {
	g := fsdl.GridGraph2D(24, 24)
	s := mustScheme(b, g, 2)
	s.SetCacheLimit(4096)
	n := g.NumVertices()
	for _, nf := range []int{1, 4, 16, 64, 70} {
		nf := nf
		b.Run(fmt.Sprintf("F-%d", nf), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			src, dst := 0, n-1
			f := fsdl.NewFaultSet()
			for f.Size() < nf {
				v := rng.Intn(n)
				if v != src && v != dst {
					f.AddVertex(v)
				}
			}
			q, err := s.NewQuery(src, dst, f)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Distance()
			}
		})
	}
}

// BenchmarkExactRecompute is E4's baseline: one BFS on G\F per query.
func BenchmarkExactRecompute(b *testing.B) {
	g := fsdl.GridGraph2D(24, 24)
	ex := baseline.Exact{G: g}
	f := fsdl.FaultVertices(100, 200, 300, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Distance(0, g.NumVertices()-1, f)
	}
}

// BenchmarkRouting is the E5 kernel: full-knowledge forbidden-set routing.
func BenchmarkRouting(b *testing.B) {
	g := fsdl.GridGraph2D(16, 16)
	s := mustScheme(b, g, 2)
	s.SetCacheLimit(4096)
	r := fsdl.BuildRouting(s)
	f := fsdl.FaultVertices(100, 120, 140)
	var length int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		route, ok := r.RouteWithFaults(0, g.NumVertices()-1, f)
		if !ok {
			b.Fatal("route failed")
		}
		length = route.Length
	}
	b.ReportMetric(float64(length), "route-hops")
}

// BenchmarkReconstruction is the E6 kernel: the Theorem 3.1 adjacency
// reconstruction attack against the labeling scheme's own oracle.
func BenchmarkReconstruction(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	member, _, err := lowerbound.RandomFamilyMember(3, 2, rng)
	if err != nil {
		b.Fatal(err)
	}
	o, err := oracle.BuildStatic(member, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lowerbound.ReconstructAdjacency(member.NumVertices(), o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOracleBuild is the E7 kernel: materializing the table-of-labels
// oracle; oracle-bits is the size metric.
func BenchmarkOracleBuild(b *testing.B) {
	g := fsdl.GridGraph2D(12, 12)
	var size int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := fsdl.BuildStaticOracle(g, 2)
		if err != nil {
			b.Fatal(err)
		}
		size = o.SizeBits()
	}
	b.ReportMetric(float64(size), "oracle-bits")
}

// BenchmarkDynamicOracleChurn is the E7 dynamic kernel: one
// fail/query/recover cycle.
func BenchmarkDynamicOracleChurn(b *testing.B) {
	g := fsdl.GridGraph2D(12, 12)
	d, err := fsdl.NewDynamicOracle(g, 2, 0)
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := 1 + rng.Intn(n-2)
		if err := d.FailVertex(v); err != nil {
			b.Fatal(err)
		}
		d.Distance(0, n-1)
		if err := d.RecoverVertex(v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceQuery is the E8 kernel: a traced query around a planted
// fault cluster, reporting the sketch-graph dimensions.
func BenchmarkTraceQuery(b *testing.B) {
	g := fsdl.GridGraph2D(20, 20)
	s := mustScheme(b, g, 2)
	s.SetCacheLimit(4096)
	f := fsdl.FaultVertices(209, 210, 211)
	q, err := s.NewQuery(0, g.NumVertices()-1, f)
	if err != nil {
		b.Fatal(err)
	}
	var tr fsdl.Trace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh Decoder per query: one frame built per decode.
		var dec fsdl.Decoder
		dec.Decode(q, fsdl.DecodeOpts{Trace: &tr})
		dec.Release()
	}
	b.ReportMetric(float64(tr.NumHVertices), "H-vertices")
	b.ReportMetric(float64(tr.NumHEdges), "H-edges")
}

// BenchmarkFFQuery measures the failure-free scheme of Section 2.1 — the
// cheap no-fault baseline's decode cost.
func BenchmarkFFQuery(b *testing.B) {
	g := fsdl.GridGraph2D(20, 20)
	ff, err := fsdl.BuildFailureFree(g, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	ls, lt := ff.Label(0), ff.Label(g.NumVertices()-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fsdl.FFDistance(ls, lt)
	}
}

// BenchmarkAblatedLabel is the E9 kernel: label extraction under the
// radius-shrink ablation, with the label-bits metric showing the savings
// the completeness guarantee is traded for.
func BenchmarkAblatedLabel(b *testing.B) {
	g := fsdl.PathGraph(512)
	for _, shrink := range []int{0, 2} {
		shrink := shrink
		b.Run(fmt.Sprintf("rshrink-%d", shrink), func(b *testing.B) {
			s, err := core.BuildSchemeAblated(g, 2, shrink)
			if err != nil {
				b.Fatal(err)
			}
			s.SetCacheLimit(0)
			var bits int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, bits = s.Label(256).Encode()
			}
			b.ReportMetric(float64(bits), "label-bits")
		})
	}
}

// BenchmarkTreeLabelQuery is the E10 kernel: the exact Courcelle–Twigg-
// style tree query (the related-work comparison point).
func BenchmarkTreeLabelQuery(b *testing.B) {
	g := fsdl.PathGraph(1024)
	s, err := treelabel.Build(g)
	if err != nil {
		b.Fatal(err)
	}
	lu, lv := s.Label(100), s.Label(900)
	faults := []*treelabel.Label{s.Label(500)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		treelabel.Query(lu, lv, faults, nil)
	}
}

// BenchmarkDistsimTrace is the E11 kernel: one full discrete-event
// simulation run (failures + packet convoy + flooding).
func BenchmarkDistsimTrace(b *testing.B) {
	g := fsdl.GridGraph2D(10, 10)
	cs, err := fsdl.Build(g, 2)
	if err != nil {
		b.Fatal(err)
	}
	cs.SetCacheLimit(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := fsdl.NewNetworkSimulator(cs, fsdl.SimConfig{})
		for y := 0; y < 9; y++ {
			sim.FailVertexAt(0, y*10+5)
		}
		for p := 0; p < 10; p++ {
			sim.InjectPacketAt(int64(1+p*5), 4*10, 4*10+9)
		}
		sim.Run(1 << 30)
	}
}

// BenchmarkBidirVsUnidirBFS quantifies the bidirectional baseline speedup.
func BenchmarkBidirVsUnidirBFS(b *testing.B) {
	g := fsdl.GridGraph2D(64, 64)
	ex := baseline.Exact{G: g}
	f := fsdl.FaultVertices(2000, 2001)
	src, dst := 0, 64*32+32 // center: room for the frontier savings
	b.Run("unidirectional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ex.Distance(src, dst, f)
		}
	})
	b.Run("bidirectional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ex.DistanceBidir(src, dst, f)
		}
	})
}

// BenchmarkWeightedQuery is the E12 kernel: a forbidden-set query on a
// weighted road grid through the subdivision reduction.
func BenchmarkWeightedQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	const side = 10
	wg := fsdl.NewWeightedGraph(side * side)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			if x+1 < side {
				if err := wg.AddEdge(y*side+x, y*side+x+1, 1+rng.Int31n(4)); err != nil {
					b.Fatal(err)
				}
			}
			if y+1 < side {
				if err := wg.AddEdge(y*side+x, (y+1)*side+x, 1+rng.Int31n(4)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	s, err := fsdl.BuildWeighted(wg, 2)
	if err != nil {
		b.Fatal(err)
	}
	f := fsdl.FaultVertices(45, 55)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Distance(0, side*side-1, f)
	}
}

// BenchmarkHubQuery is the E13 kernel: an exact 2-hop hub-label query (the
// practical failure-free baseline).
func BenchmarkHubQuery(b *testing.B) {
	g := fsdl.GridGraph2D(20, 20)
	l := hub.Build(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Dist(0, g.NumVertices()-1)
	}
}
