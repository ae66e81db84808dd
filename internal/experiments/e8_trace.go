package experiments

import (
	"fmt"
	"math/rand"

	"fsdl/internal/asciiviz"
	"fsdl/internal/core"
	"fsdl/internal/graph"
	"fsdl/internal/stats"
)

// RunE8Trace reproduces the structure illustrated by the paper's Figures 1
// and 2: the sketch path from s to t hops between net points M̂_j whose
// levels adapt to the distance from the fault set — long edges far from
// faults, short (ultimately unit) edges near them. The trace prints every
// hop with its contributing level and verifies the Claim 2 discipline:
// each level-ℓ hop has weight ≤ λ_ℓ, and hops get shorter as the path
// nears the planted fault cluster.
func RunE8Trace(cfg Config) error {
	rng := rand.New(rand.NewSource(cfg.Seed + 8))
	side := 20
	if cfg.Quick {
		side = 10
	}
	w := gridWorkload(side)
	n := w.g.NumVertices()
	s, err := core.BuildScheme(w.g, 2)
	if err != nil {
		return err
	}
	p := s.Params()

	// Plant a fault cluster in the middle of the grid; query corner to
	// corner so the path must pass near the cluster.
	f := graph.NewFaultSet()
	mid := side / 2
	for dx := -1; dx <= 1; dx++ {
		f.AddVertex(mid*side + mid + dx)
	}
	src, dst := 0, n-1
	q, err := s.NewQuery(src, dst, f)
	if err != nil {
		return err
	}
	var tr core.Trace
	var dec core.Decoder
	res := dec.Decode(q, core.Opts{Trace: &tr})
	dec.Release()
	if !res.OK {
		return fmt.Errorf("trace query unexpectedly disconnected")
	}
	truth := w.g.DistAvoiding(src, dst, f)
	fmt.Fprintf(cfg.Out, "workload: %s, faults: %v, query (%d,%d): estimate %d, true %d, stretch %.3f\n",
		w.name, f.Vertices(), src, dst, res.Dist, truth, float64(res.Dist)/float64(truth))

	// The Figure-1 picture itself.
	if pic, perr := asciiviz.RenderQuery(side, side, src, dst, f.Vertices(), tr.Path, nil); perr == nil {
		fmt.Fprint(cfg.Out, pic)
	}

	// Per-level admission census (the protected-ball machinery at work).
	levelTable := stats.NewTable("level", "lambda", "r", "admitted", "rejected")
	for k := range tr.AdmittedPerLevel {
		level := p.LowestLevel() + k
		levelTable.AddRow(level, p.Lambda(level), p.R(level),
			tr.AdmittedPerLevel[k], tr.RejectedPerLevel[k])
	}
	fmt.Fprint(cfg.Out, levelTable.String())

	// The Figure-1 path: waypoints with per-hop weights and distances to
	// the fault set.
	distToF, _ := w.g.MultiSourceBFS(f.Vertices())
	hopTable := stats.NewTable("hop", "from", "to", "weight", "d(from, F)")
	for i := 1; i < len(tr.Path); i++ {
		hopTable.AddRow(i, tr.Path[i-1], tr.Path[i], tr.PathWeights[i-1], distToF[tr.Path[i-1]])
	}
	fmt.Fprint(cfg.Out, hopTable.String())

	// Claim 2 discipline: hop weights shrink near the faults. Compare the
	// mean hop weight in the near-fault half vs the far half.
	var nearSum, farSum stats.Summary
	for i := 1; i < len(tr.Path); i++ {
		dF := float64(distToF[tr.Path[i-1]])
		wgt := float64(tr.PathWeights[i-1])
		if dF <= float64(p.Mu(p.LowestLevel()+2)) {
			nearSum.Add(wgt)
		} else {
			farSum.Add(wgt)
		}
	}
	if nearSum.N() > 0 && farSum.N() > 0 {
		fmt.Fprintf(cfg.Out, "mean hop weight near faults: %.2f, far from faults: %.2f (expect near <= far: levels adapt to fault distance)\n",
			nearSum.Mean(), farSum.Mean())
	}

	// Verify every hop is realizable in G\F at exactly its weight
	// (Lemma 2.3 safety, printed as part of the figure reproduction).
	violations := 0
	for i := 1; i < len(tr.Path); i++ {
		d := w.g.DistAvoiding(int(tr.Path[i-1]), int(tr.Path[i]), f)
		if !graph.Reachable(d) || int64(d) != tr.PathWeights[i-1] {
			violations++
		}
	}
	fmt.Fprintf(cfg.Out, "safety check over %d hops: %d violations (must be 0)\n",
		len(tr.Path)-1, violations)
	_ = rng
	return nil
}
