package experiments

import (
	"fmt"
	"math/rand"

	"fsdl/internal/core"
	"fsdl/internal/gen"
	"fsdl/internal/labelstore"
	"fsdl/internal/stats"
)

// RunE1LabelLengthVsN measures label length (in bits, exactly, via the bit
// serializer) as n grows within three bounded-doubling-dimension families,
// at fixed ε. Lemma 2.5 predicts growth Θ(log²n) within a family, i.e. a
// roughly constant bits/log²n column. Beside the canonical bits — the
// paper's label, edges and all — it prints the bytes a factored container
// stores for the same labels (their balls; the level graphs they are
// induced from are in the file once).
func RunE1LabelLengthVsN(cfg Config) error {
	rng := rand.New(rand.NewSource(cfg.Seed))
	const epsilon = 2.0

	var workloads []workload
	pathSizes := []int{256, 1024, 4096, 16384, 65536}
	gridSides := []int{8, 16, 32, 64}
	rggSizes := []int{256, 1024, 4096}
	samples := 16
	if cfg.Quick {
		pathSizes = []int{64, 256}
		gridSides = []int{8, 16}
		rggSizes = []int{128}
		samples = 4
	}
	for _, n := range pathSizes {
		workloads = append(workloads, workload{name: fmt.Sprintf("path n=%d", n), g: gen.Path(n)})
	}
	for _, w := range gridSides {
		workloads = append(workloads, gridWorkload(w))
	}
	for _, n := range rggSizes {
		w, err := rggWorkload(n, rng)
		if err != nil {
			return err
		}
		workloads = append(workloads, w)
	}

	table := stats.NewTable("family", "n", "avg bits", "max bits", "bits/log^2 n", "stored B", "ff bits", "fs/ff ratio")
	type point struct{ n, bits float64 }
	perFamily := map[string][]point{}
	for _, w := range workloads {
		s, err := core.BuildScheme(w.g, epsilon)
		if err != nil {
			return err
		}
		s.SetCacheLimit(0)
		ff, err := core.BuildFFScheme(w.g, epsilon)
		if err != nil {
			return err
		}
		n := w.g.NumVertices()
		var sum, stored, ffSum stats.Summary
		enc := labelstore.NewBallEncoder(s.LevelGraphs())
		for _, v := range sampleVertices(n, samples, rng) {
			sum.Add(float64(s.LabelBits(v)))
			record, err := enc.Encode(s.Label(v))
			if err != nil {
				return err
			}
			stored.Add(float64(len(record)))
			ffSum.Add(float64(ff.LabelBits(v)))
		}
		family := familyOf(w.name)
		perFamily[family] = append(perFamily[family], point{n: float64(n), bits: sum.Mean()})
		table.AddRow(w.name, n, sum.Mean(), sum.Max(), sum.Mean()/log2sq(n),
			stored.Mean(), ffSum.Mean(), sum.Mean()/ffSum.Mean())
	}
	fmt.Fprint(cfg.Out, table.String())

	// Scaling check: with bits = C·log²n the fitted power-law exponent of
	// bits vs n must be far below linear (log² growth has "slope" → 0).
	for _, family := range []string{"path", "grid", "rgg"} {
		pts := perFamily[family]
		if len(pts) < 2 {
			continue
		}
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for i, p := range pts {
			xs[i], ys[i] = p.n, p.bits
		}
		if _, slope, ok := stats.FitPowerLaw(xs, ys); ok {
			fmt.Fprintf(cfg.Out, "%s: label bits ~ n^%.2f at these sizes\n", family, slope)
		}
	}
	fmt.Fprintln(cfg.Out, "expectation: within a family, bits/log^2 n flattens once n exceeds the per-level packing constant ~2^{(c+5)alpha} (Lemma 2.2). Paths (alpha=1, constant ~181) reach that asymptotic regime at laptop scale; 2-D families (constant ~16k points/level) are still pre-asymptotic below n~10^5 and grow near-linearly — the paper's huge constants made visible, and Theorem 3.1 says some exponential constant is unavoidable.")
	return nil
}

func familyOf(name string) string {
	for _, f := range []string{"path", "grid", "rgg", "road"} {
		if len(name) >= len(f) && name[:len(f)] == f {
			return f
		}
	}
	return name
}
