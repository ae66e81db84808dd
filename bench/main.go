// Command bench is the repository's reference benchmark: it boots each
// deployment shape in-process behind real loopback sockets, drives it
// with a fixed seeded request script from a closed loop of two clients,
// checks every answer against its own BFS, and prints every metric by
// name with its unit. See README.md for the workloads and how the
// per-layer numbers are attributed.
//
//	go run ./bench --workload <name|all> --seed N --seconds S --trace 0|1
//	               [-repeat K] [-out DIR] [-tiny]
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics — the end-to-end ones with
// --trace 0, the per-layer ones with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadName := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of the request script")
	seconds := fs.Float64("seconds", 12, "length of the timed (or traced) phase")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = timed run printing the end-to-end ones")
	repeat := fs.Int("repeat", 1, "runs per workload, seeds seed..seed+K-1; prints the spread of every metric and fails when it exceeds the bound in BENCHMARK.json")
	out := fs.String("out", "", "directory for results-<workload>.json and trace-<workload>.json")
	tiny := fs.Bool("tiny", false, "toy graph sizes (tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workloadName == "all" || *repeat > 1 {
		return runMany(*workloadName, *seed, *seconds, *trace, *repeat, *out, *tiny)
	}
	w := findWorkload(*workloadName)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
		return 2
	}
	// Scratch space lives under the working directory (the checkout),
	// never outside it, and is removed on the way out.
	if err := os.MkdirAll(".bench_work", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	workDir, err := os.MkdirTemp(".bench_work", w.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer func() {
		os.RemoveAll(workDir)
		os.Remove(".bench_work") // succeeds only once no other run is using it
	}()

	cfg := &runConfig{w: w, seed: *seed, seconds: *seconds, tiny: *tiny, workDir: workDir}
	var res *result
	specs := endToEnd
	if *trace != 0 {
		specs = perLayer
		res, err = runTraced(cfg)
	} else {
		res, err = runTimed(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for _, v := range res.violations {
		fmt.Fprintln(os.Stderr, "bench: check failed:", v)
	}
	line := emit(os.Stdout, w.name, specs, res)
	if *out != "" {
		if err := writeResults(*out, cfg, *trace != 0, specs, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	fmt.Println(line)
	if res.failed > 0 {
		return 1
	}
	return 0
}

// resultLine is the contract's last line of output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// emit prints every metric of specs by name with its unit and returns
// the JSON result line.
func emit(w *os.File, workload string, specs []metricSpec, res *result) string {
	line := resultLine{
		Correct:   res.failed == 0,
		Attempted: max(res.attempted, 1),
		Failed:    res.failed,
		Metrics:   make(map[string]value, len(specs)),
	}
	fmt.Fprintf(w, "workload %s: attempted %d, failed %d\n", workload, res.attempted, res.failed)
	for _, s := range specs {
		v := res.metrics[s.Name]
		n := ""
		if v.Samples > 0 {
			n = fmt.Sprintf("  (n=%d)", v.Samples)
		}
		fmt.Fprintf(w, "  %-40s %14.6g %s%s\n", s.Name, v.Value, s.Unit, n)
		line.Metrics[s.Name] = value{Value: v.Value, Unit: s.Unit}
	}
	b, _ := json.Marshal(line)
	return string(b)
}

// writeResults records the run for later comparison: the environment it
// ran in, the op counts, and each metric with the end-to-end metric it
// is predicted to move.
func writeResults(dir string, cfg *runConfig, traced bool, specs []metricSpec, res *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	metrics := make(map[string]value, len(specs))
	for _, s := range specs {
		v := res.metrics[s.Name]
		v.Unit, v.Moves = s.Unit, s.Moves
		metrics[s.Name] = v
	}
	commit := "unknown"
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	doc := map[string]any{
		"workload":    cfg.w.name,
		"why":         cfg.w.why,
		"commit":      commit,
		"seed":        cfg.seed,
		"run_seconds": cfg.seconds,
		"traced":      traced,
		"tiny":        cfg.tiny,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"clients":     clients,
		"ops":         res.attempted,
		"warmup_ops":  res.warmupOps,
		"failed":      res.failed,
		"violations":  res.violations,
		"metrics":     metrics,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "results-"+cfg.w.name+".json"), b, 0o644); err != nil {
		return err
	}
	if !traced {
		return nil
	}
	tb, err := json.Marshal(res.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+cfg.w.name+".json"), tb, 0o644)
}

// runMany is -workload all and -repeat K: one child process per run, so
// set-up time and peak RSS belong to that run alone. With K > 1 it
// prints min / median / max and the inter-quartile spread (as a share
// of the median) of every metric, and fails when an end-to-end spread
// exceeds the bound BENCHMARK.json declares for it.
func runMany(name string, seed int64, seconds float64, trace, repeat int, out string, tiny bool) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var names []string
	if name == "all" {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if findWorkload(name) != nil {
		names = []string{name}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	bounds := declaredBounds()
	status := 0
	for _, wl := range names {
		series := map[string][]float64{}
		units := map[string]string{}
		for k := 0; k < repeat; k++ {
			args := []string{
				"-workload", wl, "-seed", fmt.Sprint(seed + int64(k)),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace),
			}
			if out != "" {
				args = append(args, "-out", out)
			}
			if tiny {
				args = append(args, "-tiny")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output() // waits for the child to exit
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var rl resultLine
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &rl); jerr != nil {
				fmt.Fprintf(os.Stderr, "bench: %s run %d printed no result (%v)\n", wl, k, err)
				return 1
			}
			if err != nil || !rl.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s run %d failed: %v, %d of %d ops failed\n", wl, k, err, rl.Failed, rl.Attempted)
				status = 1
			}
			if repeat == 1 {
				fmt.Println(string(stdout))
			}
			for m, v := range rl.Metrics {
				series[m] = append(series[m], v.Value)
				units[m] = v.Unit
			}
		}
		if repeat == 1 {
			continue
		}
		fmt.Printf("%s: %d runs, seeds %d..%d\n", wl, repeat, seed, seed+int64(repeat)-1)
		fmt.Printf("  %-40s %12s %12s %12s %8s %8s\n", "metric", "min", "median", "max", "iqr/med", "bound")
		metricNames := make([]string, 0, len(series))
		for m := range series {
			metricNames = append(metricNames, m)
		}
		sort.Strings(metricNames)
		for _, m := range metricNames {
			vals := series[m]
			q1, q2, q3 := quartiles(vals)
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			verdict := ""
			bound, bounded := bounds[m]
			// setup_s is held to its bound on medians only, not on spread.
			if bounded && m != "setup_s" && spread > bound {
				verdict = "  SPREAD EXCEEDS BOUND"
				status = 1
			}
			boundCol := "-"
			if bounded {
				boundCol = fmt.Sprintf("%.3f", bound)
			}
			fmt.Printf("  %-40s %12.6g %12.6g %12.6g %8.4f %8s %s%s\n", m, slices.Min(vals), q2, slices.Max(vals), spread, boundCol, units[m], verdict)
		}
	}
	return status
}

// declaredBounds reads the end-to-end bounds from BENCHMARK.json in the
// working directory; without the file nothing is bounded.
func declaredBounds() map[string]float64 {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(b, &doc) != nil {
		return nil
	}
	out := map[string]float64{}
	for _, m := range doc.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}
