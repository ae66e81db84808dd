package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fsdl/internal/server"
)

// runConfig is one invocation's parameters.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	tiny    bool
	workDir string // scratch space for containers, WALs and generations
}

// value is one emitted metric.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"` // observations behind a percentile or mean
	Moves   string  `json:"moves,omitempty"`
}

// result is what a run hands back to main for printing.
type result struct {
	attempted, failed int
	warmupOps         int
	violations        []string
	metrics           map[string]value
	spans             []span // traced runs only
}

type opKind int

const (
	opQuery opKind = iota
	opMutate
	opCompact
)

// op is one HTTP call of the timed phase, kept whole so the checker can
// run after timing.
type op struct {
	kind          opKind
	req           *request
	round         int
	status        int
	body          []byte
	err           error
	lat           time.Duration
	duringCompact bool
	// window is the slice of the timed phase the op completed in (see
	// windowed); answered is filled by the checker.
	window   int
	answered int
}

func (d *deployment) post(path string, body []byte) (int, []byte, error) {
	resp, err := d.client.Post(d.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, out, err
}

// timedQuery issues one scripted query and records it.
func (d *deployment) timedQuery(req *request, round int) op {
	o := op{kind: opQuery, req: req, round: round}
	t0 := time.Now()
	o.status, o.body, o.err = d.post(req.url, req.body)
	o.lat = time.Since(t0)
	return o
}

// setupRepeats is how many times a run sets the deployment up; setup_s
// is the median, and the last one is the deployment that gets measured.
const setupRepeats = 3

// setUp builds w's artifacts in a fresh directory under cfg.workDir and
// boots the deployment.
func setUp(cfg *runConfig, tag string) (*artifacts, *shardSet, *deployment, error) {
	dir := filepath.Join(cfg.workDir, tag)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, err
	}
	a, err := build(cfg.w, dir, cfg.tiny)
	if err != nil {
		return nil, nil, nil, err
	}
	var ss *shardSet
	if cfg.w.kind == deployCluster {
		if ss, err = startShards(a); err != nil {
			return nil, nil, nil, err
		}
	}
	d, err := boot(cfg.w, a, ss, filepath.Join(dir, "live"), true)
	if err != nil {
		ss.close()
		return nil, nil, nil, err
	}
	return a, ss, d, nil
}

// runTimed is the untraced run: set up (three times, keeping the last),
// drive the closed loop for cfg.seconds, then check every answer.
func runTimed(cfg *runConfig) (*result, error) {
	var (
		setups samples
		a      *artifacts
		ss     *shardSet
		d      *deployment
	)
	for rep := 0; rep < setupRepeats; rep++ {
		if d != nil {
			d.close()
			ss.close()
		}
		t0 := time.Now()
		var err error
		if a, ss, d, err = setUp(cfg, fmt.Sprintf("setup%d", rep)); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups.addDur(time.Since(t0), time.Second)
	}
	defer func() {
		d.close()
		ss.close()
	}()

	dur := time.Duration(cfg.seconds * float64(time.Second))
	var (
		ops     []op
		windows []time.Duration
		ls      *liveScript
	)
	if cfg.w.kind == deployLive {
		ls = newLiveScript(cfg.w, a.g, cfg.seed)
		ops, windows = runLiveRounds(d, ls, dur)
	} else {
		ops, windows = runClosedLoop(d, newScript(cfg.w, a.g, cfg.seed), cfg.w.warm, dur)
	}
	rss := peakRSSMB()

	res := &result{warmupOps: cfg.w.warm, metrics: map[string]value{}}
	ck := checkOps(a, ops, ls, res)

	// The median and the throughput are taken per window and reported as
	// the median over windows, so one stall (a neighbour's burst, a GC
	// cycle landing badly) moves one window, not the run's number. The
	// tail percentile is over the whole run: a tail is made of stalls.
	var (
		all     samples
		winLat  = make([]samples, len(windows))
		winDone = make([]float64, len(windows))
		p50s    samples
		rates   samples
	)
	for i := range ops {
		o := &ops[i]
		if o.kind != opQuery {
			continue
		}
		all.addDur(o.lat, time.Millisecond)
		winLat[o.window].addDur(o.lat, time.Millisecond)
		winDone[o.window] += float64(o.answered)
	}
	for k, length := range windows {
		p50s.add(winLat[k].median())
		rates.add(winDone[k] / length.Seconds())
	}
	res.metrics["setup_s"] = value{Value: setups.median(), Samples: len(setups)}
	res.metrics["query_p50_ms"] = value{Value: p50s.median(), Samples: len(all)}
	res.metrics["query_p95_ms"] = value{Value: all.percentile(0.95), Samples: len(all)}
	res.metrics["pairs_per_s"] = value{Value: rates.median(), Samples: ck.answered}
	res.metrics["stretch_mean"] = value{Value: ck.stretch.mean(), Samples: len(ck.stretch)}
	res.metrics["store_bytes_per_vertex"] = value{Value: a.bytesPerVertex()}
	res.metrics["peak_rss_mb"] = value{Value: rss}
	return res, nil
}

// staticWindows is how many equal slices the timed phase of a static
// workload is cut into.
const staticWindows = 5

// runClosedLoop drives the script from `clients` goroutines, each
// issuing its next request only after the previous one answered. The
// first warm requests fill caches untimed; the timed phase then runs
// the script onward until dur has passed. It returns the timed ops,
// each tagged with the window it completed in, and the window lengths.
func runClosedLoop(d *deployment, sc *script, warm int, dur time.Duration) ([]op, []time.Duration) {
	var next atomic.Int64
	var start time.Time
	slice := dur / staticWindows
	drive := func(until func(i int) bool, keep bool) []op {
		per := make([][]op, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if until(i) {
						return
					}
					o := d.timedQuery(sc.request(i), 0)
					if keep {
						o.window = min(int(time.Since(start)/slice), staticWindows-1)
						per[c] = append(per[c], o)
					}
				}
			}(c)
		}
		wg.Wait()
		var all []op
		for _, p := range per {
			all = append(all, p...)
		}
		return all
	}
	drive(func(i int) bool { return i >= warm }, false)
	next.Store(int64(warm))
	start = time.Now()
	deadline := start.Add(dur)
	ops := drive(func(int) bool { return !time.Now().Before(deadline) }, true)
	windows := make([]time.Duration, staticWindows)
	for k := range windows {
		windows[k] = slice
	}
	// Requests in flight at the deadline complete into the last window.
	windows[staticWindows-1] = time.Since(start) - (staticWindows-1)*slice
	return ops, windows
}

// checked summarizes the checker's pass over a run.
type checked struct {
	answered int // pairs answered with HTTP 200 and within the contract
	stretch  samples
}

// checkOps runs the answer checker over every recorded op, filling
// res.attempted/failed/violations. An op fails when the call errored,
// was refused (429/503) or otherwise non-200, did not parse, or any of
// its answers breaks the contract.
func checkOps(a *artifacts, ops []op, ls *liveScript, res *result) checked {
	m := newModel(a.g)
	var ck checked
	appliedRound := -1
	fail := func(format string, args ...any) {
		res.failed++
		if len(res.violations) < 20 {
			res.violations = append(res.violations, fmt.Sprintf(format, args...))
		}
	}
	for i := range ops {
		o := &ops[i]
		res.attempted++
		if ls != nil {
			// Bring the model up to the mutations acked before this op.
			upto := o.round
			if o.kind == opMutate {
				upto--
			}
			for ; appliedRound < upto; appliedRound++ {
				for _, mu := range ls.rounds[appliedRound+1] {
					if mu.insert {
						m.addEdge(mu.u, mu.v)
					} else {
						m.removeEdge(mu.u, mu.v)
					}
				}
			}
		}
		if o.err != nil || o.status != http.StatusOK {
			fail("op %d kind %d: status %d err %v body %.120s", i, o.kind, o.status, o.err, o.body)
			continue
		}
		if o.kind != opQuery {
			continue
		}
		answers, err := parseAnswers(o.req, o.body)
		if err != nil {
			fail("op %d: %v", i, err)
			continue
		}
		f := newForbidden(&o.req.faults)
		ok := true
		for k := range answers {
			v := checkAnswer(m, &answers[k], o.req.pairs[k], f, o.req.path, ls != nil)
			if v.violation != "" {
				if ok {
					fail("op %d: %s", i, v.violation)
				}
				ok = false
				continue
			}
			ck.answered++
			o.answered++
			if v.stretch > 0 {
				ck.stretch.add(v.stretch)
			}
		}
	}
	return ck
}

// parseAnswers decodes a query response into one Answer per pair.
func parseAnswers(req *request, body []byte) ([]server.Answer, error) {
	if req.url == "/v1/distance" {
		var a server.Answer
		if err := json.Unmarshal(body, &a); err != nil {
			return nil, fmt.Errorf("bad answer body: %w", err)
		}
		return []server.Answer{a}, nil
	}
	var batch struct {
		Answers []server.Answer `json:"answers"`
	}
	if err := json.Unmarshal(body, &batch); err != nil {
		return nil, fmt.Errorf("bad batch body: %w", err)
	}
	if len(batch.Answers) != len(req.pairs) {
		return nil, fmt.Errorf("batch of %d pairs got %d answers", len(req.pairs), len(batch.Answers))
	}
	return batch.Answers, nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		// Not Linux: fall back to what the Go runtime has obtained from
		// the OS, the closest portable stand-in.
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.Sys) / (1 << 20)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
