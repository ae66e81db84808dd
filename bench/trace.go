package main

import (
	"bufio"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"fsdl/internal/core"
	"fsdl/internal/graph"
	"fsdl/internal/nets"
	"fsdl/internal/server"
)

// span is one timed call into a layer. Spans of one scripted request
// share Req; Parent is the index of the span that caused this one (-1
// for the HTTP round trip at the top).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer keeps spans in memory; they are written out at exit.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) start(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// reset drops the spans recorded so far (the warm-up's).
func (t *tracer) reset() { t.spans = t.spans[:0] }

func (t *tracer) finish(id int) time.Duration {
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// layers accumulates the per-request durations of each depth. The same
// request runs on three twin instances — over HTTP, through
// Server.AnswerPairs, and as a bare label fetch + decode — whose caches
// evolve identically because each sees the same sequence, so the
// differences between depths are the upper layers' self times.
type layers struct {
	http, fetch, decode     samples // whole-depth durations, ms
	httpSelf, answerSelf    samples // http − answer, answer − fetch − decode
	decodeOne               samples // per decoded pair, ms
	decodePath              samples
	elems, sketchV, sketchE samples
	bfs, bidir              samples // µs
	reqBytes, respBytes     samples
	pending                 samples
	pairs, inexact          int
	mismatches              int
}

// direct is the lowest depth: label fetches and decoder calls made
// straight on a source, in the order Server.AnswerPairs makes them.
type direct struct {
	src *source
	dec core.Decoder
	// lastQuery is the most recent query decoded, kept for the
	// allocation count taken after the replay.
	lastQuery *core.Query
}

func (d *direct) label(v int) (*core.Label, error) {
	if d.src.fe != nil {
		return d.src.fe.Label(context.Background(), v)
	}
	return d.src.store.Label(v)
}

// directResult is what one request's bare fetch + decode produced.
type directResult struct {
	fetch, decode time.Duration
	dists         []int64 // -1 when skipped or disconnected
	queries       []*core.Query
	patches       []core.PatchEdge
}

// run fetches the labels of req's non-skipped pairs and fault set, then
// decodes each pair. liveFaults/livePatches are the pipeline's pending
// delta (nil off the live workload), merged exactly as the server does.
func (d *direct) run(tr *tracer, parent, rid int, req *request, skip []bool, liveFaults, livePatches [][2]int32) (directResult, error) {
	res := directResult{dists: make([]int64, len(req.pairs))}
	fv := slices.Clone(req.faults.V)
	slices.Sort(fv)
	fe := slices.Clone(req.faults.E)
	for _, e := range liveFaults {
		fe = append(fe, [2]int{int(min(e[0], e[1])), int(max(e[0], e[1]))})
	}
	slices.SortFunc(fe, func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
	fe = slices.Compact(fe)

	fs := tr.start("fetch", parent, rid)
	if d.src.fe != nil {
		seen := map[int]struct{}{}
		for k, p := range req.pairs {
			if !skip[k] {
				seen[p[0]], seen[p[1]] = struct{}{}, struct{}{}
			}
		}
		for _, v := range fv {
			seen[v] = struct{}{}
		}
		for _, e := range fe {
			seen[e[0]], seen[e[1]] = struct{}{}, struct{}{}
		}
		ids := make([]int, 0, len(seen))
		for v := range seen {
			ids = append(ids, v)
		}
		ps := tr.start("cluster.Prefetch", fs, rid)
		d.src.fe.Prefetch(context.Background(), ids)
		tr.finish(ps)
	}
	var (
		vfaults []*core.Label
		efaults [][2]*core.Label
		loaded  bool
	)
	for k, p := range req.pairs {
		res.dists[k] = -1
		if skip[k] {
			res.queries = append(res.queries, nil)
			continue
		}
		ls, err := d.label(p[0])
		if err != nil {
			return res, err
		}
		lt, err := d.label(p[1])
		if err != nil {
			return res, err
		}
		if !loaded {
			loaded = true
			for _, v := range fv {
				l, err := d.label(v)
				if err != nil {
					return res, err
				}
				vfaults = append(vfaults, l)
			}
			for _, e := range fe {
				la, errA := d.label(e[0])
				lb, errB := d.label(e[1])
				if errA != nil || errB != nil {
					return res, fmt.Errorf("fault edge label: %v %v", errA, errB)
				}
				efaults = append(efaults, [2]*core.Label{la, lb})
			}
			for _, e := range livePatches {
				lu, errU := d.label(int(e[0]))
				lv, errV := d.label(int(e[1]))
				if errU != nil || errV != nil {
					return res, fmt.Errorf("patch label: %v %v", errU, errV)
				}
				res.patches = append(res.patches, core.PatchEdge{U: lu, V: lv})
			}
		}
		res.queries = append(res.queries, &core.Query{S: ls, T: lt, VertexFaults: vfaults, EdgeFaults: efaults})
	}
	res.fetch = tr.finish(fs)

	ds := tr.start("core.Decoder", parent, rid)
	for k, q := range res.queries {
		if q == nil {
			continue
		}
		var r core.Result
		switch {
		case req.path && len(res.patches) > 0:
			r, _ = d.dec.DistanceRobustPatchedPath(q, res.patches, nil)
		case req.path:
			r, _ = d.dec.DistanceRobustPath(q, nil)
		case len(res.patches) > 0:
			r = d.dec.DistanceRobustPatched(q, res.patches)
		default:
			r = d.dec.DistanceRobust(q)
		}
		if r.OK {
			res.dists[k] = r.Dist
		}
		d.lastQuery = q
	}
	res.decode = tr.finish(ds)
	return res, nil
}

// extras measures, with the request's labels in hand, what the decoder
// scanned and built, a path decode, and the recompute baseline on the
// same pair.
func (d *direct) extras(ly *layers, g *graph.Graph, req *request, dr *directResult) {
	for k, q := range dr.queries {
		if q == nil {
			continue
		}
		elems := 0
		count := func(l *core.Label) {
			for i := range l.Levels {
				elems += len(l.Levels[i].Points) + len(l.Levels[i].Edges)
			}
		}
		count(q.S)
		count(q.T)
		for _, l := range q.VertexFaults {
			count(l)
		}
		for _, e := range q.EdgeFaults {
			count(e[0])
			count(e[1])
		}
		ly.elems.add(float64(elems))

		var ct core.Trace
		d.dec.DistanceWithTrace(q, &ct)
		ly.sketchV.add(float64(ct.NumHVertices))
		ly.sketchE.add(float64(ct.NumHEdges))

		t0 := time.Now()
		d.dec.DistanceRobustPath(q, nil)
		ly.decodePath.addDur(time.Since(t0), time.Millisecond)

		f := queryOptions(req).Faults
		p := req.pairs[k]
		t0 = time.Now()
		g.DistAvoiding(p[0], p[1], f)
		ly.bfs.addDur(time.Since(t0), time.Microsecond)
		t0 = time.Now()
		g.DistAvoidingBidir(p[0], p[1], f)
		ly.bidir.addDur(time.Since(t0), time.Microsecond)
		return // one pair per request is enough
	}
}

func queryOptions(req *request) *server.QueryOptions {
	f := graph.NewFaultSet()
	for _, v := range req.faults.V {
		f.AddVertex(v)
	}
	for _, e := range req.faults.E {
		f.AddEdge(e[0], e[1])
	}
	return &server.QueryOptions{Faults: f, Path: req.path}
}

// twins is the three instances a traced request runs through.
type twins struct {
	a *deployment // HTTP round trip
	b *deployment // Server.AnswerPairs in process
	c *direct     // label fetch + decode on a bare source
}

// replay runs req at the three depths. With ly nil it only exercises
// the twins (warm-up). g is the graph the baseline searches.
func (tw *twins) replay(tr *tracer, ly *layers, rid int, req *request, g *graph.Graph, withExtras bool) error {
	var liveFaults, livePatches [][2]int32
	if tw.c.src.live != nil {
		liveFaults, livePatches = tw.c.src.live.FaultEdges(), tw.c.src.live.Patches()
	}
	root := tr.start("http", -1, rid)
	status, body, err := tw.a.post(req.url, req.body)
	dHTTP := tr.finish(root)
	if err != nil || status != 200 {
		return fmt.Errorf("traced request %d: status %d err %v", rid, status, err)
	}
	as := tr.start("server.AnswerPairs", root, rid)
	answers, err := tw.b.srv.AnswerPairs(context.Background(), req.pairs, queryOptions(req))
	dAns := tr.finish(as)
	if err != nil {
		return fmt.Errorf("traced request %d: AnswerPairs: %w", rid, err)
	}
	skip := make([]bool, len(answers))
	for k := range answers {
		skip[k] = answers[k].Cached
	}
	dr, err := tw.c.run(tr, as, rid, req, skip, liveFaults, livePatches)
	if err != nil {
		return fmt.Errorf("traced request %d: direct: %w", rid, err)
	}
	if ly == nil {
		return nil
	}
	ly.http.addDur(dHTTP, time.Millisecond)
	ly.fetch.addDur(dr.fetch, time.Millisecond)
	ly.decode.addDur(dr.decode, time.Millisecond)
	ly.httpSelf.addDur(dHTTP-dAns, time.Millisecond)
	ly.answerSelf.addDur(dAns-dr.fetch-dr.decode, time.Millisecond)
	ly.reqBytes.add(float64(len(req.body)))
	ly.respBytes.add(float64(len(body)))
	decoded := 0
	httpAnswers, perr := parseAnswers(req, body)
	for k := range answers {
		ly.pairs++
		if !answers[k].Exact {
			ly.inexact++
		}
		if !skip[k] {
			decoded++
			want := int64(-1)
			if answers[k].Connected {
				want = answers[k].Dist
			}
			if dr.dists[k] != want {
				ly.mismatches++
			}
		}
		if perr != nil || httpAnswers[k].Dist != answers[k].Dist || httpAnswers[k].Connected != answers[k].Connected {
			ly.mismatches++
		}
	}
	if decoded > 0 {
		ly.decodeOne.addDur(dr.decode/time.Duration(decoded), time.Millisecond)
	}
	if withExtras {
		tw.c.extras(ly, g, req, &dr)
	}
	return nil
}

// scrape reads the un-labelled series of a /metrics exposition.
func scrape(d *deployment) (map[string]float64, error) {
	resp, err := d.client.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		if name, val, ok := strings.Cut(line, " "); ok {
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				out[name] = v
			}
		}
	}
	return out, sc.Err()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// extrasEvery spaces out the extra labels-in-hand measurements, which
// cost several decodes each.
const extrasEvery = 4

// runTraced is the --trace 1 run: one instrumented set-up, then the
// workload's script replayed single-client through the twins for
// cfg.seconds, then the label-store micro-measurements.
func runTraced(cfg *runConfig) (*result, error) {
	w := cfg.w
	res := &result{warmupOps: w.warm, metrics: map[string]value{}}
	set := func(name string, v float64, n int) { res.metrics[name] = value{Value: v, Samples: n} }

	a, err := build(w, cfg.workDir, cfg.tiny)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	n := a.g.NumVertices()
	set("core.build_scheme_s", a.tScheme.Seconds(), 0)
	set("labelstore.save_s", a.tSave.Seconds(), 0)
	set("labelstore.save_labels_per_s", float64(n)/a.tSave.Seconds(), 0)
	set("labelstore.file_bytes_per_vertex", a.bytesPerVertex(), 0)
	set("cluster.partition_write_s", a.tPartition.Seconds(), 0)
	t0 := time.Now()
	if _, err := nets.BuildWithOrderWorkers(a.g, nets.ScatteredOrder(n), 0); err != nil {
		return nil, err
	}
	set("nets.build_s", time.Since(t0).Seconds(), 0)
	set("nets.points_total", float64(netPoints(a.scheme.Hierarchy())), 0)
	var extract samples
	a.scheme.SetCacheLimit(0)
	pick := newRNG(cfg.seed, 6, 0)
	for i := 0; i < 32; i++ {
		v := pick.intn(n)
		t0 := time.Now()
		a.scheme.Label(v)
		extract.addDur(time.Since(t0), time.Millisecond)
	}
	set("core.label_extract_p50_ms", extract.median(), len(extract))

	// Each twin gets its own shard tier as well: a shard's transcode memo
	// warmed by one twin's fetch would make the next twin's cheaper.
	var tiers [3]*shardSet
	if w.kind == deployCluster {
		for i := range tiers {
			if tiers[i], err = startShards(a); err != nil {
				return nil, err
			}
			defer tiers[i].close()
		}
	}
	tw := &twins{}
	if tw.a, err = boot(w, a, tiers[0], filepath.Join(cfg.workDir, "liveA"), true); err != nil {
		return nil, err
	}
	defer tw.a.close()
	if tw.b, err = boot(w, a, tiers[1], filepath.Join(cfg.workDir, "liveB"), false); err != nil {
		return nil, err
	}
	defer tw.b.close()
	srcC, err := openSource(w, a, tiers[2], filepath.Join(cfg.workDir, "liveC"))
	if err != nil {
		return nil, err
	}
	defer srcC.close()
	tw.c = &direct{src: srcC}
	defer tw.c.dec.Release()

	tr := &tracer{t0: time.Now()}
	ly := &layers{}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	var before, after map[string]float64
	var lv *liveLayers
	traceStart := time.Now()
	if w.kind == deployLive {
		lv, before, err = traceLive(cfg, tw, tr, ly, a, dur)
	} else {
		sc := newScript(w, a.g, cfg.seed)
		for i := 0; i < w.warm; i++ {
			if err := tw.replay(tr, nil, i, sc.request(i), a.g, false); err != nil {
				return nil, err
			}
		}
		if before, err = scrape(tw.a); err != nil {
			return nil, err
		}
		tr.reset()
		traceStart = time.Now()
		for i := w.warm; time.Since(traceStart) < dur; i++ {
			if err := tw.replay(tr, ly, i, sc.request(i), a.g, (i-w.warm)%extrasEvery == 0); err != nil {
				return nil, err
			}
		}
	}
	if err != nil {
		return nil, err
	}
	traced := time.Since(traceStart)
	if after, err = scrape(tw.a); err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	res.spans = tr.spans
	res.attempted = len(ly.http)
	res.failed = ly.mismatches
	if ly.mismatches > 0 {
		res.violations = append(res.violations, fmt.Sprintf("%d answers differ between the HTTP, AnswerPairs and direct-decode twins", ly.mismatches))
	}

	// Shares are of summed time, so they add up to 1 by construction;
	// the p50s are what a request typically pays per layer.
	total := ly.http.sum()
	nReq := len(ly.http)
	set("server.http_round_trip_p50_ms", ly.http.median(), nReq)
	set("server.http_self_p50_ms", ly.httpSelf.median(), nReq)
	set("server.http_share", ratio(ly.httpSelf.sum(), total), nReq)
	set("server.answer_self_p50_ms", ly.answerSelf.median(), nReq)
	set("server.answer_share", ratio(ly.answerSelf.sum(), total), nReq)
	set("core.decode_share", ratio(ly.decode.sum(), total), nReq)
	fetchP50, fetchShare := ly.fetch.median(), ratio(ly.fetch.sum(), total)
	if w.kind == deployCluster {
		set("cluster.prefetch_p50_ms", fetchP50, nReq)
		set("cluster.fetch_share", fetchShare, nReq)
	} else {
		set("labelstore.fetch_p50_ms", fetchP50, nReq)
		set("labelstore.fetch_share", fetchShare, nReq)
	}
	set("process.selftime_sum_over_http_p50",
		ratio(ly.httpSelf.median()+ly.answerSelf.median()+fetchP50+ly.decode.median(), ly.http.median()), nReq)
	set("core.decode_p50_ms", ly.decodeOne.median(), len(ly.decodeOne))
	set("core.decode_p95_ms", ly.decodeOne.percentile(0.95), len(ly.decodeOne))
	set("core.decode_path_p50_ms", ly.decodePath.median(), len(ly.decodePath))
	set("core.label_elems_scanned_mean", ly.elems.mean(), len(ly.elems))
	set("core.sketch_vertices_mean", ly.sketchV.mean(), len(ly.sketchV))
	set("core.sketch_edges_mean", ly.sketchE.mean(), len(ly.sketchE))
	set("baseline.bfs_p50_us", ly.bfs.median(), len(ly.bfs))
	set("baseline.bidir_p50_us", ly.bidir.median(), len(ly.bidir))
	set("baseline.decode_over_bfs_ratio", ratio(ly.decodeOne.median()*1000, ly.bfs.median()), len(ly.bfs))
	set("server.request_bytes_mean", ly.reqBytes.mean(), nReq)
	set("server.response_bytes_mean", ly.respBytes.mean(), nReq)
	set("server.inexact_share", ratio(float64(ly.inexact), float64(ly.pairs)), ly.pairs)
	set("server.result_cache_hit_ratio", ratio(delta("fsdl_cache_hits_total"), delta("fsdl_cache_hits_total")+delta("fsdl_cache_misses_total")), 0)
	set("server.rejected_total", delta("fsdl_rejected_total_overload")+delta("fsdl_rejected_total_deadline"), 0)
	set("server.decoder_pool_news", delta("fsdl_decoder_pool_news_total"), 0)
	labelHit := ratio(delta("fsdl_label_cache_hits_total"), delta("fsdl_label_cache_hits_total")+delta("fsdl_label_cache_misses_total"))
	if w.kind == deployCluster {
		set("cluster.label_cache_hit_ratio", labelHit, 0)
		set("cluster.fetch_rpcs_per_request", ratio(delta("fsdl_cluster_fetch_calls_total"), float64(nReq)), nReq)
		set("cluster.hedges_total", delta("fsdl_cluster_hedges_total"), 0)
		set("cluster.retries_total", delta("fsdl_cluster_retries_total"), 0)
		set("cluster.failovers_total", delta("fsdl_cluster_failovers_total"), 0)
	} else {
		set("labelstore.decoded_cache_hit_ratio", labelHit, 0)
	}
	if lv != nil {
		lv.report(set, delta)
		set("liveupdate.pending_at_query_mean", ly.pending.mean(), len(ly.pending))
	}

	// core.decode_allocs_per_op: mallocs across decodes of the last
	// query, labels in hand. Health and repair loops allocate in the
	// background, so the count is the least seen over several short
	// batches — the one no background tick landed in.
	if q := tw.c.lastQuery; q != nil {
		const batches, reps = 20, 10
		least := ^uint64(0)
		var m0, m1 runtime.MemStats
		for b := 0; b < batches; b++ {
			runtime.ReadMemStats(&m0)
			for i := 0; i < reps; i++ {
				tw.c.dec.DistanceRobust(q)
			}
			runtime.ReadMemStats(&m1)
			least = min(least, m1.Mallocs-m0.Mallocs)
		}
		set("core.decode_allocs_per_op", float64(least)/reps, batches*reps)
	}

	if err := storeMicro(cfg, w, a, set); err != nil {
		return nil, err
	}

	// Tracing overhead: what recording this run's spans cost, as a share
	// of the traced wall time. Spans are recorded by the harness, outside
	// the program, so the recorder itself is all there is to time.
	probe := &tracer{t0: time.Now()}
	const probes = 100000
	p0 := time.Now()
	for i := 0; i < probes; i++ {
		probe.finish(probe.start("probe", -1, i))
	}
	perSpan := time.Since(p0) / probes
	set("process.trace_overhead_share", ratio(float64(perSpan)*float64(len(tr.spans)), float64(traced)), len(tr.spans))

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	set("process.gc_pause_total_ms", float64(ms.PauseTotalNs)/1e6, int(ms.NumGC))
	set("process.heap_inuse_mb", float64(ms.HeapInuse)/(1<<20), 0)
	return res, nil
}
