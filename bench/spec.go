package main

// metricSpec names one benchmark metric. The lists below are the source
// the run prints from; BENCHMARK.json repeats name, unit, direction and
// bound, and bench_test.go asserts the two agree.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by (per-layer metrics carry none).
	Bound float64
	// Moves is, for a per-layer metric, the end-to-end metric and
	// workload it is predicted to move; recorded in the results JSON so a
	// later change's table can be read against the prediction.
	Moves string
}

// Workload names. The size of each graph lives in workloads.go, not in
// the name, so a later resize is not a rename.
const (
	wlDecode  = "decode_grid_heap"
	wlFetch   = "fetch_rgg_mmap"
	wlCluster = "cluster3_ring_batch"
	wlLive    = "live_ring_mutate"
)

// endToEnd is what a user of the deployed system sees. Every workload
// emits every one of them, and none is ever 0 (the driver's contract),
// which is why the failure share rides in the result line's
// attempted/failed counts and the live-only latencies sit in perLayer.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "query_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "pairs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "stretch_mean", Unit: "ratio", Better: "lower", Bound: 0.03},
	{Name: "store_bytes_per_vertex", Unit: "B", Better: "lower", Bound: 0.02},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

const (
	onDecode  = " on " + wlDecode
	onFetch   = " on " + wlFetch
	onCluster = " on " + wlCluster
	onLive    = " on " + wlLive
)

// perLayer is measured by the traced run, from outside each package:
// the harness times calls into public functions and reads public
// counters. A metric whose layer is not on a workload's path reads 0
// there (cluster.* off the cluster workload, liveupdate.* off the live
// one).
var perLayer = []metricSpec{
	// core
	{Name: "core.decode_p50_ms", Unit: "ms", Better: "lower", Moves: "query_p50_ms" + onDecode},
	{Name: "core.decode_p95_ms", Unit: "ms", Better: "lower", Moves: "query_p95_ms" + onDecode},
	{Name: "core.decode_path_p50_ms", Unit: "ms", Better: "lower", Moves: "query_p95_ms" + onDecode},
	{Name: "core.decode_allocs_per_op", Unit: "count", Better: "lower", Moves: "query_p95_ms" + onDecode},
	{Name: "core.label_elems_scanned_mean", Unit: "count", Better: "lower", Moves: "query_p50_ms" + onDecode},
	{Name: "core.sketch_vertices_mean", Unit: "count", Better: "lower", Moves: "query_p50_ms" + onDecode},
	{Name: "core.sketch_edges_mean", Unit: "count", Better: "lower", Moves: "query_p50_ms" + onDecode},
	{Name: "core.decode_share", Unit: "ratio", Better: "lower", Moves: "query_p50_ms" + onDecode + "; flat" + onFetch},
	{Name: "core.label_parse_p50_ms", Unit: "ms", Better: "lower", Moves: "query_p50_ms" + onFetch + " and" + onCluster},
	{Name: "core.build_scheme_s", Unit: "s", Better: "lower", Moves: "setup_s everywhere"},
	{Name: "core.label_extract_p50_ms", Unit: "ms", Better: "lower", Moves: "setup_s everywhere"},
	{Name: "core.incremental_build_p50_s", Unit: "s", Better: "lower", Moves: "liveupdate.compact_p50_s" + onLive},
	{Name: "core.incremental_dirty_labels_mean", Unit: "count", Better: "lower", Moves: "liveupdate.compact_p50_s" + onLive},
	// nets
	{Name: "nets.build_s", Unit: "s", Better: "lower", Moves: "setup_s everywhere"},
	{Name: "nets.points_total", Unit: "count", Better: "lower", Moves: "setup_s, store_bytes_per_vertex"},
	// labelstore
	{Name: "labelstore.save_s", Unit: "s", Better: "lower", Moves: "setup_s everywhere"},
	{Name: "labelstore.save_labels_per_s", Unit: "1/s", Better: "higher", Moves: "setup_s everywhere"},
	{Name: "labelstore.open_ms", Unit: "ms", Better: "lower", Moves: "setup_s everywhere"},
	{Name: "labelstore.raw_fetch_p50_us", Unit: "us", Better: "lower", Moves: "query_p50_ms" + onFetch + " and" + onCluster},
	{Name: "labelstore.label_cold_p50_ms", Unit: "ms", Better: "lower", Moves: "query_p50_ms" + onFetch},
	{Name: "labelstore.label_warm_p50_us", Unit: "us", Better: "lower", Moves: "query_p50_ms" + onDecode},
	{Name: "labelstore.decoded_cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "query_p50_ms, pairs_per_s" + onFetch},
	{Name: "labelstore.fetch_p50_ms", Unit: "ms", Better: "lower", Moves: "query_p50_ms" + onFetch},
	{Name: "labelstore.fetch_share", Unit: "ratio", Better: "lower", Moves: "query_p50_ms, pairs_per_s" + onFetch + "; flat" + onDecode},
	{Name: "labelstore.file_bytes_per_vertex", Unit: "B", Better: "lower", Moves: "store_bytes_per_vertex, peak_rss_mb"},
	// server
	{Name: "server.http_round_trip_p50_ms", Unit: "ms", Better: "lower", Moves: "query_p50_ms (single client)"},
	{Name: "server.http_self_p50_ms", Unit: "ms", Better: "lower", Moves: "query_p50_ms" + onCluster + " and" + onLive},
	{Name: "server.http_share", Unit: "ratio", Better: "lower", Moves: "query_p50_ms" + onCluster},
	{Name: "server.answer_self_p50_ms", Unit: "ms", Better: "lower", Moves: "query_p50_ms" + onCluster + " and" + onLive},
	{Name: "server.answer_share", Unit: "ratio", Better: "lower", Moves: "query_p50_ms" + onCluster},
	{Name: "server.result_cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "query_p50_ms, pairs_per_s" + onCluster},
	{Name: "server.rejected_total", Unit: "count", Better: "lower", Moves: "failed count"},
	{Name: "server.decoder_pool_news", Unit: "count", Better: "lower", Moves: "query_p95_ms"},
	{Name: "server.request_bytes_mean", Unit: "B", Better: "lower", Moves: "query_p50_ms" + onCluster},
	{Name: "server.response_bytes_mean", Unit: "B", Better: "lower", Moves: "query_p50_ms" + onCluster},
	{Name: "server.inexact_share", Unit: "ratio", Better: "lower", Moves: "0 on the static workloads; pending deltas" + onLive},
	{Name: "server.compact_p50_s", Unit: "s", Better: "lower", Moves: "liveupdate.compact_p50_s" + onLive},
	// cluster
	{Name: "cluster.prefetch_p50_ms", Unit: "ms", Better: "lower", Moves: "query_p50_ms" + onCluster},
	{Name: "cluster.label_miss_p50_ms", Unit: "ms", Better: "lower", Moves: "query_p95_ms" + onCluster},
	{Name: "cluster.label_cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "query_p50_ms" + onCluster},
	{Name: "cluster.fetch_rpcs_per_request", Unit: "count", Better: "lower", Moves: "query_p50_ms" + onCluster},
	{Name: "cluster.hedges_total", Unit: "count", Better: "lower", Moves: "waste: 0 on a healthy ring"},
	{Name: "cluster.retries_total", Unit: "count", Better: "lower", Moves: "waste: 0 on a healthy ring"},
	{Name: "cluster.failovers_total", Unit: "count", Better: "lower", Moves: "waste: 0 on a healthy ring"},
	{Name: "cluster.repair_sweep_cpu_s", Unit: "s", Better: "lower", Moves: "pairs_per_s, query_p95_ms" + onCluster + " once the shipped -repair 2s is on (the benchmark runs it off)"},
	{Name: "cluster.partition_write_s", Unit: "s", Better: "lower", Moves: "setup_s" + onCluster},
	{Name: "cluster.fetch_share", Unit: "ratio", Better: "lower", Moves: "query_p50_ms, query_p95_ms" + onCluster},
	// liveupdate
	{Name: "liveupdate.mutate_p50_ms", Unit: "ms", Better: "lower", Moves: "user-visible ack latency of an fsynced batch" + onLive},
	{Name: "liveupdate.compact_p50_s", Unit: "s", Better: "lower", Moves: "user-visible incremental compaction time" + onLive},
	{Name: "liveupdate.apply_p50_ms", Unit: "ms", Better: "lower", Moves: "liveupdate.mutate_p50_ms" + onLive},
	{Name: "liveupdate.wal_flushes_per_batch", Unit: "count", Better: "lower", Moves: "liveupdate.mutate_p50_ms" + onLive},
	{Name: "liveupdate.wal_bytes_per_mutation", Unit: "B", Better: "lower", Moves: "liveupdate.mutate_p50_ms" + onLive},
	{Name: "liveupdate.compact_snapshot_p50_s", Unit: "s", Better: "lower", Moves: "liveupdate.compact_p50_s" + onLive},
	{Name: "liveupdate.commit_p50_ms", Unit: "ms", Better: "lower", Moves: "liveupdate.compact_p50_s" + onLive},
	{Name: "liveupdate.dirty_labels_mean", Unit: "count", Better: "lower", Moves: "liveupdate.compact_p50_s" + onLive},
	{Name: "liveupdate.incremental_share", Unit: "ratio", Better: "higher", Moves: "liveupdate.compact_p50_s" + onLive},
	{Name: "liveupdate.pending_at_query_mean", Unit: "count", Better: "lower", Moves: "query_p50_ms, server.inexact_share" + onLive},
	{Name: "liveupdate.query_during_compact_p50_ms", Unit: "ms", Better: "lower", Moves: "query_p95_ms" + onLive},
	// baseline: the recompute line every later speed-up is read against.
	{Name: "baseline.bfs_p50_us", Unit: "us", Better: "lower", Moves: "nothing"},
	{Name: "baseline.bidir_p50_us", Unit: "us", Better: "lower", Moves: "nothing"},
	{Name: "baseline.decode_over_bfs_ratio", Unit: "ratio", Better: "lower", Moves: "nothing; <1 is the crossover"},
	// process
	{Name: "process.gc_pause_total_ms", Unit: "ms", Better: "lower", Moves: "query_p95_ms"},
	{Name: "process.heap_inuse_mb", Unit: "MB", Better: "lower", Moves: "peak_rss_mb"},
	{Name: "process.selftime_sum_over_http_p50", Unit: "ratio", Better: "higher", Moves: "1 when the layer medians add up to the round trip"},
	{Name: "process.trace_overhead_share", Unit: "ratio", Better: "lower", Moves: "nothing"},
}
