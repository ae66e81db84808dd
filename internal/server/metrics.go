package server

import (
	"sort"
	"sync/atomic"

	"fsdl/internal/core"
	"fsdl/internal/labelstore"
	"fsdl/internal/liveupdate"
	"fsdl/internal/stats"
)

// metrics is the server's observability surface: atomic counters and
// gauges plus a latency histogram, rendered in the Prometheus text
// exposition format by WriteTo. Everything is lock-free on the hot
// path.
type metrics struct {
	// requests counts HTTP requests by endpoint; queries counts the
	// individual (s,t) answers inside them (a batch of 100 pairs is 1
	// request, 100 queries).
	requests map[string]*atomic.Int64
	queries  atomic.Int64

	cacheHits    atomic.Int64
	cacheMisses  atomic.Int64
	cacheFlushes atomic.Int64

	sharedFramesBuilt  atomic.Int64
	sharedFrameBatches atomic.Int64

	degraded        atomic.Int64
	budgetExhausted atomic.Int64

	rejectedOverload atomic.Int64
	rejectedDeadline atomic.Int64
	canceledMidBatch atomic.Int64
	errors           atomic.Int64

	inflight atomic.Int64

	failsApplied    atomic.Int64
	recoversApplied atomic.Int64

	latency *stats.Histogram
}

var endpoints = []string{"distance", "batch_distance", "connected", "fail", "recover", "state", "mutate", "compact"}

func newMetrics() *metrics {
	m := &metrics{
		requests: make(map[string]*atomic.Int64, len(endpoints)),
		// Seconds; spans sub-millisecond decode hits to multi-second
		// degraded scans.
		latency: stats.NewHistogram(
			0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
			0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10),
	}
	for _, e := range endpoints {
		m.requests[e] = &atomic.Int64{}
	}
	return m
}

func (m *metrics) request(endpoint string) {
	if c, ok := m.requests[endpoint]; ok {
		c.Add(1)
	}
}

// render writes the server's own exposition. cacheLen, the label-cache
// counters, the decoder-pool stats and the salvage report are sampled by
// the caller (those live with the store and the core pool, not here).
func (m *metrics) render(x stats.Exposition, cacheLen int, labelHits, labelMisses int64, pool core.DecoderPoolStats, salvage labelstore.SalvageReport) {
	x.Family("fsdl_requests_total", "HTTP requests by endpoint.", "counter")
	names := make([]string, 0, len(m.requests))
	for e := range m.requests {
		names = append(names, e)
	}
	sort.Strings(names)
	for _, e := range names {
		x.Labelled("fsdl_requests_total", "endpoint", e, m.requests[e].Load())
	}

	x.Counter("fsdl_queries_total", "Individual (s,t) answers produced (batches count per pair).", m.queries.Load())
	x.Counter("fsdl_cache_hits_total", "Result-cache hits.", m.cacheHits.Load())
	x.Counter("fsdl_cache_misses_total", "Result-cache misses.", m.cacheMisses.Load())
	x.Counter("fsdl_cache_flushes_total", "Cache invalidations caused by fail/recover.", m.cacheFlushes.Load())
	x.Gauge("fsdl_cache_entries", "Entries currently cached.", int64(cacheLen))
	x.Counter("fsdl_shared_frames_built_total", "Shared fault frames built: one per recurring fault set, on its second sighting, and again after a flush.", m.sharedFramesBuilt.Load())
	x.Counter("fsdl_shared_frame_batches_total", "Batches whose decodes ran beside a shared fault frame, or composed their own from the shared frame of a live delta's faults, instead of building theirs from scratch.", m.sharedFrameBatches.Load())

	x.Counter("fsdl_label_cache_hits_total", "Decoded-label cache hits in the store.", labelHits)
	x.Counter("fsdl_label_cache_misses_total", "Decoded-label cache misses (label decoded from bytes).", labelMisses)

	x.Counter("fsdl_decoder_pool_gets_total", "Decode-scratch checkouts from the shared pool.", pool.Gets)
	x.Counter("fsdl_decoder_pool_news_total", "Checkouts that had to allocate a fresh scratch (gets minus news = reuses).", pool.News)
	x.Counter("fsdl_decode_frames_built_total", "Decodes that scanned a fault set's owners into a fault frame (the first under a fault set; a lone query is one).", pool.FramesBuilt)
	x.Counter("fsdl_decode_frames_composed_total", "Decodes that built a fault frame's run from a shared frame of part of their fault side (a live delta's), scanning only the owners it lacks.", pool.FramesComposed)
	x.Counter("fsdl_decode_frames_reused_total", "Decodes that took the fault owners' sketch edges from a frame built before them: by an earlier decode on their Decoder, or a shared one.", pool.FramesReused)
	x.Counter("fsdl_decode_bound_stops_total", "Decodes whose search ended at the lower bound the endpoint labels give (the largest gap between their distances to a shared net point), before settling t.", pool.BoundStops)
	x.Counter("fsdl_decode_certified_total", "Decodes answered from the endpoint labels alone, before any edge was scanned: a net point both labels hold, whose distances from the two sum to the lower bound the labels give, reached from each by a self edge the fault set leaves.", pool.Certified)
	x.Counter("fsdl_decode_covered_lists_total", "Owner level edge lists rejected whole without an edge read: one fault's protected ball holds every point of the list.", pool.CoveredLists)

	x.Counter("fsdl_degraded_answers_total", "Answers that fell back to conservative upper bounds because a fault label was unavailable.", m.degraded.Load())
	x.Counter("fsdl_budget_exhausted_total", "Answers whose work budget truncated the sketch.", m.budgetExhausted.Load())
	x.Counter("fsdl_rejected_total_overload", "Requests rejected because the queue was full.", m.rejectedOverload.Load())
	x.Counter("fsdl_rejected_total_deadline", "Requests abandoned because their deadline expired while queued.", m.rejectedDeadline.Load())
	x.Counter("fsdl_canceled_mid_batch_total", "Batches abandoned mid-decode because the client disconnected (worker slot returned early).", m.canceledMidBatch.Load())
	x.Counter("fsdl_errors_total", "Requests that failed with a client or server error.", m.errors.Load())
	x.Gauge("fsdl_inflight", "Queries currently executing or queued.", m.inflight.Load())

	x.Counter("fsdl_fail_events_total", "Vertices/edges failed via /v1/fail.", m.failsApplied.Load())
	x.Counter("fsdl_recover_events_total", "Vertices/edges recovered via /v1/recover.", m.recoversApplied.Load())

	truncated := int64(0)
	if salvage.Truncated {
		truncated = 1
	}
	x.Gauge("fsdl_salvage_records_total", "Records declared by the store header.", int64(salvage.Total))
	x.Gauge("fsdl_salvage_records_kept", "Records salvaged intact.", int64(salvage.Kept))
	x.Gauge("fsdl_salvage_records_corrupt", "Records dropped for checksum/decode failures.", int64(len(salvage.Corrupt)))
	x.Gauge("fsdl_salvage_truncated", "1 when the store file was truncated mid-record.", truncated)

	x.Family("fsdl_request_seconds", "Request latency.", "histogram")
	x.Histogram("fsdl_request_seconds", "", "", m.latency)
}

// renderLive appends the live-update pipeline's exposition; sampled
// from the pipeline at scrape time like the label-cache stats.
func renderLive(x stats.Exposition, m liveupdate.Metrics) {
	x.Counter("fsdl_live_inserts_total", "Edge insertions accepted by the live pipeline.", m.Inserts)
	x.Counter("fsdl_live_deletes_total", "Edge deletions accepted by the live pipeline.", m.Deletes)
	x.Counter("fsdl_live_rejected_total", "Mutations refused by validation.", m.Rejected)
	x.Counter("fsdl_live_compactions_total", "Label generations baked and swapped in.", m.Compactions)
	x.Counter("fsdl_wal_flushed_total", "Mutation-WAL fsyncs completed (0 without a WAL).", m.WALFlushes)
	x.Gauge("fsdl_live_pending", "Delta edges not yet baked into the served generation (0 = exact answers).", int64(m.Pending))
	x.Gauge("fsdl_live_generation", "Label generation currently served.", int64(m.Generation))
	x.Gauge("fsdl_live_seq", "Last applied mutation sequence.", int64(m.Seq))
	x.Gauge("fsdl_live_compacted_seq", "Last mutation sequence baked into a generation.", int64(m.CompactedSeq))
	x.Gauge("fsdl_wal_segments", "Sealed mutation-WAL segments retained on disk (0 without a WAL).", int64(m.WALSegments))
}
