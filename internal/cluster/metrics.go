package cluster

import (
	"strings"
	"sync/atomic"

	"fsdl/internal/stats"
)

// frontendMetrics is the cluster-wide observability state of a
// Frontend; per-shard counters and latency histograms live on each
// shardClient. Everything is lock-free on the fetch path.
type frontendMetrics struct {
	// labelHits/labelMisses count decoded-label cache lookups; negHits
	// counts confirmed-absence short-circuits.
	labelHits   atomic.Int64
	labelMisses atomic.Int64
	negHits     atomic.Int64

	// recordsStored/recordsCanonical count the present records shards
	// sent, by the encoding they came in; decodeFailures those dropped
	// as a corrupt copy, by cause; levelsFetched the level-graphs
	// sections fetched and admitted.
	recordsStored    atomic.Int64
	recordsCanonical atomic.Int64
	decodeFailures   [numDecodeCauses]atomic.Int64
	levelsFetched    atomic.Int64

	// fetchCalls counts label-fetch RPCs issued (the hedge-rate
	// denominator); hedges counts the duplicates launched by the hedge
	// timer; failovers counts fetches routed away from an unhealthy
	// primary; unavailable counts label requests that exhausted every
	// replica.
	fetchCalls  atomic.Int64
	hedges      atomic.Int64
	failovers   atomic.Int64
	unavailable atomic.Int64

	// retries counts per-vertex relaunches after a failed attempt (the
	// retry budget's spend unit, together with hedged vertices);
	// budgetSpent/budgetDenied count retry-budget tokens taken and
	// refusals.
	retries      atomic.Int64
	budgetSpent  atomic.Int64
	budgetDenied atomic.Int64
}

// WriteMetrics renders the frontend's Prometheus text exposition,
// cluster-wide counters first, then per-shard health, breaker state,
// counters and fetch-latency histograms, then repair progress. The
// server's /metrics endpoint appends this to its own exposition when
// serving in cluster mode.
func (f *Frontend) WriteMetrics(sb *strings.Builder) {
	st := f.state.Load()
	m := &f.met
	x := stats.NewExposition(sb)
	x.GaugeFloat("fsdl_cluster_ring_epoch", "Current membership epoch (bumped by join/leave/drain/swap).", float64(st.epoch))
	x.GaugeFloat("fsdl_cluster_generation", "Label generation the frontend routes against.", float64(st.gen))
	x.Counter("fsdl_cluster_label_cache_hits_total", "Frontend decoded-label cache hits.", m.labelHits.Load())
	x.Counter("fsdl_cluster_label_cache_misses_total", "Frontend decoded-label cache misses (scatter-gather issued).", m.labelMisses.Load())
	interned, lists := f.levels.Stats()
	x.Counter("fsdl_label_levels_interned_total", "Level edge lists of fetched labels replaced by a shared copy.", interned)
	x.GaugeFloat("fsdl_label_level_lists", "Shared level edge lists currently held.", float64(lists))
	x.Counter("fsdl_cluster_negative_cache_hits_total", "Lookups short-circuited by the confirmed-absence cache.", m.negHits.Load())
	x.Family("fsdl_cluster_label_records_total", "Label records received from shards, by the encoding they crossed the wire in.", "counter")
	x.Labelled("fsdl_cluster_label_records_total", "encoding", "stored", m.recordsStored.Load())
	x.Labelled("fsdl_cluster_label_records_total", "encoding", "canonical", m.recordsCanonical.Load())
	x.Family("fsdl_cluster_record_decode_failures_total", "Received label records dropped as a corrupt copy, by cause.", "counter")
	for cause, name := range decodeCauseNames {
		x.Labelled("fsdl_cluster_record_decode_failures_total", "cause", name, m.decodeFailures[cause].Load())
	}
	x.Counter("fsdl_cluster_level_graphs_fetched_total", "Level-graphs sections fetched from shards and admitted (once per generation and section).", m.levelsFetched.Load())

	x.Counter("fsdl_cluster_fetch_calls_total", "Label-fetch RPCs issued to shards (hedges included).", m.fetchCalls.Load())
	x.Counter("fsdl_cluster_hedges_total", "Duplicate fetches launched at replicas by the hedge timer.", m.hedges.Load())
	x.Counter("fsdl_cluster_failovers_total", "Fetches routed away from an unhealthy primary.", m.failovers.Load())
	x.Counter("fsdl_cluster_retries_total", "Per-vertex fetch relaunches after a failed attempt.", m.retries.Load())
	x.Counter("fsdl_cluster_unavailable_labels_total", "Label requests that exhausted every replica (degraded-mode trigger).", m.unavailable.Load())

	if f.budget != nil {
		x.GaugeFloat("fsdl_cluster_retry_budget_tokens", "Retry-budget tokens currently available.", f.budget.level())
		x.Counter("fsdl_cluster_retry_budget_spent_total", "Retry-budget tokens spent on retries and hedges.", m.budgetSpent.Load())
		x.Counter("fsdl_cluster_retry_budget_denied_total", "Retries/hedges refused because the budget was exhausted.", m.budgetDenied.Load())
	}

	// perShard writes one family with a sample per shard of the epoch.
	perShard := func(name, help, typ string, value func(*shardClient) int64) {
		x.Family(name, help, typ)
		for _, c := range st.nodes {
			x.Labelled(name, "shard", c.node.Name, value(c))
		}
	}
	flag := func(b *atomic.Bool) int64 {
		if b.Load() {
			return 1
		}
		return 0
	}
	perShard("fsdl_cluster_shard_healthy", "Shard health as seen by the frontend (1 up, 0 down).", "gauge",
		func(c *shardClient) int64 { return flag(&c.healthy) })
	perShard("fsdl_cluster_shard_mismatched", "Reachable shards excluded from routing because their vertex space disagrees with the cluster (partition from a different store).", "gauge",
		func(c *shardClient) int64 { return flag(&c.mismatched) })
	perShard("fsdl_cluster_shard_generation", "Label generation each shard last reported serving.", "gauge",
		func(c *shardClient) int64 { return int64(c.lastGen.Load()) })
	perShard("fsdl_cluster_shard_draining", "Shards administratively excluded from routing (1 draining).", "gauge",
		func(c *shardClient) int64 { return flag(&c.draining) })
	// Every client of a frontend is built from its one config, so
	// breakers are on for all shards or for none.
	if !f.cfg.breakerDisabled {
		perShard("fsdl_cluster_breaker_state", "Circuit-breaker position per shard (0 closed, 1 open, 2 half-open).", "gauge",
			func(c *shardClient) int64 { state, _ := c.breaker.snapshot(); return int64(state) })
		perShard("fsdl_cluster_breaker_opens_total", "Times each shard's circuit breaker opened.", "counter",
			func(c *shardClient) int64 { _, opens := c.breaker.snapshot(); return opens })
	}
	perShard("fsdl_cluster_shard_fetches_total", "Fetch RPCs sent per shard.", "counter",
		func(c *shardClient) int64 { return c.fetches.Load() })
	perShard("fsdl_cluster_shard_fetch_errors_total", "Fetch RPCs that failed per shard.", "counter",
		func(c *shardClient) int64 { return c.fetchErrors.Load() })
	x.Family("fsdl_cluster_fetch_seconds", "Per-shard label-fetch latency.", "histogram")
	for _, c := range st.nodes {
		x.Histogram("fsdl_cluster_fetch_seconds", "shard", c.node.Name, c.latency)
	}

	if f.rep != nil {
		rs := f.rep.status()
		x.Counter("fsdl_cluster_repair_sweeps_total", "Completed anti-entropy sweeps.", rs.Sweeps)
		x.Counter("fsdl_cluster_repair_records_total", "Records installed by repair pulls.", rs.Repaired)
		x.Counter("fsdl_cluster_repair_sealed_shards_total", "Shards restored to authority after a clean audit.", rs.Sealed)
		x.GaugeFloat("fsdl_cluster_repair_backlog", "Records known missing after the last sweep.", float64(rs.Backlog))
		converged := 0.0
		if rs.Converged {
			converged = 1
		}
		x.GaugeFloat("fsdl_cluster_repair_converged", "1 when the last sweep found every shard complete.", converged)
	}
}
