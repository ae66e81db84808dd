package cluster

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
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
	counter := func(name, help string, v int64) {
		fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	gauge("fsdl_cluster_ring_epoch", "Current membership epoch (bumped by join/leave/drain/swap).", float64(st.epoch))
	gauge("fsdl_cluster_generation", "Label generation the frontend routes against.", float64(st.gen))
	counter("fsdl_cluster_label_cache_hits_total", "Frontend decoded-label cache hits.", m.labelHits.Load())
	counter("fsdl_cluster_label_cache_misses_total", "Frontend decoded-label cache misses (scatter-gather issued).", m.labelMisses.Load())
	hits, misses := m.labelHits.Load(), m.labelMisses.Load()
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	gauge("fsdl_cluster_label_cache_hit_rate", "Frontend label-cache hit fraction.", rate)
	interned, lists := f.levels.Stats()
	counter("fsdl_label_levels_interned_total", "Level edge lists of fetched labels replaced by a shared copy.", interned)
	gauge("fsdl_label_level_lists", "Shared level edge lists currently held.", float64(lists))
	counter("fsdl_cluster_negative_cache_hits_total", "Lookups short-circuited by the confirmed-absence cache.", m.negHits.Load())

	counter("fsdl_cluster_fetch_calls_total", "Label-fetch RPCs issued to shards (hedges included).", m.fetchCalls.Load())
	counter("fsdl_cluster_hedges_total", "Duplicate fetches launched at replicas by the hedge timer.", m.hedges.Load())
	hedgeRate := 0.0
	if calls := m.fetchCalls.Load(); calls > 0 {
		hedgeRate = float64(m.hedges.Load()) / float64(calls)
	}
	gauge("fsdl_cluster_hedge_rate", "Fraction of fetch RPCs that were hedges.", hedgeRate)
	counter("fsdl_cluster_failovers_total", "Fetches routed away from an unhealthy primary.", m.failovers.Load())
	counter("fsdl_cluster_retries_total", "Per-vertex fetch relaunches after a failed attempt.", m.retries.Load())
	counter("fsdl_cluster_unavailable_labels_total", "Label requests that exhausted every replica (degraded-mode trigger).", m.unavailable.Load())

	if f.budget != nil {
		gauge("fsdl_cluster_retry_budget_tokens", "Retry-budget tokens currently available.", f.budget.level())
		counter("fsdl_cluster_retry_budget_spent_total", "Retry-budget tokens spent on retries and hedges.", m.budgetSpent.Load())
		counter("fsdl_cluster_retry_budget_denied_total", "Retries/hedges refused because the budget was exhausted.", m.budgetDenied.Load())
	}

	fmt.Fprintf(sb, "# HELP fsdl_cluster_shard_healthy Shard health as seen by the frontend (1 up, 0 down).\n# TYPE fsdl_cluster_shard_healthy gauge\n")
	for _, c := range st.nodes {
		up := 0
		if c.healthy.Load() {
			up = 1
		}
		fmt.Fprintf(sb, "fsdl_cluster_shard_healthy{shard=%q} %d\n", c.node.Name, up)
	}
	fmt.Fprintf(sb, "# HELP fsdl_cluster_shard_mismatched Reachable shards excluded from routing because their vertex space disagrees with the cluster (partition from a different store).\n# TYPE fsdl_cluster_shard_mismatched gauge\n")
	for _, c := range st.nodes {
		bad := 0
		if c.mismatched.Load() {
			bad = 1
		}
		fmt.Fprintf(sb, "fsdl_cluster_shard_mismatched{shard=%q} %d\n", c.node.Name, bad)
	}
	fmt.Fprintf(sb, "# HELP fsdl_cluster_shard_generation Label generation each shard last reported serving.\n# TYPE fsdl_cluster_shard_generation gauge\n")
	for _, c := range st.nodes {
		fmt.Fprintf(sb, "fsdl_cluster_shard_generation{shard=%q} %d\n", c.node.Name, c.lastGen.Load())
	}
	fmt.Fprintf(sb, "# HELP fsdl_cluster_shard_draining Shards administratively excluded from routing (1 draining).\n# TYPE fsdl_cluster_shard_draining gauge\n")
	for _, c := range st.nodes {
		d := 0
		if c.draining.Load() {
			d = 1
		}
		fmt.Fprintf(sb, "fsdl_cluster_shard_draining{shard=%q} %d\n", c.node.Name, d)
	}
	hasBreakers := false
	for _, c := range st.nodes {
		if c.breaker != nil {
			hasBreakers = true
			break
		}
	}
	if hasBreakers {
		fmt.Fprintf(sb, "# HELP fsdl_cluster_breaker_state Circuit-breaker position per shard (0 closed, 1 open, 2 half-open).\n# TYPE fsdl_cluster_breaker_state gauge\n")
		for _, c := range st.nodes {
			if c.breaker == nil {
				continue
			}
			state, _ := c.breaker.snapshot()
			fmt.Fprintf(sb, "fsdl_cluster_breaker_state{shard=%q} %d\n", c.node.Name, int(state))
		}
		fmt.Fprintf(sb, "# HELP fsdl_cluster_breaker_opens_total Times each shard's circuit breaker opened.\n# TYPE fsdl_cluster_breaker_opens_total counter\n")
		for _, c := range st.nodes {
			if c.breaker == nil {
				continue
			}
			_, opens := c.breaker.snapshot()
			fmt.Fprintf(sb, "fsdl_cluster_breaker_opens_total{shard=%q} %d\n", c.node.Name, opens)
		}
	}
	fmt.Fprintf(sb, "# HELP fsdl_cluster_shard_fetches_total Fetch RPCs sent per shard.\n# TYPE fsdl_cluster_shard_fetches_total counter\n")
	for _, c := range st.nodes {
		fmt.Fprintf(sb, "fsdl_cluster_shard_fetches_total{shard=%q} %d\n", c.node.Name, c.fetches.Load())
	}
	fmt.Fprintf(sb, "# HELP fsdl_cluster_shard_fetch_errors_total Fetch RPCs that failed per shard.\n# TYPE fsdl_cluster_shard_fetch_errors_total counter\n")
	for _, c := range st.nodes {
		fmt.Fprintf(sb, "fsdl_cluster_shard_fetch_errors_total{shard=%q} %d\n", c.node.Name, c.fetchErrors.Load())
	}
	fmt.Fprintf(sb, "# HELP fsdl_cluster_fetch_seconds Per-shard label-fetch latency.\n# TYPE fsdl_cluster_fetch_seconds histogram\n")
	for _, c := range st.nodes {
		for _, b := range c.latency.Buckets() {
			le := "+Inf"
			if !math.IsInf(b.UpperBound, 1) {
				le = fmt.Sprintf("%g", b.UpperBound)
			}
			fmt.Fprintf(sb, "fsdl_cluster_fetch_seconds_bucket{shard=%q,le=%q} %d\n", c.node.Name, le, b.CumulativeCount)
		}
		fmt.Fprintf(sb, "fsdl_cluster_fetch_seconds_sum{shard=%q} %g\n", c.node.Name, c.latency.Sum())
		fmt.Fprintf(sb, "fsdl_cluster_fetch_seconds_count{shard=%q} %d\n", c.node.Name, c.latency.Count())
	}

	if f.rep != nil {
		rs := f.rep.status()
		counter("fsdl_cluster_repair_sweeps_total", "Completed anti-entropy sweeps.", rs.Sweeps)
		counter("fsdl_cluster_repair_records_total", "Records installed by repair pulls.", rs.Repaired)
		counter("fsdl_cluster_repair_sealed_shards_total", "Shards restored to authority after a clean audit.", rs.Sealed)
		gauge("fsdl_cluster_repair_backlog", "Records known missing after the last sweep.", float64(rs.Backlog))
		converged := 0.0
		if rs.Converged {
			converged = 1
		}
		gauge("fsdl_cluster_repair_converged", "1 when the last sweep found every shard complete.", converged)
	}
}
