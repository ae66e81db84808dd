package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fsdl/internal/backoff"
)

// maxRepairHints bounds the Unknown-record hint set so a flood of
// degraded fetches can't grow it without limit; the full sweep covers
// everything regardless, hints only accelerate it.
const maxRepairHints = 1 << 16

// repairPullTimeout is the per-RPC leash for OpRepairPull: the target
// shard streams records from the source and paces itself, so it gets
// far more time than a label fetch.
const repairPullTimeout = 30 * time.Second

// repairer is the frontend's anti-entropy loop. Each sweep walks the
// vertex space, computes every shard's expected ownership from the
// current ring epoch, asks each shard which of those ids it cannot
// serve (OpAudit), and tells shards with missing records to pull them
// from an intact replica (OpRepairPull). A non-authoritative shard —
// bootstrap replacement or truncated salvage — that audits clean is
// sealed (OpSeal), restoring its authority over absences and returning
// the cluster to exact answers. Unknown records observed on the fetch
// path land here as hints that trigger an early sweep.
type repairer struct {
	f        *Frontend
	interval time.Duration

	kick chan struct{}

	mu      sync.Mutex
	hints   map[int32]struct{}
	lastErr string

	sweeps    atomic.Int64
	repaired  atomic.Int64
	backlog   atomic.Int64
	sealed    atomic.Int64
	converged atomic.Bool
}

func newRepairer(f *Frontend, interval time.Duration) *repairer {
	return &repairer{
		f:        f,
		interval: interval,
		kick:     make(chan struct{}, 1),
		hints:    make(map[int32]struct{}),
	}
}

// noteUnknown records a fetch-path repair hint and wakes the loop: a
// replica just answered Unknown for a vertex it should own.
func (r *repairer) noteUnknown(v int32) {
	r.mu.Lock()
	if len(r.hints) < maxRepairHints {
		r.hints[v] = struct{}{}
	}
	r.mu.Unlock()
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

func (r *repairer) loop() {
	defer r.f.done.Done()
	for {
		// Jittered so a fleet of frontends doesn't audit-storm the
		// shards in lockstep.
		t := time.NewTimer(backoff.Jittered(r.interval, 0.2))
		select {
		case <-r.f.stop:
			t.Stop()
			return
		case <-t.C:
		case <-r.kick:
			t.Stop()
		}
		r.sweep()
	}
}

// sweep runs one full anti-entropy pass against the current epoch.
// Sealing is deliberately one sweep behind repair: a shard is sealed
// only when it audits clean *at the start* of a pass, so authority is
// restored from a verified audit, never assumed from a just-finished
// transfer.
func (r *repairer) sweep() {
	f := r.f
	st := f.state.Load()
	r.sweeps.Add(1)

	// Expected ownership for this epoch, one ring walk per vertex.
	expected := make([][]int32, len(st.nodes))
	buf := make([]int, 0, 8)
	for v := 0; v < f.n; v++ {
		buf = st.ring.Owners(int32(v), buf[:0])
		for _, o := range buf {
			expected[o] = append(expected[o], int32(v))
		}
	}

	var backlog int64
	allClean := true
	for oi, c := range st.nodes {
		clean, left := r.auditShard(st, c, expected[oi])
		backlog += left
		if !clean {
			allClean = false
			continue
		}
		if c.lastFlags.Load()&PongNonAuthoritative != 0 {
			// Clean audit of a non-authoritative shard: it holds every
			// record it should — let it vouch for absences again.
			if err := c.sealShard(); err != nil {
				r.setErr(err)
				allClean = false
			} else {
				c.lastFlags.Store(c.lastFlags.Load() &^ PongNonAuthoritative)
				r.sealed.Add(1)
			}
		}
	}
	r.backlog.Store(backlog)
	r.converged.Store(allClean)
	if allClean {
		r.mu.Lock()
		clear(r.hints)
		r.lastErr = ""
		r.mu.Unlock()
	}
}

// auditShard audits one shard's expected vertex range in batches and
// pulls whatever is missing from intact replicas. clean reports whether
// the shard was reachable and missing nothing *before* any pulls; left
// counts records still missing after this pass's pulls.
func (r *repairer) auditShard(st *ringState, c *shardClient, expect []int32) (clean bool, left int64) {
	if !c.healthy.Load() || c.mismatched.Load() {
		// An unreachable shard can't be audited; the cluster isn't
		// converged until it returns or is removed from the ring.
		return false, 0
	}
	clean = true
	ownerBuf := make([]int, 0, 8)
	for base := 0; base < len(expect); base += repairBatch {
		chunk := expect[base:min(base+repairBatch, len(expect))]
		missing, err := c.audit(chunk, r.f.n)
		if err != nil {
			r.setErr(err)
			return false, left
		}
		if len(missing) == 0 {
			continue
		}
		clean = false
		left += int64(len(missing))

		// Group the missing ids by pull source: another owner of the
		// vertex that is reachable and authoritative (a draining shard
		// qualifies — it keeps its data and that is exactly what drain
		// is for).
		pulls := make(map[*shardClient][]int32)
		for _, v := range missing {
			ownerBuf = st.ring.Owners(v, ownerBuf[:0])
			var src *shardClient
			for _, o := range ownerBuf {
				cand := st.nodes[o]
				if cand == c || !cand.healthy.Load() ||
					cand.lastFlags.Load()&PongNonAuthoritative != 0 {
					continue
				}
				src = cand
				break
			}
			if src == nil {
				continue // no intact replica right now; stays in the backlog
			}
			pulls[src] = append(pulls[src], v)
		}
		for src, ids := range pulls {
			installed, failed, err := c.repairPull(src.node.Addr, ids)
			r.repaired.Add(int64(installed))
			left -= int64(installed)
			if err != nil {
				r.setErr(err)
			} else if failed > 0 {
				r.setErr(fmt.Errorf("cluster: repair of %s from %s: %d of %d records failed",
					c.node.Name, src.node.Name, failed, len(ids)))
			}
		}
	}
	return clean, left
}

func (r *repairer) setErr(err error) {
	r.mu.Lock()
	r.lastErr = err.Error()
	r.mu.Unlock()
}

func (r *repairer) status() RepairStatus {
	r.mu.Lock()
	hints, lastErr := len(r.hints), r.lastErr
	r.mu.Unlock()
	return RepairStatus{
		Enabled:   true,
		Sweeps:    r.sweeps.Load(),
		Repaired:  r.repaired.Load(),
		Backlog:   r.backlog.Load(),
		Hints:     hints,
		Sealed:    r.sealed.Load(),
		Converged: r.converged.Load(),
		LastError: lastErr,
	}
}

// RepairStatus is the anti-entropy loop's state in a status snapshot.
type RepairStatus struct {
	Enabled bool `json:"enabled"`
	// Sweeps counts completed anti-entropy passes; Repaired counts
	// records installed via pulls; Backlog is the records still known
	// missing after the last pass; Hints is the pending Unknown-record
	// hint count from the fetch path; Sealed counts shards restored to
	// authority.
	Sweeps   int64 `json:"sweeps"`
	Repaired int64 `json:"repaired_records"`
	Backlog  int64 `json:"backlog"`
	Hints    int   `json:"hints"`
	Sealed   int64 `json:"sealed_shards"`
	// Converged is true when the last pass found every shard reachable
	// and able to serve its full expected range — the convergence the
	// runbook polls for.
	Converged bool   `json:"converged"`
	LastError string `json:"last_error,omitempty"`
}

// RetryBudgetStatus is the retry-budget token bucket's state.
type RetryBudgetStatus struct {
	Enabled bool    `json:"enabled"`
	Tokens  float64 `json:"tokens"`
	Spent   int64   `json:"spent"`
	Denied  int64   `json:"denied"`
}

// ClusterStatus is the frontend's admin snapshot: ring epoch, per-shard
// health (including breaker and authority state), repair progress and
// retry-budget level. Served at /v1/cluster/status and rendered by
// `fsdl cluster status`.
type ClusterStatus struct {
	Epoch uint64 `json:"epoch"`
	// Generation is the label generation the frontend routes against;
	// each shard's entry reports the generation it last claimed to
	// serve, so a lagging replica is visible at a glance.
	Generation  uint64            `json:"generation"`
	NumVertices int               `json:"num_vertices"`
	Replication int               `json:"replication"`
	Shards      []ShardHealth     `json:"shards"`
	Repair      RepairStatus      `json:"repair"`
	RetryBudget RetryBudgetStatus `json:"retry_budget"`
	// Live summarizes the co-located live-update pipeline (nil on
	// frontends without one): the unbaked delta size and the mutation
	// WAL's segment retention.
	Live *LiveStatus `json:"live,omitempty"`
}

// LiveStatus is the live-update slice of a ClusterStatus.
type LiveStatus struct {
	PendingEdges    int     `json:"pending_edges"`
	WALSegments     int     `json:"wal_segments"`
	WALOldestAgeSec float64 `json:"wal_oldest_age_seconds,omitempty"`
}

// Status returns the admin snapshot for the current epoch.
func (f *Frontend) Status() ClusterStatus {
	st := f.state.Load()
	out := ClusterStatus{
		Epoch:       st.epoch,
		Generation:  st.gen,
		NumVertices: f.n,
		Replication: st.ring.Replication(),
		Shards:      f.healthAt(st),
	}
	if fn := f.liveStats.Load(); fn != nil {
		ls := (*fn)()
		out.Live = &LiveStatus{PendingEdges: ls.Pending, WALSegments: ls.WALSegments}
		if ls.WALOldestAge > 0 {
			out.Live.WALOldestAgeSec = ls.WALOldestAge.Seconds()
		}
	}
	if f.rep != nil {
		out.Repair = f.rep.status()
	}
	if f.budget != nil {
		out.RetryBudget = RetryBudgetStatus{
			Enabled: true,
			Tokens:  f.budget.level(),
			Spent:   f.met.budgetSpent.Load(),
			Denied:  f.met.budgetDenied.Load(),
		}
	}
	return out
}

// StatusJSON is Status as the server's LabelSource wants it: a
// JSON-marshalable snapshot for /v1/cluster/status.
func (f *Frontend) StatusJSON() any { return f.Status() }

// audit asks the shard which of ids it cannot serve, validating the
// vertex space.
func (c *shardClient) audit(ids []int32, wantN int) ([]int32, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.FetchTimeout)
	defer cancel()
	op, resp, err := c.call(ctx, OpAudit, AppendLabelRequest(nil, ids))
	if err != nil {
		return nil, err
	}
	switch op {
	case OpAuditResp:
		n, missing, err := ParseAuditResponse(resp)
		if err != nil {
			return nil, err
		}
		if n != wantN {
			return nil, fmt.Errorf("cluster: shard %s serves vertex space %d, want %d", c.node.Name, n, wantN)
		}
		return missing, nil
	case OpError:
		return nil, fmt.Errorf("%w: %s", errShardError, resp)
	default:
		return nil, fmt.Errorf("cluster: unexpected audit response op %d", op)
	}
}

// repairPull tells the shard to pull ids from the replica at source.
func (c *shardClient) repairPull(source string, ids []int32) (installed, failed int, err error) {
	op, resp, err := c.callTimeout(context.Background(), OpRepairPull,
		AppendRepairRequest(nil, source, ids), repairPullTimeout)
	if err != nil {
		return 0, 0, err
	}
	switch op {
	case OpRepairPulled:
		return ParseRepairResponse(resp)
	case OpError:
		return 0, 0, fmt.Errorf("%w: %s", errShardError, resp)
	default:
		return 0, 0, fmt.Errorf("cluster: unexpected repair response op %d", op)
	}
}

// sealShard restores the shard's authority over absences.
func (c *shardClient) sealShard() error {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.FetchTimeout)
	defer cancel()
	op, resp, err := c.call(ctx, OpSeal, nil)
	if err != nil {
		return err
	}
	switch op {
	case OpSealed:
		return nil
	case OpError:
		return fmt.Errorf("%w: %s", errShardError, resp)
	default:
		return fmt.Errorf("cluster: unexpected seal response op %d", op)
	}
}
