package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"fsdl/internal/core"
	"fsdl/internal/faultinject"
	"fsdl/internal/graph"
	"fsdl/internal/labelstore"
	"fsdl/internal/server"
)

// startExtraShard spins up one more shard server (outside startCluster)
// and returns its address.
func startExtraShard(t testing.TB, cfg ShardConfig) (*ShardServer, string) {
	t.Helper()
	srv, err := NewShardServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// TestBreakerOpensOnSickShard: a shard that answers pings but fails
// every fetch (sick, not down) must trip its breaker within the rolling
// window, after which traffic routes straight to the replica — and the
// retries spent getting there stay within the budget.
func TestBreakerOpensOnSickShard(t *testing.T) {
	_, st := buildFullStore(t, 8)
	const sick = 1
	hooks := map[int]func(byte) error{
		sick: func(op byte) error {
			if isLabelFetch(op) {
				return errors.New("injected brown-out")
			}
			return nil // pings stay healthy: the health sweep won't save us
		},
	}
	tc := startCluster(t, st, 3, 2, hooks)
	f := newTestFrontend(t, tc, func(cfg *FrontendConfig) {
		cfg.LabelCacheSize = -1 // every Label goes to the wire
		cfg.HedgeDelay = -1     // isolate the retry path from hedging noise
		cfg.FetchTimeout = 300 * time.Millisecond
		cfg.breakerWindow = 2 * time.Second
		cfg.breakerMinRequests = 4
		cfg.breakerCooldown = time.Minute // stays open for the whole test
	})
	ctx := context.Background()

	// Hammer until the breaker opens. Every fetch that lands on the sick
	// shard fails and fails over, feeding the breaker window.
	deadline := time.Now().Add(5 * time.Second)
	opened := false
	for !opened {
		for v := 0; v < st.NumVertices(); v++ {
			if _, err := f.Label(ctx, v); err != nil {
				// Budget denials fail fast by design; only unexpected errors
				// are fatal here.
				if !strings.Contains(err.Error(), "replicas unreachable") {
					t.Fatalf("Label(%d): %v", v, err)
				}
			}
		}
		for _, h := range f.Health() {
			if h.Name == "shard1" && h.Breaker == "open" {
				opened = true
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened on the 100%%-error shard; health: %+v", f.Health())
		}
	}

	// Open breaker sheds traffic: the sick shard sees (almost) no new
	// fetches while its replica keeps answering everything.
	sickClient := f.state.Load().clientByName("shard1")
	before := sickClient.fetches.Load()
	for v := 0; v < st.NumVertices(); v++ {
		if _, err := f.Label(ctx, v); err != nil {
			t.Fatalf("Label(%d) with breaker open: %v", v, err)
		}
	}
	if after := sickClient.fetches.Load(); after != before {
		t.Fatalf("open breaker leaked %d fetches to the sick shard", after-before)
	}

	// Retries + hedges stayed within the budget invariant:
	// spent ≤ ratio·first-attempts + burst.
	first := f.met.labelMisses.Load()
	spent := f.met.budgetSpent.Load()
	if limit := int64(0.1*float64(first)) + 50 + 1; spent > limit {
		t.Fatalf("budget spent %d retries over %d first attempts, cap is %d", spent, first, limit)
	}

	// The whole incident is visible in /metrics.
	var sb strings.Builder
	f.WriteMetrics(&sb)
	for _, want := range []string{
		`fsdl_cluster_breaker_state{shard="shard1"} 1`,
		`fsdl_cluster_breaker_opens_total{shard="shard1"} 1`,
		"fsdl_cluster_retry_budget_tokens",
		"fsdl_cluster_retries_total",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("metrics exposition missing %q", want)
		}
	}
}

// TestRetryBudgetFailsFastWhenExhausted: with a tiny budget and a shard
// failing every fetch, retry denial must surface as a fast unavailable
// error (the chain is abandoned) and be counted, instead of retrying
// unboundedly.
func TestRetryBudgetFailsFastWhenExhausted(t *testing.T) {
	_, st := buildFullStore(t, 8)
	const sick = 0
	hooks := map[int]func(byte) error{
		sick: func(op byte) error {
			if isLabelFetch(op) {
				return errors.New("injected brown-out")
			}
			return nil
		},
	}
	tc := startCluster(t, st, 3, 2, hooks)
	f := newTestFrontend(t, tc, func(cfg *FrontendConfig) {
		cfg.LabelCacheSize = -1
		cfg.HedgeDelay = -1
		cfg.FetchTimeout = 300 * time.Millisecond
		cfg.breakerDisabled = true // nothing routes around the sick shard
		cfg.RetryBudgetRatio = 0.01
		cfg.retryBudgetBurst = 1
	})
	ctx := context.Background()

	// One batched scatter: every id whose first owner is the sick shard
	// fails together, and the relaunch wants one retry token per id —
	// far more than the bucket holds. All but the first must be denied
	// and fail fast instead of retrying unboundedly.
	ids := make([]int, st.NumVertices())
	for v := range ids {
		ids[v] = v
	}
	unresolved := f.Prefetch(ctx, ids)
	if unresolved == 0 {
		t.Fatal("every id resolved though the budget cannot cover the retries")
	}
	if f.met.budgetDenied.Load() == 0 {
		t.Fatal("budget denial not counted")
	}
	if spent := f.met.budgetSpent.Load(); spent > 3 {
		t.Fatalf("budget spent %d tokens with burst 1 + crumbs; bucket is leaking", spent)
	}
	// The denied ids surface as unavailable on the per-label path, not
	// as absent labels: nothing may leak into the negative cache.
	for _, v := range ids {
		if _, err := f.Label(ctx, v); err != nil &&
			errors.Is(err, core.ErrNoLabel) {
			t.Fatalf("Label(%d): budget denial misreported as absence: %v", v, err)
		}
	}
	if f.met.negHits.Load() != 0 {
		t.Fatal("budget denials polluted the negative cache")
	}
}

// TestSelfHealingDeadShardReplacement is the end-to-end self-healing
// drill from the runbook: with R=2, one replica dies permanently
// mid-workload (a faultinject schedule with RestartAt=Never); a fresh
// bootstrap-empty shard joins drained, the dead shard leaves, and
// anti-entropy repair fills the replacement from the surviving replicas
// while a querying client sees zero errors and every answer stays an
// upper bound on d_{G\F}. Once repair converges the replacement is
// sealed and undrained, and answers are exact again.
func TestSelfHealingDeadShardReplacement(t *testing.T) {
	g, st := buildFullStore(t, 8)
	n := st.NumVertices()

	names := []Node{{Name: "shard0"}, {Name: "shard1"}, {Name: "shard2"}}
	ring := NewRing(names, 2)
	parts := ring.Partition(n)

	shards := make([]*restartableShard, 3)
	membership := &Membership{Replication: 2}
	for i := range shards {
		var buf bytes.Buffer
		if err := labelstore.Write(&buf, st, parts[i], false, false); err != nil {
			t.Fatal(err)
		}
		ps, err := labelstore.Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = &restartableShard{store: ps, name: names[i].Name, addr: "127.0.0.1:0"}
		shards[i].start(t)
		membership.Nodes = append(membership.Nodes, Node{Name: names[i].Name, Addr: shards[i].addr})
	}
	t.Cleanup(func() {
		for _, sh := range shards {
			sh.stop()
		}
	})

	fe := newTestFrontend(t, &testCluster{membership: membership}, func(cfg *FrontendConfig) {
		cfg.FetchTimeout = 400 * time.Millisecond
		cfg.HedgeDelay = -1 // keep routing deterministic during the drill
		cfg.LabelCacheSize = -1
		cfg.HealthInterval = 25 * time.Millisecond
		cfg.RepairInterval = 100 * time.Millisecond
		cfg.retryBudgetBurst = 500 // the drill itself must not starve retries
	})
	srv, err := server.New(server.Config{Source: fe, CacheCapacity: -1})
	if err != nil {
		t.Fatal(err)
	}

	// The kill schedule: shard1 dies at step 2 and never comes back.
	const victim = 1
	inj, err := faultinject.NewInjector(faultinject.Plan{Crashes: []faultinject.Crash{
		{Router: victim, At: 2, RestartAt: faultinject.Never},
	}}, len(shards))
	if err != nil {
		t.Fatal(err)
	}

	// The workload: distance queries with a fault set, checked against
	// ground truth every step.
	faults := graph.NewFaultSet()
	faults.AddVertex(n / 2)
	pairs := [][2]int{{0, n - 1}, {1, n - 2}, {7, n - 9}}
	trueDist := make([]int32, len(pairs))
	for i, p := range pairs {
		trueDist[i] = g.DistAvoiding(p[0], p[1], faults)
	}
	ctx := context.Background()
	queryStep := func(step string, wantExact bool) {
		t.Helper()
		answers, err := srv.AnswerPairs(ctx, pairs, &server.QueryOptions{Faults: faults})
		if err != nil {
			t.Fatalf("%s: AnswerPairs: %v", step, err)
		}
		for i, a := range answers {
			if a.Error != "" {
				t.Fatalf("%s pair %v errored: %s", step, pairs[i], a.Error)
			}
			if a.Connected && int32(a.Dist) < trueDist[i] {
				t.Fatalf("%s pair %v: answer %d below true distance %d", step, pairs[i], a.Dist, trueDist[i])
			}
			if wantExact && !a.Exact {
				t.Fatalf("%s pair %v: answer not exact (degraded=%v)", step, pairs[i], a.Degraded)
			}
		}
	}

	// Steps 0–1: healthy cluster, exact answers.
	for now := int64(0); now < 2; now++ {
		queryStep(fmt.Sprintf("step %d", now), true)
	}

	// Step 2: the victim dies permanently. R=2 keeps everything served
	// by the surviving replica — zero errors, still exact.
	if !inj.CrashedAt(2, victim) {
		t.Fatal("kill schedule did not fire")
	}
	shards[victim].stop()
	time.Sleep(100 * time.Millisecond) // let a failed fetch / sweep notice
	queryStep("step 2 (outage)", true)

	// Step 3: the runbook. Join the empty replacement drained (so no
	// query traffic lands on it while it is a shell), remove the corpse.
	_, replAddr := startExtraShard(t, ShardConfig{
		Store: mustEmptyStore(t, n), Name: "shard3", Bootstrap: true,
	})
	if _, err := fe.Join("shard3", replAddr); err != nil {
		t.Fatalf("join replacement: %v", err)
	}
	if _, err := fe.Drain("shard3", true); err != nil {
		t.Fatalf("drain replacement: %v", err)
	}
	if _, err := fe.Leave("shard1"); err != nil {
		t.Fatalf("leave dead shard: %v", err)
	}
	if got := fe.Epoch(); got != 4 {
		t.Fatalf("epoch %d after join+drain+leave, want 4", got)
	}
	queryStep("step 3 (replacement joined)", false)

	// Repair fills the replacement from the survivors; poll for digest
	// convergence and the seal that restores the replacement's authority
	// over absences. The client keeps querying throughout — zero errors.
	// (The non-authoritative bit is re-read from pongs, so give a stale
	// in-flight probe a beat to settle rather than asserting instantly.)
	deadline := time.Now().Add(15 * time.Second)
	var cs ClusterStatus
	for {
		queryStep("during repair", false)
		cs = fe.Status()
		healed := cs.Repair.Converged && cs.Repair.Backlog == 0 && cs.Repair.Sealed > 0
		for _, h := range cs.Shards {
			if h.Name == "shard3" && h.NonAuthoritative {
				healed = false
			}
		}
		if healed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("repair never converged and sealed: %+v shards %+v", cs.Repair, cs.Shards)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if cs.Repair.Repaired == 0 {
		t.Fatal("repair converged without installing any records on the empty shard")
	}

	// Undrain: the replacement takes query traffic, and answers are
	// exact end to end again.
	if _, err := fe.Drain("shard3", false); err != nil {
		t.Fatalf("undrain replacement: %v", err)
	}
	queryStep("after undrain", true)

	// The replacement really serves: route every vertex once and check
	// it fielded fetches without a single unknown-hint regression.
	repl := fe.state.Load().clientByName("shard3")
	before := repl.fetches.Load()
	for v := 0; v < n; v++ {
		if _, err := fe.Label(ctx, v); err != nil {
			t.Fatalf("Label(%d) after heal: %v", v, err)
		}
	}
	if repl.fetches.Load() == before {
		t.Fatal("healed replacement fielded no fetches; it owns nothing?")
	}
	if cs := fe.Status(); !cs.Repair.Converged {
		t.Fatalf("cluster fell out of convergence after undrain: %+v", cs.Repair)
	}
}

func mustEmptyStore(t testing.TB, n int) *labelstore.Store {
	t.Helper()
	st, err := labelstore.NewEmpty(n)
	if err != nil {
		t.Fatal(err)
	}
	return st
}
