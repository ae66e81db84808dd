package cluster

import (
	"context"
	"strings"
	"testing"
	"time"

	"fsdl/internal/labelstore"
)

// TestMembershipJoinLeaveDrain walks the admin surface end to end:
// epoch bumps, refusal cases, routing exclusion for drained shards, and
// client-state reuse across epochs.
func TestMembershipJoinLeaveDrain(t *testing.T) {
	_, st := buildFullStore(t, 8)
	n := st.NumVertices()
	tc := startCluster(t, st, 3, 2, nil)
	f := newTestFrontend(t, tc, func(cfg *FrontendConfig) {
		cfg.LabelCacheSize = -1
		cfg.HedgeDelay = -1
	})
	ctx := context.Background()

	if f.Epoch() != 1 {
		t.Fatalf("fresh frontend epoch %d, want 1", f.Epoch())
	}

	// Refusals fail loudly and leave the epoch alone.
	if _, err := f.Join("shard0", "127.0.0.1:1"); err == nil || !strings.Contains(err.Error(), "already a member") {
		t.Fatalf("duplicate join: %v", err)
	}
	if _, err := f.Join("ghost", "127.0.0.1:1"); err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("unreachable join: %v", err)
	}
	_, wrongAddr := startExtraShard(t, ShardConfig{Store: buildStoreOnly(t, 4), Name: "wrong"})
	if _, err := f.Join("wrong", wrongAddr); err == nil || !strings.Contains(err.Error(), "vertex space") {
		t.Fatalf("mismatched-n join: %v", err)
	}
	if _, err := f.Leave("ghost"); err == nil || !strings.Contains(err.Error(), "not a member") {
		t.Fatalf("leave of non-member: %v", err)
	}
	if _, err := f.Drain("ghost", true); err == nil || !strings.Contains(err.Error(), "not a member") {
		t.Fatalf("drain of non-member: %v", err)
	}
	if f.Epoch() != 1 {
		t.Fatalf("refused admin ops bumped the epoch to %d", f.Epoch())
	}

	// A real join: the new shard serves the whole store, so it can field
	// any vertex the ring hands it.
	_, addr3 := startExtraShard(t, ShardConfig{Store: st, Name: "shard3"})
	epoch, err := f.Join("shard3", addr3)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if epoch != 2 || f.Epoch() != 2 {
		t.Fatalf("epoch %d/%d after join, want 2", epoch, f.Epoch())
	}
	if h := f.Health(); len(h) != 4 {
		t.Fatalf("%d shards in health after join, want 4", len(h))
	}
	for v := 0; v < n; v++ {
		if _, err := f.Label(ctx, v); err != nil {
			t.Fatalf("Label(%d) after join: %v", v, err)
		}
	}

	// Drain: excluded from routing (zero fetches land on it), epoch
	// bumped, flagged in health — but still a member.
	preDrain := f.state.Load().clientByName("shard3")
	if epoch, err = f.Drain("shard3", true); err != nil || epoch != 3 {
		t.Fatalf("drain: epoch %d err %v, want 3/nil", epoch, err)
	}
	drainedFetches := preDrain.fetches.Load()
	for v := 0; v < n; v++ {
		if _, err := f.Label(ctx, v); err != nil {
			t.Fatalf("Label(%d) with shard3 draining: %v", v, err)
		}
	}
	if got := preDrain.fetches.Load(); got != drainedFetches {
		t.Fatalf("draining shard fielded %d fetches", got-drainedFetches)
	}
	found := false
	for _, h := range f.Health() {
		if h.Name == "shard3" {
			found = true
			if !h.Draining {
				t.Fatal("draining shard not flagged in health")
			}
		}
	}
	if !found {
		t.Fatal("draining shard missing from health; drain must not remove membership")
	}

	// Undrain: traffic returns.
	if _, err := f.Drain("shard3", false); err != nil {
		t.Fatalf("undrain: %v", err)
	}
	for v := 0; v < n; v++ {
		if _, err := f.Label(ctx, v); err != nil {
			t.Fatal(err)
		}
	}
	if got := preDrain.fetches.Load(); got == drainedFetches {
		t.Fatal("undrained shard still fielding no fetches")
	}

	// Leave: epoch bumps, the survivor set keeps serving, and the
	// surviving shards' clients are the same objects across the swap
	// (pool, health and breaker state carry over).
	before0 := f.state.Load().clientByName("shard0")
	epoch, err = f.Leave("shard3")
	if err != nil || epoch != 5 {
		t.Fatalf("leave: epoch %d err %v, want 5/nil", epoch, err)
	}
	if after0 := f.state.Load().clientByName("shard0"); after0 != before0 {
		t.Fatal("membership swap rebuilt a surviving shard's client; pooled state lost")
	}
	if f.state.Load().clientByName("shard3") != nil {
		t.Fatal("departed shard still in the ring state")
	}
	for v := 0; v < n; v++ {
		if _, err := f.Label(ctx, v); err != nil {
			t.Fatalf("Label(%d) after leave: %v", v, err)
		}
	}

	// The last shard may never leave.
	if _, err := f.Leave("shard0"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Leave("shard1"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Leave("shard2"); err == nil || !strings.Contains(err.Error(), "last shard") {
		t.Fatalf("leave of the last shard: %v", err)
	}
}

// buildStoreOnly is buildFullStore without returning the graph, for
// stores that exist only to have the wrong vertex space.
func buildStoreOnly(t testing.TB, side int) *labelstore.Store {
	_, st := buildFullStore(t, side)
	return st
}

// TestMembershipEpochIsolatesInflightFetch: a fetch loads one ring
// state and finishes against it even when a membership change swaps the
// epoch mid-flight — the swap must never split a scatter across rings.
func TestMembershipEpochIsolatesInflightFetch(t *testing.T) {
	_, st := buildFullStore(t, 8)

	// Stall shard0's fetches so the scatter is in flight while we swap.
	stall := make(chan struct{}, 1)
	release := make(chan struct{})
	tc := startCluster(t, st, 3, 2, map[int]func(byte) error{
		0: func(op byte) error {
			if isLabelFetch(op) {
				select {
				case stall <- struct{}{}:
				default:
				}
				<-release
			}
			return nil
		},
	})
	f := newTestFrontend(t, tc, func(cfg *FrontendConfig) {
		cfg.LabelCacheSize = -1
		cfg.HedgeDelay = -1
		cfg.FetchTimeout = 5 * time.Second
	})
	ctx := context.Background()

	// Find a vertex whose primary is shard 0 so the stall bites.
	ring := f.state.Load().ring
	v := -1
	for i := 0; i < st.NumVertices(); i++ {
		if ring.Primary(int32(i)) == 0 {
			v = i
			break
		}
	}
	if v < 0 {
		t.Fatal("shard0 owns nothing; ring layout changed")
	}

	got := make(chan error, 1)
	go func() {
		_, err := f.Label(ctx, v)
		got <- err
	}()
	<-stall // the fetch is pinned inside shard0's handler

	// Swap the membership underneath it.
	_, addr3 := startExtraShard(t, ShardConfig{Store: st, Name: "shard3"})
	if _, err := f.Join("shard3", addr3); err != nil {
		t.Fatalf("join mid-fetch: %v", err)
	}
	close(release)

	if err := <-got; err != nil {
		t.Fatalf("in-flight fetch broke across the epoch swap: %v", err)
	}
	if f.Epoch() != 2 {
		t.Fatalf("epoch %d, want 2", f.Epoch())
	}
}
