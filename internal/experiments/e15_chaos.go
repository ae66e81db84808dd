package experiments

import (
	"bytes"
	"fmt"
	"math/rand"

	"fsdl/internal/core"
	"fsdl/internal/distsim"
	"fsdl/internal/faultinject"
	"fsdl/internal/graph"
	"fsdl/internal/labelstore"
	"fsdl/internal/stats"
)

// RunE15Chaos measures how the recovery protocol and the decoder behave
// when the infrastructure itself misbehaves — the resilience counterpart
// of E11's happy path. Part 1 replays one seeded traffic trace under a
// chaos plan (lossy, duplicating, delaying transport; a router crash and
// restart with amnesia; a network partition that heals), comparing a
// perfect network, chaos with bounded retry-backoff, and chaos with
// retries disabled, and verifies the chaos run is reproducible byte for
// byte. Part 2 damages a serialized label store, salvages it with
// LoadPartial, and answers queries with missing fault labels through the
// degraded decoder, checking the safety direction δ ≥ d_{G\F} against
// the exact baseline.
func RunE15Chaos(cfg Config) error {
	side := 12
	packets := 80
	if cfg.Quick {
		side = 8
		packets = 24
	}
	w := gridWorkload(side)
	n := w.g.NumVertices()
	cs, err := core.BuildScheme(w.g, 2)
	if err != nil {
		return err
	}
	cs.SetCacheLimit(4096)

	// The canonical chaos plan of the acceptance criteria: drop=10%,
	// duplicate=5%, one crash/restart, one partition+heal.
	var left []int
	for y := 0; y < side; y++ {
		for x := 0; x < side/3; x++ {
			left = append(left, y*side+x)
		}
	}
	horizon := int64(packets * 18)
	plan := &faultinject.Plan{
		Seed:      cfg.Seed + 15,
		DropProb:  0.10,
		DupProb:   0.05,
		DelayProb: 0.05,
		Crashes:   []faultinject.Crash{{Router: n/2 + 1, At: horizon / 4, RestartAt: horizon / 2}},
		Partitions: []faultinject.Partition{
			{Members: left, At: horizon * 2 / 3, HealAt: horizon * 5 / 6},
		},
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 15))
	failA, failB := n/3, 2*n/3
	avoid := map[int]bool{failA: true, failB: true, plan.Crashes[0].Router: true}
	type pktEvent struct {
		at       int64
		src, dst int
	}
	var pkts []pktEvent
	for len(pkts) < packets {
		src, dst := rng.Intn(n), rng.Intn(n)
		if src == dst || avoid[src] || avoid[dst] {
			continue
		}
		pkts = append(pkts, pktEvent{at: int64(10 + len(pkts)*18), src: src, dst: dst})
	}

	runTrace := func(c distsim.Config) (distsim.Metrics, error) {
		sim, err := distsim.NewChaos(cs, c)
		if err != nil {
			return distsim.Metrics{}, err
		}
		if err := sim.FailVertexAt(0, failA); err != nil {
			return distsim.Metrics{}, err
		}
		if err := sim.FailVertexAt(5, failB); err != nil {
			return distsim.Metrics{}, err
		}
		for _, p := range pkts {
			if err := sim.InjectPacketAt(p.at, p.src, p.dst); err != nil {
				return distsim.Metrics{}, err
			}
		}
		return sim.Run(1 << 40), nil
	}

	regimes := []struct {
		name string
		cfg  distsim.Config
	}{
		{"perfect network", distsim.Config{}},
		{"chaos", distsim.Config{Chaos: plan, MaxRetries: 9, RetryBackoff: 2}},
		{"chaos, no retries", distsim.Config{Chaos: plan, MaxRetries: -1}},
	}
	table := stats.NewTable("regime", "deliverable", "delivered", "rate", "retries",
		"transport drops", "partition drops", "dup injected", "dedup suppressed", "heal re-ann", "mean stretch")
	var chaosRun distsim.Metrics
	for _, regime := range regimes {
		m, err := runTrace(regime.cfg)
		if err != nil {
			return err
		}
		if regime.name == "chaos" {
			chaosRun = m
		}
		table.AddRow(regime.name, m.Deliverable, m.Delivered, fmt.Sprintf("%.3f", m.DeliveryRate()),
			m.Retries, m.TransportDrops, m.PartitionDrops, m.DuplicatesInjected,
			m.DedupSuppressed, m.HealReannouncements, m.MeanStretch())
	}
	fmt.Fprintf(cfg.Out, "workload: %s, %d packets, chaos plan: drop=%.0f%% dup=%.0f%% delay=%.0f%%, 1 crash/restart, 1 partition+heal\n",
		w.name, len(pkts), plan.DropProb*100, plan.DupProb*100, plan.DelayProb*100)
	fmt.Fprint(cfg.Out, table.String())

	replay, err := runTrace(regimes[1].cfg)
	if err != nil {
		return err
	}
	if replay == chaosRun {
		fmt.Fprintln(cfg.Out, "reproducibility: chaos run replayed byte-for-byte identical (same seed, same metrics)")
	} else {
		fmt.Fprintf(cfg.Out, "reproducibility: VIOLATED — replay differs:\n  %+v\nvs\n  %+v\n", chaosRun, replay)
	}

	// Part 2: label-store damage and degraded decoding.
	var buf bytes.Buffer
	if err := labelstore.Save(&buf, cs, nil); err != nil {
		return err
	}
	raw := buf.Bytes()
	damaged := append([]byte(nil), raw...)
	for i := 0; i < 3; i++ {
		damaged[len(damaged)*(i+1)/5] ^= 0xff
	}
	st, rep, err := labelstore.LoadPartial(bytes.NewReader(damaged))
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "label store: %d bytes, 3 bytes flipped → salvage kept %d/%d records (corrupt: %d, truncated: %v)\n",
		len(raw), rep.Kept, rep.Total, len(rep.Corrupt), rep.Truncated)

	queries := 40
	if cfg.Quick {
		queries = 15
	}
	answered, degraded, unsafe := 0, 0, 0
	var dec core.Decoder
	defer dec.Release()
	worst := 1.0
	for trial := 0; trial < queries; trial++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		if src == dst {
			continue
		}
		faults := randomFaultSet(n, 3, src, dst, rng)
		if !st.Has(src) || !st.Has(dst) {
			continue // endpoint label lost to the damage: nothing to decode from
		}
		// Lost fault labels join the degraded tier by id; randomFaultSet
		// spares src and dst, so q is never nil (a forbidden endpoint).
		q, err := core.ResolveQuery(src, dst, faults, st.Label, true)
		if err != nil {
			return err
		}
		res := dec.Decode(q, core.Opts{})
		if !res.OK {
			continue
		}
		answered++
		if res.Degraded {
			degraded++
		}
		truth := w.g.DistAvoiding(src, dst, faults)
		if !graph.Reachable(truth) || res.Dist < int64(truth) {
			unsafe++
			continue
		}
		if truth > 0 {
			if ratio := float64(res.Dist) / float64(truth); ratio > worst {
				worst = ratio
			}
		}
	}
	fmt.Fprintf(cfg.Out, "degraded queries: %d answered (%d degraded), %d safety violations, worst ratio to exact %.3f\n",
		answered, degraded, unsafe, worst)
	if unsafe > 0 {
		return fmt.Errorf("experiments: degraded decoding returned %d answers below the true surviving distance", unsafe)
	}
	fmt.Fprintln(cfg.Out, "expectation: retries recover nearly all chaos losses (rate ≥ 0.95) at bounded retry cost; without retries the partition and drops translate directly into lost packets; salvaged stores answer conservatively — never below d_{G\\F}.")
	return nil
}
