package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fsdl/internal/cluster"
	"fsdl/internal/core"
	"fsdl/internal/labelstore"
)

// storeMicro times the label store's fetch path on a fresh handle:
// Store.Raw (page-in + CRC + transcode), a cold Store.Label (Raw + label
// parse), a warm one (decoded-LRU hit), and core.DecodeLabel alone on
// the raw bytes. On the cluster workload the same fresh-handle idea
// times a cold Frontend.Label: one vertex's scatter-gather miss.
func storeMicro(cfg *runConfig, w *workload, a *artifacts, set func(string, float64, int)) error {
	path := a.storePath
	if w.kind == deployCluster {
		path = a.partPaths[0] // what a shard serves Raw from
	}
	fresh := func() (*labelstore.Store, error) {
		if w.kind != deployHeap {
			return labelstore.Open(path)
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return labelstore.Load(f)
	}
	t0 := time.Now()
	st, err := fresh()
	if err != nil {
		return err
	}
	defer st.Close()
	set("labelstore.open_ms", float64(time.Since(t0))/float64(time.Millisecond), 0)

	ids := st.Vertices()
	r := newRNG(cfg.seed, 7, 0)
	var raw, cold, warm, parse samples
	for i := 0; i < min(64, len(ids)); i++ {
		v := ids[r.intn(len(ids))]
		t0 := time.Now()
		bits, data, ok := st.Raw(v)
		raw.addDur(time.Since(t0), time.Microsecond)
		if !ok {
			return fmt.Errorf("store micro: no raw record for vertex %d", v)
		}
		t0 = time.Now()
		if _, err := core.DecodeLabel(data, bits); err != nil {
			return err
		}
		parse.addDur(time.Since(t0), time.Millisecond)
	}
	// Cold and warm Label on a second fresh handle, so Raw's transcode
	// memo from above does not pre-warm them.
	st2, err := fresh()
	if err != nil {
		return err
	}
	defer st2.Close()
	r = newRNG(cfg.seed, 8, 0)
	drawn := map[int]bool{}
	for i := 0; i < min(64, len(ids)); i++ {
		v := ids[r.intn(len(ids))]
		if drawn[v] {
			continue
		}
		drawn[v] = true
		t0 := time.Now()
		if _, err := st2.Label(v); err != nil {
			return err
		}
		cold.addDur(time.Since(t0), time.Millisecond)
		t0 = time.Now()
		st2.Label(v)
		warm.addDur(time.Since(t0), time.Microsecond)
	}
	set("labelstore.raw_fetch_p50_us", raw.median(), len(raw))
	set("core.label_parse_p50_ms", parse.median(), len(parse))
	set("labelstore.label_cold_p50_ms", cold.median(), len(cold))
	set("labelstore.label_warm_p50_us", warm.median(), len(warm))

	if w.kind == deployCluster {
		ss, err := startShards(a)
		if err != nil {
			return err
		}
		defer ss.close()
		src, err := openSource(w, a, ss, "")
		if err != nil {
			return err
		}
		defer src.close()
		var miss samples
		seen := map[int]bool{}
		r = newRNG(cfg.seed, 9, 0)
		for len(miss) < 64 {
			v := r.intn(a.g.NumVertices())
			if seen[v] {
				continue
			}
			seen[v] = true
			t0 := time.Now()
			if _, err := src.fe.Label(context.Background(), v); err != nil {
				return err
			}
			miss.addDur(time.Since(t0), time.Millisecond)
		}
		set("cluster.label_miss_p50_ms", miss.median(), len(miss))
		cpu, err := repairSweepCPU(a)
		if err != nil {
			return err
		}
		set("cluster.repair_sweep_cpu_s", cpu, 1)
	}
	return nil
}

// repairSweepCPU prices the frontend's anti-entropy sweep, which the
// benchmark's deployments run without (see README.md): on an otherwise
// idle fresh shard tier it starts a frontend with the sweep on and
// returns the process CPU seconds one full sweep burns.
func repairSweepCPU(a *artifacts) (float64, error) {
	ss, err := startShards(a)
	if err != nil {
		return 0, err
	}
	defer ss.close()
	fe, err := cluster.NewFrontend(cluster.FrontendConfig{
		Membership:     membership(ss.addrs),
		RepairInterval: 50 * time.Millisecond,
	})
	if err != nil {
		return 0, err
	}
	defer fe.Close()
	sweeps := func() float64 {
		var sb strings.Builder
		fe.WriteMetrics(&sb)
		for _, line := range strings.Split(sb.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "fsdl_cluster_repair_sweeps_total "); ok {
				v, _ := strconv.ParseFloat(rest, 64)
				return v
			}
		}
		return 0
	}
	// The counter ticks when a sweep starts: CPU from the first start to
	// the second covers one sweep plus an idle wait that burns none.
	var c0 float64
	deadline := time.Now().Add(30 * time.Second)
	for started := false; ; {
		switch n := sweeps(); {
		case n >= 1 && !started:
			started, c0 = true, cpuSeconds()
		case n >= 2:
			return cpuSeconds() - c0, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("repair sweep did not finish within 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
