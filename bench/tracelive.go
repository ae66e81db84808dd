package main

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"fsdl/internal/core"
	"fsdl/internal/liveupdate"
	"fsdl/internal/server"
)

// liveLayers is what the live workload's traced rounds add to layers.
type liveLayers struct {
	mutate, apply                 samples // ms: HTTP round trip, Pipeline.Apply
	walBytes                      samples // per mutation
	flushes0                      float64
	batches                       int
	compact, compactSrv, snapshot samples // s: HTTP, Server.Compact, CompactSnapshot (incremental only)
	commit                        samples // ms: Pipeline.Commit
	incBuild                      samples // s
	dirty, incDirty               samples // labels re-extracted: CompactionResult, IncrementalBuild
	incremental, compactions      int
	duringCompact                 samples // ms
}

func (lv *liveLayers) report(set func(string, float64, int), delta func(string) float64) {
	set("liveupdate.mutate_p50_ms", lv.mutate.median(), len(lv.mutate))
	set("liveupdate.apply_p50_ms", lv.apply.median(), len(lv.apply))
	set("liveupdate.wal_flushes_per_batch", ratio(delta("fsdl_wal_flushed_total"), float64(lv.batches)), lv.batches)
	set("liveupdate.wal_bytes_per_mutation", lv.walBytes.mean(), len(lv.walBytes))
	set("liveupdate.compact_p50_s", lv.compact.median(), len(lv.compact))
	set("liveupdate.compact_snapshot_p50_s", lv.snapshot.median(), len(lv.snapshot))
	set("server.compact_p50_s", lv.compactSrv.median(), len(lv.compactSrv))
	set("liveupdate.commit_p50_ms", lv.commit.median(), len(lv.commit))
	set("core.incremental_build_p50_s", lv.incBuild.median(), len(lv.incBuild))
	set("core.incremental_dirty_labels_mean", lv.incDirty.mean(), len(lv.incDirty))
	set("liveupdate.dirty_labels_mean", lv.dirty.mean(), len(lv.dirty))
	set("liveupdate.incremental_share", ratio(float64(lv.incremental), float64(lv.compactions)), lv.compactions)
	set("liveupdate.query_during_compact_p50_ms", lv.duringCompact.median(), len(lv.duringCompact))
}

// liveQueryStride samples the round's queries in the traced run: every
// stride-th query runs at all three depths, the rest are skipped so a
// traced round stays short enough to reach several compactions.
const liveQueryStride = 5

// traceLive replays the live workload's rounds through the twins: each
// mutation batch over HTTP, through Server.Mutate and through
// Pipeline.Apply; a sample of each round's queries at the three query
// depths; each compaction over HTTP (with foreground queries beside
// it), through Server.Compact and through liveupdate.CompactSnapshot on
// the bare pipeline. It returns the /metrics scrape taken after
// warm-up.
func traceLive(cfg *runConfig, tw *twins, tr *tracer, ly *layers, a *artifacts, dur time.Duration) (*liveLayers, map[string]float64, error) {
	w := cfg.w
	ls := newLiveScript(w, a.g, cfg.seed)
	lv := &liveLayers{}
	var (
		before map[string]float64
		prevC  *liveupdate.CompactionResult
		start  time.Time
		rid    int
	)
	c := tw.c.src
	for round := 0; ; round++ {
		recorded := round >= w.warm
		if round == w.warm {
			var err error
			if before, err = scrape(tw.a); err != nil {
				return nil, nil, err
			}
			tr.reset()
			start = time.Now()
		}
		if recorded && time.Since(start) >= dur {
			return lv, before, nil
		}
		batch := ls.nextRound()
		muts := make([]liveupdate.Mutation, len(batch))
		for i, m := range batch {
			op := liveupdate.MutDelete
			if m.insert {
				op = liveupdate.MutInsert
			}
			muts[i] = liveupdate.Mutation{Op: op, U: int32(m.u), V: int32(m.v)}
		}
		rid++
		root := tr.start("http.mutate", -1, rid)
		status, body, err := tw.a.post("/v1/mutate", encodeMutations(batch))
		dHTTP := tr.finish(root)
		if err != nil || status != 200 {
			return nil, nil, fmt.Errorf("traced mutate round %d: status %d err %v %s", round, status, err, body)
		}
		ms := tr.start("server.Mutate", root, rid)
		if _, err := tw.b.srv.Mutate(muts); err != nil {
			return nil, nil, err
		}
		tr.finish(ms)
		ws0, _ := c.live.WALStats()
		as := tr.start("liveupdate.Apply", ms, rid)
		if _, err := c.live.Apply(muts); err != nil {
			return nil, nil, err
		}
		dApply := tr.finish(as)
		ws1, _ := c.live.WALStats()
		if recorded {
			lv.batches++
			lv.mutate.addDur(dHTTP, time.Millisecond)
			lv.apply.addDur(dApply, time.Millisecond)
			lv.walBytes.add(float64(ws1.ActiveBytes-ws0.ActiveBytes) / float64(len(muts)))
		}

		snap, err := c.live.Snapshot()
		if err != nil {
			return nil, nil, err
		}
		for k := 0; k < queriesPerRound; k += liveQueryStride {
			rid++
			rec := ly
			if !recorded {
				rec = nil
			}
			if rec != nil {
				rec.pending.add(float64(c.live.Pending()))
			}
			if err := tw.replay(tr, rec, rid, ls.query(k), snap.Graph, (k/liveQueryStride)%extrasEvery == 0); err != nil {
				return nil, nil, err
			}
		}
		if round%compactEvery != compactEvery-1 {
			continue
		}

		// Compaction, depth by depth. Over HTTP it runs beside foreground
		// queries (on twin A only; the store they warm is the one the swap
		// retires), which is where the stall metric comes from.
		rid++
		var compacting atomic.Bool
		compacting.Store(true)
		stall := make(chan samples)
		go func() {
			var s samples
			for k := queriesPerRound; compacting.Load(); k++ {
				o := tw.a.timedQuery(ls.query(k), round)
				s.addDur(o.lat, time.Millisecond)
			}
			stall <- s
		}()
		root = tr.start("http.compact", -1, rid)
		status, body, err = tw.a.post("/v1/compact", nil)
		dHTTP = tr.finish(root)
		compacting.Store(false)
		during := <-stall
		if err != nil || status != 200 {
			return nil, nil, fmt.Errorf("traced compact round %d: status %d err %v %s", round, status, err, body)
		}
		var cr server.CompactResult
		if err := json.Unmarshal(body, &cr); err != nil {
			return nil, nil, err
		}
		cs := tr.start("server.Compact", root, rid)
		if _, err := tw.b.srv.Compact(); err != nil {
			return nil, nil, err
		}
		dSrv := tr.finish(cs)

		opts := liveupdate.CompactOptions{Epsilon: epsilon, Format: 3, Compress: true}
		var (
			dInc     time.Duration
			incDirty int
		)
		if prevC != nil {
			opts.Prev = &liveupdate.PrevGeneration{
				Generation: prevC.Snapshot.Generation, Dir: prevC.Dir, Scheme: prevC.Scheme, Store: prevC.Store,
			}
			is := tr.start("core.BuildSchemeIncremental", cs, rid)
			inc, err := core.BuildSchemeIncremental(prevC.Scheme, snap.Graph, snap.Mutated, 0)
			if err != nil {
				return nil, nil, err
			}
			dInc, incDirty = tr.finish(is), len(inc.Dirty)
		}
		ss := tr.start("liveupdate.CompactSnapshot", cs, rid)
		built, err := liveupdate.CompactSnapshot(snap, c.liveRoot, opts)
		dSnap := tr.finish(ss)
		if err != nil {
			return nil, nil, err
		}
		c.store = built.Store
		cm := tr.start("liveupdate.Commit", cs, rid)
		if err := c.live.Commit(snap); err != nil {
			return nil, nil, err
		}
		dCommit := tr.finish(cm)
		prevC = built
		for _, d := range []*source{tw.a.source, tw.b.source, c} {
			pruneGenerations(d.liveRoot)
		}
		if !recorded {
			continue
		}
		lv.compactions++
		lv.duringCompact = append(lv.duringCompact, during...)
		if cr.Incremental && built.Incremental {
			lv.incremental++
			lv.compact.addDur(dHTTP, time.Second)
			lv.compactSrv.addDur(dSrv, time.Second)
			lv.commit.addDur(dCommit, time.Millisecond)
			lv.snapshot.addDur(dSnap, time.Second)
			lv.incBuild.addDur(dInc, time.Second)
			lv.dirty.add(float64(built.DirtyLabels))
			lv.incDirty.add(float64(incDirty))
		}
	}
}
