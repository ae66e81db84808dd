package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fsdl/internal/graph"
)

// Shape of one live round: a 2-mutation batch (1 delete, 1 chord insert
// of span ≤ 64), then queriesPerRound queries; every
// compactEvery-th round a compaction is issued beside the round's
// queries, which then keep coming until it returns.
const (
	batchSize       = 2
	queriesPerRound = 20
	compactEvery    = 4
	maxChordSpan    = 64
	localRadius     = 32
)

type mutation struct {
	insert bool
	u, v   int
}

// liveScript is the live workload's fixed script. Mutations depend on
// the graph they mutate, so rounds are generated in order against the
// script's own copy of the graph; round r's batch and queries are still
// a pure function of (seed, r).
type liveScript struct {
	w    *workload
	seed int64
	base *graph.Graph
	cur  *model
	// rounds[r] is round r's mutation batch, kept for the checker.
	rounds [][]mutation
	// recent holds the endpoints of the last compactEvery rounds' edits:
	// where the pending delta lives, and so where half the queries aim.
	recent []int
}

func newLiveScript(w *workload, g *graph.Graph, seed int64) *liveScript {
	return &liveScript{w: w, seed: seed, base: g, cur: newModel(g)}
}

// nextRound generates (and applies to the script's graph) the next
// round's mutation batch.
func (ls *liveScript) nextRound() []mutation {
	round := len(ls.rounds)
	r := newRNG(ls.seed, 4, uint64(round))
	n := len(ls.cur.adj)
	var batch []mutation
	for len(batch) < batchSize/2 {
		u := r.intn(n)
		if len(ls.cur.adj[u]) <= 2 {
			continue
		}
		v := r.pick(ls.cur.adj[u])
		if len(ls.cur.adj[v]) <= 2 {
			continue
		}
		ls.cur.removeEdge(u, v)
		batch = append(batch, mutation{false, u, v})
	}
	for len(batch) < batchSize {
		u := r.intn(n)
		v := (u + 3 + r.intn(maxChordSpan-2)) % n
		if ls.cur.hasEdge(u, v) {
			continue
		}
		ls.cur.addEdge(u, v)
		batch = append(batch, mutation{true, u, v})
	}
	ls.rounds = append(ls.rounds, batch)
	for _, m := range batch {
		ls.recent = append(ls.recent, m.u, m.v)
	}
	if keep := 2 * batchSize * compactEvery; len(ls.recent) > keep {
		ls.recent = ls.recent[len(ls.recent)-keep:]
	}
	return batch
}

// query is query k of the current (latest generated) round. Odd k aim
// at the pending delta: s within localRadius ring positions of a
// recent edit.
func (ls *liveScript) query(k int) *request {
	round := len(ls.rounds) - 1
	r := newRNG(ls.seed, 5, uint64(round)<<20|uint64(k))
	n := len(ls.cur.adj)
	s, t := r.intn(n), r.intn(n)
	if k%2 == 1 {
		s = (ls.recent[r.intn(len(ls.recent))] + r.intn(2*localRadius+1) - localRadius + n) % n
	}
	for t == s {
		t = r.intn(n)
	}
	req := &request{url: "/v1/distance", pairs: [][2]int{{s, t}}}
	req.faults = drawFaults(&r, ls.base, ls.w.faultClasses[k%len(ls.w.faultClasses)], []int{s, t})
	req.body = encodeQuery(req)
	return req
}

func encodeMutations(batch []mutation) []byte {
	var sb strings.Builder
	sb.WriteString(`{"mutations":[`)
	for i, m := range batch {
		if i > 0 {
			sb.WriteByte(',')
		}
		op := "delete"
		if m.insert {
			op = "insert"
		}
		fmt.Fprintf(&sb, `{"op":%q,"u":%d,"v":%d}`, op, m.u, m.v)
	}
	sb.WriteString("]}")
	return []byte(sb.String())
}

// runLiveRounds drives the live workload: w.warm untimed rounds (the
// last of which carries the one full compaction, so every timed one is
// incremental), then timed compaction cycles — compactEvery rounds, the
// last with a compaction beside it — until dur has passed. A cycle is
// never cut short: it is the workload's natural window, and the window
// lengths returned are the cycles' wall times.
func runLiveRounds(d *deployment, ls *liveScript, dur time.Duration) ([]op, []time.Duration) {
	var (
		ops        []op
		windows    []time.Duration
		start      time.Time
		cycleStart time.Time
	)
	for round := 0; ; round++ {
		timed := round >= ls.w.warm
		if round == ls.w.warm {
			start = time.Now()
		}
		if timed && (round-ls.w.warm)%compactEvery == 0 {
			if round > ls.w.warm {
				windows = append(windows, time.Since(cycleStart))
			}
			if time.Since(start) >= dur {
				break
			}
			cycleStart = time.Now()
		}
		batch := ls.nextRound()
		mo := op{kind: opMutate, round: round}
		t0 := time.Now()
		mo.status, mo.body, mo.err = d.post("/v1/mutate", encodeMutations(batch))
		mo.lat = time.Since(t0)

		var (
			compacting atomic.Bool
			co         op
			wg         sync.WaitGroup
		)
		compactRound := round%compactEvery == compactEvery-1
		if compactRound {
			compacting.Store(true)
			wg.Add(1)
			go func() {
				defer wg.Done()
				co = op{kind: opCompact, round: round}
				t0 := time.Now()
				co.status, co.body, co.err = d.post("/v1/compact", nil)
				co.lat = time.Since(t0)
				compacting.Store(false)
			}()
		}
		var next atomic.Int64
		per := make([][]op, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for {
					k := int(next.Add(1) - 1)
					during := compacting.Load()
					if k >= queriesPerRound && !during {
						return
					}
					o := d.timedQuery(ls.query(k), round)
					o.duringCompact = during
					per[c] = append(per[c], o)
				}
			}(c)
		}
		wg.Wait()
		if compactRound {
			pruneGenerations(d.liveRoot)
		}
		if !timed {
			continue
		}
		from := len(ops)
		ops = append(ops, mo)
		for _, p := range per {
			ops = append(ops, p...)
		}
		if compactRound {
			ops = append(ops, co)
		}
		for i := from; i < len(ops); i++ {
			ops[i].window = len(windows)
		}
	}
	return ops, windows
}

// pruneGenerations deletes all but the two newest generation
// directories under root — the retention an operator's cron would
// apply; the newest is being served and is the next incremental
// build's hard-link source.
func pruneGenerations(root string) {
	dirs, _ := filepath.Glob(filepath.Join(root, "gen-*"))
	sort.Strings(dirs)
	for i := 0; i < len(dirs)-2; i++ {
		os.RemoveAll(dirs[i])
	}
}
