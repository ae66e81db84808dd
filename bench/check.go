package main

import (
	"fmt"

	"fsdl/internal/graph"
	"fsdl/internal/server"
)

// model is the checker's own picture of the served graph: plain
// adjacency lists plus a BFS, sharing no code with the program under
// test. On the live workload it is mutated round by round, so a round's
// answers are judged against base + every mutation acked before them.
type model struct {
	adj [][]int32
	// BFS scratch, stamped per search so nothing is cleared between them.
	seen  []uint32
	dist  []int32
	queue []int32
	stamp uint32
}

func newModel(g *graph.Graph) *model {
	n := g.NumVertices()
	m := &model{adj: make([][]int32, n), seen: make([]uint32, n), dist: make([]int32, n)}
	for v := 0; v < n; v++ {
		m.adj[v] = append([]int32(nil), g.Neighbors(v)...)
	}
	return m
}

func (m *model) hasEdge(u, v int) bool {
	for _, w := range m.adj[u] {
		if int(w) == v {
			return true
		}
	}
	return false
}

func (m *model) addEdge(u, v int) {
	m.adj[u] = append(m.adj[u], int32(v))
	m.adj[v] = append(m.adj[v], int32(u))
}

func (m *model) removeEdge(u, v int) {
	del := func(a, b int) {
		for i, w := range m.adj[a] {
			if int(w) == b {
				m.adj[a] = append(m.adj[a][:i], m.adj[a][i+1:]...)
				return
			}
		}
	}
	del(u, v)
	del(v, u)
}

// forbidden is a request's fault set in lookup form.
type forbidden struct {
	v map[int]bool
	e map[[2]int]bool
}

func newForbidden(f *faultSet) *forbidden {
	fb := &forbidden{v: make(map[int]bool, len(f.V)), e: make(map[[2]int]bool, len(f.E))}
	for _, v := range f.V {
		fb.v[v] = true
	}
	for _, e := range f.E {
		fb.e[[2]int{min(e[0], e[1]), max(e[0], e[1])}] = true
	}
	return fb
}

// distAvoiding is d_{G'\F}(s,t) by BFS, -1 when unreachable (or an
// endpoint is forbidden).
func (m *model) distAvoiding(s, t int, f *forbidden) int64 {
	if f.v[s] || f.v[t] {
		return -1
	}
	if s == t {
		return 0
	}
	m.stamp++
	m.queue = append(m.queue[:0], int32(s))
	m.seen[s], m.dist[s] = m.stamp, 0
	for head := 0; head < len(m.queue); head++ {
		u := int(m.queue[head])
		for _, w32 := range m.adj[u] {
			w := int(w32)
			if m.seen[w] == m.stamp || f.v[w] || (len(f.e) > 0 && f.e[[2]int{min(u, w), max(u, w)}]) {
				continue
			}
			m.seen[w], m.dist[w] = m.stamp, m.dist[u]+1
			if w == t {
				return int64(m.dist[w])
			}
			m.queue = append(m.queue, w32)
		}
	}
	return -1
}

// verdict is the checker's finding on one answered pair.
type verdict struct {
	violation string  // "" when the answer honours the contract
	stretch   float64 // δ/d for connected answers with d>0, else 0
}

// checkAnswer judges one answer against the contract:
//
//	δ ≥ d_{G'\F}(s,t) always; exact ⇒ δ ≤ (1+ε)·d; a disconnected
//	verdict that claims exactness must be truly unreachable; a reported
//	path is a walk s..t in G'\F whose hop lengths account for δ.
//
// On a static graph every hop of the walk is a sketch edge weighted by
// its exact surviving distance, so the hops must sum to δ exactly. With
// live mutations a pending insertion can shorten a hop below the weight
// the previous generation's labels gave it, so there the sum may fall
// short of δ but never exceed it.
func checkAnswer(m *model, a *server.Answer, pair [2]int, f *forbidden, wantPath, live bool) verdict {
	bad := func(format string, args ...any) verdict {
		return verdict{violation: fmt.Sprintf("(%d,%d): ", pair[0], pair[1]) + fmt.Sprintf(format, args...)}
	}
	if a.Error != "" {
		return bad("error %q", a.Error)
	}
	if a.S != pair[0] || a.T != pair[1] {
		return bad("answer is for (%d,%d)", a.S, a.T)
	}
	d := m.distAvoiding(pair[0], pair[1], f)
	var v verdict
	if !a.Connected {
		if a.Exact && d >= 0 {
			return bad("exact disconnected verdict but d=%d", d)
		}
		if len(a.Path) > 0 {
			return bad("disconnected answer carries a path")
		}
		return v
	}
	if d < 0 {
		return bad("δ=%d but the pair is unreachable in G\\F", a.Dist)
	}
	if a.Dist < d {
		return bad("δ=%d below d=%d", a.Dist, d)
	}
	if a.Exact && a.Dist > (1+epsilon)*d {
		return bad("exact δ=%d above (1+ε)·d=%d", a.Dist, (1+epsilon)*d)
	}
	if d > 0 {
		v.stretch = float64(a.Dist) / float64(d)
	}
	if !wantPath {
		return v
	}
	p := a.Path
	if len(p) == 0 || int(p[0]) != pair[0] || int(p[len(p)-1]) != pair[1] {
		return bad("path %v does not run s..t", p)
	}
	var total int64
	for i := 1; i < len(p); i++ {
		hop := m.distAvoiding(int(p[i-1]), int(p[i]), f)
		if hop < 0 {
			return bad("path hop %d-%d is not realizable in G\\F", p[i-1], p[i])
		}
		total += hop
	}
	if total > a.Dist || (!live && total != a.Dist) {
		return bad("path weighs %d, δ=%d", total, a.Dist)
	}
	return v
}
