package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"fsdl/internal/gen"
	"fsdl/internal/graph"
)

type deployKind int

const (
	deployHeap    deployKind = iota // FSDL2 Save → Load, labels on the heap
	deployMmap                      // compressed FSDL3 → labelstore.Open (mmap)
	deployCluster                   // 3 shard servers + frontend as the server's Source
	deployLive                      // local FSDL3 store + liveupdate pipeline, WAL on disk
)

// workload is one deployment + traffic mix. Graph sizes are what fits
// the driver's time cap with set-up repeated three times per run; each
// keeps the property that makes the workload stress its layer (label
// set vs. the cache in front of it), see README.md.
type workload struct {
	name string
	why  string
	kind deployKind
	// graph builds the topology. It is fixed per workload — the run's
	// seed draws the traffic, not the graph, so label sizes (and with
	// them every timing) do not move from seed to seed.
	graph func(tiny bool) (*graph.Graph, error)
	// cacheDiv, when non-zero, caps the label LRU in front of the decoder
	// (store decoded-label LRU, or the frontend label LRU) at n/cacheDiv,
	// so the working set is cacheDiv× the cache. 0 keeps the shipped
	// default (1024 / 8192), which then holds every label.
	cacheDiv int
	// faultClasses is cycled by request index: |F| of request i.
	faultClasses []int
	// pathEvery makes every pathEvery-th request ask for "path":true.
	pathEvery int
	// batch is pairs per request: 1 → /v1/distance, >1 → /v1/batch-distance
	// with zipf endpoints and a recurring fault-set pool.
	batch int
	// warm is the untimed warm-up prefix, in requests.
	warm int
}

func ringLattice(n int) (*graph.Graph, error) {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
		b.AddEdge(i, (i+2)%n)
	}
	return b.Build()
}

func sized(tiny bool, full, small int) int {
	if tiny {
		return small
	}
	return full
}

var workloads = []*workload{
	{
		name: wlDecode,
		why:  "grid n=576 from a heap FSDL2 store: every label fits the decoded LRU, so core.Decoder does the work and labelstore none; |F| in {0,1,4,16}, 10% path",
		kind: deployHeap,
		graph: func(tiny bool) (*graph.Graph, error) {
			side := sized(tiny, 24, 8)
			return gen.Grid2D(side, side), nil
		},
		faultClasses: []int{0, 4, 16, 1, 4, 16, 4},
		pathEvery:    10,
		batch:        1,
		warm:         200,
	},
	{
		name: wlFetch,
		why:  "rgg n=1024 from an mmap'd compressed FSDL3 store with the decoded LRU at n/2: half the label touches page in, CRC, transcode and parse; |F| in {0,2,4}",
		kind: deployMmap,
		graph: func(tiny bool) (*graph.Graph, error) {
			n, r := 1024, 0.056
			if tiny {
				n, r = 128, 0.16
			}
			g, _, err := gen.RandomGeometric(n, r, rand.New(rand.NewSource(1)))
			return g, err
		},
		cacheDiv:     2,
		faultClasses: []int{0, 2, 4},
		batch:        1,
		warm:         200,
	},
	{
		name: wlCluster,
		why:  "ring lattice n=4096 on 3 shards (replication 2) behind a frontend with its label LRU at n/2: 8-pair batches, zipf endpoints, 8 recurring fault sets; BFS is closest here",
		kind: deployCluster,
		graph: func(tiny bool) (*graph.Graph, error) {
			return ringLattice(sized(tiny, 4096, 256))
		},
		cacheDiv:     2,
		faultClasses: []int{0, 2, 4},
		batch:        8,
		warm:         200,
	},
	{
		name: wlLive,
		why:  "ring lattice n=2048 with a live pipeline: rounds of one fsynced 2-mutation batch then 20 queries, compaction every 4th round beside the queries; writes and reads share the layers",
		kind: deployLive,
		graph: func(tiny bool) (*graph.Graph, error) {
			return ringLattice(sized(tiny, 2048, 256))
		},
		faultClasses: []int{0, 2},
		batch:        1,
		warm:         4, // rounds, the last of which carries the one full compaction
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// rng is a splitmix64 stream: value-typed and allocation-free, so
// drawing request i costs the client nothing the server could feel.
type rng uint64

func newRNG(seed int64, stream, i uint64) rng {
	r := rng(uint64(seed)*0x9E3779B97F4A7C15 ^ stream*0xBF58476D1CE4E5B9 ^ i*0x94D049BB133111EB)
	r.next()
	return r
}

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int     { return int(r.next() % uint64(n)) }
func (r *rng) float64() float64   { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) pick(s []int32) int { return int(s[r.intn(len(s))]) }

// faultSet is a request's forbidden set in wire form.
type faultSet struct {
	V []int
	E [][2]int
}

func (f *faultSet) size() int { return len(f.V) + len(f.E) }

func (f *faultSet) hasVertex(v int) bool {
	for _, x := range f.V {
		if x == v {
			return true
		}
	}
	return false
}

// request is one scripted HTTP call.
type request struct {
	url    string
	pairs  [][2]int
	faults faultSet
	path   bool
	body   []byte
}

// script is the fixed request sequence of a static workload: request i
// is a pure function of (seed, i), so every run issues the same
// requests in the same order and a timed run executes the prefix that
// fits its --seconds.
type script struct {
	w    *workload
	seed int64
	g    *graph.Graph
	// zipf endpoint sampling (batch workloads): cdf over ranks, mapped
	// through a seeded permutation so hot vertices are scattered.
	zipfCDF []float64
	perm    []int32
	pool    []faultSet
}

func newScript(w *workload, g *graph.Graph, seed int64) *script {
	s := &script{w: w, seed: seed, g: g}
	if w.batch > 1 {
		n := g.NumVertices()
		s.zipfCDF = make([]float64, n)
		var sum float64
		for k := range s.zipfCDF {
			sum += 1 / math.Pow(float64(k+1), 1.1)
			s.zipfCDF[k] = sum
		}
		for k := range s.zipfCDF {
			s.zipfCDF[k] /= sum
		}
		r := newRNG(seed, 1, 0)
		s.perm = make([]int32, n)
		for i := range s.perm {
			s.perm[i] = int32(i)
		}
		for i := n - 1; i > 0; i-- {
			j := r.intn(i + 1)
			s.perm[i], s.perm[j] = s.perm[j], s.perm[i]
		}
		// 8 recurring fault sets, sizes cycling through the classes.
		for k := 0; k < 8; k++ {
			pr := newRNG(seed, 2, uint64(k))
			s.pool = append(s.pool, drawFaults(&pr, g, w.faultClasses[k%len(w.faultClasses)], nil))
		}
	}
	return s
}

// drawFaults draws k distinct faults, ⌈k/2⌉ vertices and the rest
// edges of g, none touching a vertex in avoid.
func drawFaults(r *rng, g *graph.Graph, k int, avoid []int) faultSet {
	var f faultSet
	n := g.NumVertices()
	bad := func(v int) bool {
		for _, a := range avoid {
			if a == v {
				return true
			}
		}
		return f.hasVertex(v)
	}
	for len(f.V) < (k+1)/2 {
		if v := r.intn(n); !bad(v) {
			f.V = append(f.V, v)
		}
	}
	for len(f.E) < k/2 {
		u := r.intn(n)
		nb := g.Neighbors(u)
		if len(nb) == 0 || bad(u) {
			continue
		}
		v := r.pick(nb)
		dup := bad(v)
		for _, e := range f.E {
			dup = dup || (e[0] == min(u, v) && e[1] == max(u, v))
		}
		if !dup {
			f.E = append(f.E, [2]int{min(u, v), max(u, v)})
		}
	}
	return f
}

func (s *script) zipfVertex(r *rng) int {
	k := sort.SearchFloat64s(s.zipfCDF, r.float64())
	return int(s.perm[min(k, len(s.perm)-1)])
}

// request returns scripted request i.
func (s *script) request(i int) *request {
	r := newRNG(s.seed, 3, uint64(i))
	n := s.g.NumVertices()
	req := &request{url: "/v1/distance"}
	if s.w.batch > 1 {
		req.url = "/v1/batch-distance"
		req.faults = s.pool[r.intn(len(s.pool))]
		for len(req.pairs) < s.w.batch {
			a, b := s.zipfVertex(&r), s.zipfVertex(&r)
			if a != b && !req.faults.hasVertex(a) && !req.faults.hasVertex(b) {
				req.pairs = append(req.pairs, [2]int{a, b})
			}
		}
	} else {
		a, b := r.intn(n), r.intn(n-1)
		if b >= a {
			b++
		}
		req.pairs = [][2]int{{a, b}}
		k := s.w.faultClasses[i%len(s.w.faultClasses)]
		req.faults = drawFaults(&r, s.g, k, []int{a, b})
		req.path = s.w.pathEvery > 0 && i%s.w.pathEvery == s.w.pathEvery-1
	}
	req.body = encodeQuery(req)
	return req
}

// encodeQuery renders the request's JSON body.
func encodeQuery(req *request) []byte {
	b := make([]byte, 0, 64+24*len(req.pairs)+12*req.faults.size())
	appendPair := func(p [2]int) {
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(p[0]), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(p[1]), 10)
		b = append(b, ']')
	}
	if len(req.pairs) == 1 && req.url == "/v1/distance" {
		b = append(b, fmt.Sprintf(`{"s":%d,"t":%d`, req.pairs[0][0], req.pairs[0][1])...)
	} else {
		b = append(b, `{"pairs":[`...)
		for i, p := range req.pairs {
			if i > 0 {
				b = append(b, ',')
			}
			appendPair(p)
		}
		b = append(b, ']')
	}
	if len(req.faults.V) > 0 {
		b = append(b, `,"fail":[`...)
		for i, v := range req.faults.V {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, ']')
	}
	if len(req.faults.E) > 0 {
		b = append(b, `,"failedge":[`...)
		for i, e := range req.faults.E {
			if i > 0 {
				b = append(b, ',')
			}
			appendPair(e)
		}
		b = append(b, ']')
	}
	if req.path {
		b = append(b, `,"path":true`...)
	}
	return append(b, '}')
}
