package nets

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"fsdl/internal/graph"
)

func pathGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.MustBuild()
}

func gridGraph(t testing.TB, w, h int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(w * h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddEdge(y*w+x, y*w+x+1)
			}
			if y+1 < h {
				b.AddEdge(y*w+x, (y+1)*w+x)
			}
		}
	}
	return b.MustBuild()
}

func randomConnected(t testing.TB, n int, rng *rand.Rand) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	added := map[[2]int]bool{}
	add := func(u, v int) {
		if u > v {
			u, v = v, u
		}
		if u == v || added[[2]int{u, v}] {
			return
		}
		added[[2]int{u, v}] = true
		b.AddEdge(u, v)
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		add(perm[i], perm[rng.Intn(i)])
	}
	for i := 0; i < n/2; i++ {
		add(rng.Intn(n), rng.Intn(n))
	}
	return b.MustBuild()
}

func TestNumLevels(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 3}, {4, 3}, {5, 4}, {8, 4}, {9, 5}, {1024, 11},
	}
	for _, c := range cases {
		if got := NumLevels(c.n); got != c.want {
			t.Errorf("NumLevels(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestHierarchyInvariantsPath(t *testing.T) {
	g := pathGraph(t, 33)
	h, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyInvariantsGrid(t *testing.T) {
	g := gridGraph(t, 9, 7)
	h, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyInvariantsDisconnected(t *testing.T) {
	// Two path components.
	b := graph.NewBuilder(12)
	for i := 0; i+1 < 6; i++ {
		b.AddEdge(i, i+1)
		b.AddEdge(6+i, 6+i+1)
	}
	g := b.MustBuild()
	h, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
	// Nearest net point must stay inside the component.
	for i := 0; i <= h.MaxLevel(); i++ {
		for v := 0; v < 12; v++ {
			p, d := h.Nearest(i, v)
			if !graph.Reachable(d) {
				t.Fatalf("level %d vertex %d: no net point", i, v)
			}
			if (v < 6) != (p < 6) {
				t.Fatalf("level %d: nearest(%d) = %d crosses components", i, v, p)
			}
		}
	}
}

func TestN0IsAllVertices(t *testing.T) {
	g := gridGraph(t, 5, 5)
	h, _ := Build(g)
	if len(h.Level(0)) != 25 {
		t.Errorf("|N_0| = %d, want 25", len(h.Level(0)))
	}
	for v := 0; v < 25; v++ {
		p, d := h.Nearest(0, v)
		if p != v || d != 0 {
			t.Errorf("M_0(%d) = (%d,%d), want (%d,0)", v, p, d, v)
		}
	}
}

func TestTopLevelIsSmall(t *testing.T) {
	// N_L with L = ⌈log n⌉ is (n-1)-dominating, hence one point per
	// connected component.
	g := pathGraph(t, 50)
	h, _ := Build(g)
	if got := len(h.Level(h.MaxLevel())); got != 1 {
		t.Errorf("|N_L| = %d, want 1 on a connected graph", got)
	}
}

func TestLevelsShrink(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomConnected(t, 200, rng)
	h, _ := Build(g)
	for i := 1; i <= h.MaxLevel(); i++ {
		if len(h.Level(i)) > len(h.Level(i-1)) {
			t.Errorf("|N_%d| = %d > |N_%d| = %d", i, len(h.Level(i)), i-1, len(h.Level(i-1)))
		}
	}
}

func TestNearestIsActuallyNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomConnected(t, 80, rng)
	h, _ := Build(g)
	for i := 0; i <= h.MaxLevel(); i++ {
		members := h.Level(i)
		for v := 0; v < 80; v++ {
			dist := g.BFS(v)
			best := graph.Infinity
			for _, m := range members {
				if graph.Reachable(dist[m]) && (!graph.Reachable(best) || dist[m] < best) {
					best = dist[m]
				}
			}
			_, got := h.Nearest(i, v)
			if got != best {
				t.Fatalf("level %d vertex %d: Nearest dist %d, true nearest %d", i, v, got, best)
			}
		}
	}
}

func TestInNetMatchesLevelMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomConnected(t, 120, rng)
	h, _ := Build(g)
	for i := 0; i <= h.MaxLevel(); i++ {
		inLevel := map[int32]bool{}
		for _, v := range h.Level(i) {
			inLevel[v] = true
		}
		for v := 0; v < 120; v++ {
			if h.InNet(v, i) != inLevel[int32(v)] {
				t.Fatalf("InNet(%d,%d) = %v disagrees with Level", v, i, h.InNet(v, i))
			}
		}
	}
}

func TestBuildWithOrderValidation(t *testing.T) {
	g := pathGraph(t, 4)
	if _, err := BuildWithOrder(g, []int{0, 1, 2}); err == nil {
		t.Error("short order must be rejected")
	}
	if _, err := BuildWithOrder(g, []int{0, 1, 2, 2}); err == nil {
		t.Error("non-permutation must be rejected")
	}
	if _, err := BuildWithOrder(g, []int{3, 2, 1, 0}); err != nil {
		t.Errorf("valid permutation rejected: %v", err)
	}
}

func TestEmptyAndSingletonGraphs(t *testing.T) {
	empty := graph.NewBuilder(0).MustBuild()
	h, err := Build(empty)
	if err != nil {
		t.Fatalf("empty: %v", err)
	}
	if err := h.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
	single := graph.NewBuilder(1).MustBuild()
	h1, err := Build(single)
	if err != nil {
		t.Fatalf("singleton: %v", err)
	}
	if len(h1.Level(0)) != 1 {
		t.Errorf("singleton |N_0| = %d, want 1", len(h1.Level(0)))
	}
}

// Property: on random connected graphs with random greedy orders, all
// hierarchy invariants hold.
func TestInvariantsProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(56)
		g := randomConnected(t, n, rng)
		h, err := BuildWithOrder(g, rng.Perm(n))
		if err != nil {
			return false
		}
		return h.VerifyInvariants() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Lemma 2.2 packing bound on the 2-D grid (doubling dimension α ≤ 2):
// |B(v,R) ∩ N_i| ≤ 2·(4R/2^i)^α.
func TestPackingBoundGrid(t *testing.T) {
	g := gridGraph(t, 16, 16)
	h, _ := Build(g)
	const alpha = 2.0
	for i := 1; i <= h.MaxLevel(); i++ {
		members := h.Level(i)
		for _, v := range []int{0, 17 + 16*3, 255} {
			dist := g.BFS(v)
			for _, R := range []int32{2, 4, 8, 16, 31} {
				if R < int32(1)<<uint(i) {
					continue // Fact 1 requires R ≥ r = 2^i
				}
				count := 0
				for _, m := range members {
					if graph.Reachable(dist[m]) && dist[m] <= R {
						count++
					}
				}
				ratio := float64(4*R) / float64(int32(1)<<uint(i))
				bound := 2 * ratio * ratio // 2·(4R/2^i)^2
				if float64(count) > bound {
					t.Errorf("level %d, v=%d, R=%d: |B∩N_i| = %d > bound %.1f",
						i, v, R, count, bound)
				}
			}
		}
	}
}

func TestFromNetLevelsRestoresHierarchy(t *testing.T) {
	g := gridGraph(t, 8, 7)
	orig, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	netLevel := make([]int, g.NumVertices())
	for v := range netLevel {
		netLevel[v] = orig.NetLevelOf(v)
	}
	restored, err := FromNetLevels(g, netLevel)
	if err != nil {
		t.Fatal(err)
	}
	if restored.MaxLevel() != orig.MaxLevel() {
		t.Fatalf("MaxLevel %d -> %d", orig.MaxLevel(), restored.MaxLevel())
	}
	for i := 0; i <= orig.MaxLevel(); i++ {
		a, b := orig.Level(i), restored.Level(i)
		if len(a) != len(b) {
			t.Fatalf("level %d size %d -> %d", i, len(a), len(b))
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("level %d member %d differs", i, k)
			}
		}
		for v := 0; v < g.NumVertices(); v++ {
			_, da := orig.Nearest(i, v)
			_, db := restored.Nearest(i, v)
			if da != db {
				t.Fatalf("level %d vertex %d nearest dist %d -> %d", i, v, da, db)
			}
		}
	}
	if err := restored.VerifyInvariants(); err != nil {
		t.Fatalf("restored hierarchy invalid: %v", err)
	}
}

func TestFromNetLevelsValidation(t *testing.T) {
	g := pathGraph(t, 8)
	if _, err := FromNetLevels(g, []int{0, 1}); err == nil {
		t.Error("wrong length must be rejected")
	}
	bad := make([]int, 8)
	bad[3] = 99
	if _, err := FromNetLevels(g, bad); err == nil {
		t.Error("out-of-range level must be rejected")
	}
}

// TestBuildWorkersDeterminism pins the pool contract at the hierarchy
// layer: every W-set, level, net-level assignment, and nearest-net-point
// table must be identical for any worker count (the greedy scan within a
// level is sequential; only whole levels run in parallel).
func TestBuildWorkersDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	graphs := map[string]*graph.Graph{
		"grid-11x7": gridGraph(t, 11, 7),
		"path-90":   pathGraph(t, 90),
		"random-60": randomConnected(t, 60, rng),
	}
	for name, g := range graphs {
		ref, err := BuildWorkers(g, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, workers := range []int{2, 4, 8, 0} {
			h, err := BuildWorkers(g, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if h.MaxLevel() != ref.MaxLevel() {
				t.Fatalf("%s workers=%d: MaxLevel %d, want %d", name, workers, h.MaxLevel(), ref.MaxLevel())
			}
			for j := 0; j <= ref.MaxLevel(); j++ {
				if !slices.Equal(h.WSet(j), ref.WSet(j)) {
					t.Fatalf("%s workers=%d: W(2^%d) differs", name, workers, j)
				}
				if !slices.Equal(h.Level(j), ref.Level(j)) {
					t.Fatalf("%s workers=%d: level %d differs", name, workers, j)
				}
			}
			if !slices.Equal(h.NetLevels(), ref.NetLevels()) {
				t.Fatalf("%s workers=%d: netLevel differs", name, workers)
			}
			for v := 0; v < g.NumVertices(); v++ {
				for j := 0; j <= ref.MaxLevel(); j++ {
					hp, hd := h.Nearest(j, v)
					rp, rd := ref.Nearest(j, v)
					if hp != rp || hd != rd {
						t.Fatalf("%s workers=%d: Nearest(%d,%d) = (%d,%d), want (%d,%d)",
							name, workers, j, v, hp, hd, rp, rd)
					}
				}
			}
			if err := h.VerifyInvariants(); err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
		}
	}
}

// TestRunParallel pins the pool every preprocessing phase runs on: ≤ 0
// workers means GOMAXPROCS, there are never more workers than tasks (so
// zero tasks build none), every task runs exactly once, and a lone worker
// runs inline on the caller.
func TestRunParallel(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ workers, tasks, want int }{
		{0, 64, min(procs, 64)},
		{-3, 64, min(procs, 64)},
		{4, 2, 2},
		{4, 10, 4},
		{1, 5, 1},
		{3, 0, 0},
		{0, 0, 0},
	} {
		var built atomic.Int32
		ran := make([]atomic.Int32, tc.tasks)
		RunParallel(tc.workers, tc.tasks, func() func(int) {
			built.Add(1)
			return func(task int) { ran[task].Add(1) }
		})
		if got := int(built.Load()); got != tc.want {
			t.Errorf("RunParallel(%d, %d) built %d workers, want %d", tc.workers, tc.tasks, got, tc.want)
		}
		for task := range ran {
			if c := ran[task].Load(); c != 1 {
				t.Errorf("RunParallel(%d, %d) ran task %d %d times", tc.workers, tc.tasks, task, c)
			}
		}
	}

	// One worker — asked for, or all that a single task leaves — runs
	// newWorker and every task on the calling goroutine.
	caller := goroutineID()
	for _, workers := range []int{1, 8} {
		tasks := 3
		if workers > 1 {
			tasks = 1
		}
		var on []string
		RunParallel(workers, tasks, func() func(int) {
			on = append(on, goroutineID())
			return func(int) { on = append(on, goroutineID()) }
		})
		if len(on) != tasks+1 {
			t.Fatalf("workers=%d tasks=%d: %d calls, want %d", workers, tasks, len(on), tasks+1)
		}
		for _, id := range on {
			if id != caller {
				t.Errorf("workers=%d tasks=%d: ran on goroutine %s, caller is %s", workers, tasks, id, caller)
			}
		}
	}
}

// goroutineID returns the id of the calling goroutine, read off the
// header of its stack trace ("goroutine 7 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestVerifyInvariantsCatchesSeparationViolation manufactures a W-set
// with two points closer than the required 2^j separation and checks the
// truncated-BFS separation pass still rejects it.
func TestVerifyInvariantsCatchesSeparationViolation(t *testing.T) {
	g := pathGraph(t, 32)
	h, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	if h.MaxLevel() < 1 {
		t.Fatal("need at least two levels")
	}
	// Corrupt W(2): append a vertex adjacent to an existing W-point, at
	// distance 1 < 2.
	w := h.wsets[1]
	if len(w) == 0 {
		t.Fatal("W(2) empty")
	}
	v := w[0]
	var bad int32 = -1
	for _, u := range g.Neighbors(int(v)) {
		found := false
		for _, x := range w {
			if x == u {
				found = true
				break
			}
		}
		if !found {
			bad = u
			break
		}
	}
	if bad < 0 {
		t.Fatal("no neighbor outside W(2)")
	}
	h.wsets[1] = append(append([]int32{}, w...), bad)
	if err := h.VerifyInvariants(); err == nil {
		t.Fatal("VerifyInvariants accepted a 2^j-separation violation")
	}
}
