package labelstore

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"fsdl/internal/core"
	"fsdl/internal/gen"
	"fsdl/internal/graph"
)

// The store's table of shared level lists (core.LevelTable) lives and
// dies with the decoded LRU it serves. These tests pin its lifetime; that
// sharing never shows in a served answer or a written byte is what every
// differential and golden test of this package already checks, since all
// of them read their labels through Store.Label.

func ringLattice(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
		b.AddEdge(i, (i+2)%n)
	}
	return b.MustBuild()
}

func loadedStore(t *testing.T, s *core.Scheme) *Store {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, s, nil); err != nil {
		t.Fatal(err)
	}
	st, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// levelKey spells out one level's (index, point ids, edges) — what the
// table must find equal before it shares a list.
func levelKey(k int, lv *core.LevelLabel) string {
	var b bytes.Buffer
	fmt.Fprint(&b, k, ":")
	for _, p := range lv.Points {
		fmt.Fprint(&b, p.X, ",")
	}
	fmt.Fprint(&b, lv.Edges)
	return b.String()
}

func distances(t *testing.T, st *Store, n int) []int64 {
	t.Helper()
	var out []int64
	for i := 0; i < 12; i++ {
		src, dst := (i*37)%n, (i*91+n/2)%n
		d, ok, err := st.Distance(src, dst, graph.FaultVertices((src+dst)/2+1))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			d = -1
		}
		out = append(out, d)
	}
	return out
}

// TestLevelTableDropCaches: DropCaches empties the table with the LRU,
// and a label handed out before keeps decoding — it holds its lists, the
// table only pointed at them. A factored file never brings a saturated
// level to the table at all: every label gets the file's one list per
// level, which outlives DropCaches with the file.
func TestLevelTableDropCaches(t *testing.T) {
	s := buildScheme(t, gen.Grid2D(6, 6))
	for _, factored := range []bool{false, true} {
		path := canonicalFSDL3 // canonical records of the same scheme
		if factored {
			path = writeFormat3File(t, t.TempDir(), "store.fsdl3", s, nil)
		}
		st, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		want := distances(t, st, 36)
		ls, _ := st.Label(0)
		lt, _ := st.Label(35)
		wantD, wantOK := (&core.Query{S: ls, T: lt}).Distance()
		interned, lists := st.LevelTableStats()
		// (The one level that differs has no edges to share: a single
		// net point.)
		if shared, differ := sharedLevels(ls, lt); factored && (shared == 0 || differ > 1) {
			t.Fatalf("factored labels of a saturated grid share %d levels, differ on %d", shared, differ)
		}
		if factored != (interned == 0 && lists == 0) {
			t.Fatalf("factored=%v: a saturated grid read through: %d lists interned, %d held", factored, interned, lists)
		}

		st.DropCaches()
		if again, lists := st.LevelTableStats(); lists != 0 || again != interned {
			t.Fatalf("after DropCaches: %d lists held, counter %d → %d", lists, interned, again)
		}
		if d, ok := (&core.Query{S: ls, T: lt}).Distance(); d != wantD || ok != wantOK {
			t.Fatalf("labels held across DropCaches decode (%d,%v), before (%d,%v)", d, ok, wantD, wantOK)
		}
		if got := distances(t, st, 36); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("answers after DropCaches %v, before %v", got, want)
		}
		st.Close()
	}
}

// TestLevelListSeenOnceIsNotRetained: a list becomes shared on its second
// sighting. One pass over a ring store — saturated upper levels every
// label carries, lower-level lists only one label does — leaves in the
// table at most the lists that were seen twice, and a list seen once is
// garbage as soon as its label is.
func TestLevelListSeenOnceIsNotRetained(t *testing.T) {
	const n = 512
	s := buildScheme(t, ringLattice(n))
	st := loadedStore(t, s)
	sightings := map[string]int{}
	for v := 0; v < n; v++ {
		l, err := st.Label(v)
		if err != nil {
			t.Fatal(err)
		}
		for k := range l.Levels {
			if len(l.Levels[k].Edges) > 0 {
				sightings[levelKey(k, &l.Levels[k])]++
			}
		}
	}
	once, more := 0, 0
	for _, c := range sightings {
		if c == 1 {
			once++
		} else {
			more++
		}
	}
	if once == 0 || more == 0 {
		t.Fatalf("fixture: %d lists seen once, %d more often — need both", once, more)
	}
	if _, lists := st.LevelTableStats(); lists == 0 || lists > more {
		t.Fatalf("%d lists held after one pass; %d were seen twice or more, %d once", lists, more, once)
	}

	// A store whose LRU admits on the second touch, so nothing but the
	// table could keep a label's list alive after one lookup.
	cold := loadedStore(t, s)
	cold.SetDecodedCacheCapacity(1)
	l, err := cold.Label(n / 2)
	if err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	k := 0
	for sightings[levelKey(k, &l.Levels[k])] != 1 || len(l.Levels[k].Edges) < 2 {
		k++ // the lowest levels of a ring label are its own
	}
	runtime.SetFinalizer(&l.Levels[k].Edges[0], func(*core.EdgeEntry) { close(freed) })
	l = nil
	for deadline := time.Now().Add(10 * time.Second); ; {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("a level list seen once is still reachable after its label was dropped")
		}
	}
}

// TestLevelTableCap: the table holds no more lists than the LRU it
// serves could (capacity × levels). Past that nothing more is admitted,
// and the answers stay what they were. The fixture is hand-built so that
// the lists are many: 40 pairs of one-level labels, each pair sharing a
// list no other pair has.
func TestLevelTableCap(t *testing.T) {
	const pairs, capacity = 40, 4
	fill := func(st *Store) {
		for v := 0; v < 2*pairs; v++ {
			a := int32(v &^ 1)
			l := &core.Label{V: int32(v), Epsilon: 2, C: 2, MaxLevel: 3, Levels: []core.LevelLabel{{
				Points: []core.PointEntry{{X: a, D: int32(v) - a}, {X: a + 1, D: a + 1 - int32(v)}},
				Edges:  []core.EdgeEntry{{XI: 0, YI: 1, D: 1}},
			}}}
			data, bits := l.Encode()
			if err := st.Put(v, bits, data); err != nil {
				t.Fatal(err)
			}
		}
	}
	read := func(st *Store) (dists []int64) {
		for pass := 0; pass < 2; pass++ {
			for v := 0; v < 2*pairs; v++ {
				if _, err := st.Label(v); err != nil {
					t.Fatal(err)
				}
			}
		}
		for v := 0; v < 2*pairs; v += 2 {
			d, ok, err := st.Distance(v, v+1, nil)
			if err != nil || !ok {
				t.Fatalf("Distance(%d,%d): %v %v", v, v+1, ok, err)
			}
			dists = append(dists, d)
		}
		return dists
	}
	roomy, _ := NewEmpty(2 * pairs)
	fill(roomy)
	want := read(roomy)
	if _, lists := roomy.LevelTableStats(); lists != pairs {
		t.Fatalf("%d lists held behind the default LRU, want one per pair (%d)", lists, pairs)
	}
	tight, _ := NewEmpty(2 * pairs)
	tight.SetDecodedCacheCapacity(capacity)
	fill(tight)
	got := read(tight)
	if _, lists := tight.LevelTableStats(); lists != capacity {
		t.Fatalf("%d lists held behind a %d-label LRU of one-level labels, want the cap", lists, capacity)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("answers at the cap %v, below it %v", got, want)
	}
}

// TestLevelTableRepairIngest: a corrupt record fails its parse and never
// reaches the table; the record Put heals it with — here one from a
// scheme of a changed graph — comes back as exactly the label that was
// put, sharing lists with the store's other labels only where they are
// equal.
func TestLevelTableRepairIngest(t *testing.T) {
	const side = 6
	g := gen.Grid2D(side, side) // the canonical fixture's grid
	n := g.NumVertices()
	const victim = 13
	st, err := Open(canonicalWithJunk(t, victim))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for v := 0; v < n; v++ {
		if _, err := st.Label(v); (err != nil) != (v == victim) {
			t.Fatalf("Label(%d): %v", v, err)
		}
	}
	interned, lists := st.LevelTableStats()
	if _, err := st.Label(victim); err == nil {
		t.Fatal("corrupt record parsed")
	}
	if i, l := st.LevelTableStats(); i != interned || l != lists {
		t.Fatalf("a corrupt record moved the table: %d/%d → %d/%d", interned, lists, i, l)
	}

	// The same grid with one edge gone: same parameters, other distances.
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for _, x := range g.Neighbors(u) {
			if u < int(x) && !(u == victim && int(x) == victim+1) {
				b.AddEdge(u, int(x))
			}
		}
	}
	changed := buildScheme(t, b.MustBuild()).Label(victim)
	data, bits := changed.Encode()
	if err := st.Put(victim, bits, data); err != nil {
		t.Fatal(err)
	}
	got, err := st.Label(victim)
	if err != nil {
		t.Fatal(err)
	}
	if gdata, gbits := got.Encode(); gbits != bits || !bytes.Equal(gdata, data) {
		t.Fatal("the healed label does not encode to the record that was put")
	}
	if shared, differ := sharedLevels(got, mustLabel(t, st, victim+side)); shared == 0 || differ == 0 {
		t.Fatalf("healed label vs a neighbour's: %d levels shared, %d not — want both (one edge changed the low levels only)", shared, differ)
	}
}

func mustLabel(t *testing.T, st *Store, v int) *core.Label {
	t.Helper()
	l, err := st.Label(v)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// sharedLevels counts the levels at which a and b hold the same Edges
// array, and those at which they do not.
func sharedLevels(a, b *core.Label) (shared, differ int) {
	for k := range a.Levels {
		ea, eb := a.Levels[k].Edges, b.Levels[k].Edges
		if len(ea) > 0 && len(eb) > 0 && &ea[0] == &eb[0] {
			shared++
		} else {
			differ++
		}
	}
	return shared, differ
}
