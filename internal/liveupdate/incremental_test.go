package liveupdate

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"fsdl/internal/cluster"
	"fsdl/internal/core"
	"fsdl/internal/gen"
	"fsdl/internal/graph"
	"fsdl/internal/labelstore"
)

func readGenFile(t *testing.T, dir, name string) []byte {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestIncrementalCompactEquivalence is the end-to-end differential gate:
// a generation compacted incrementally (delta-scoped rebuild + spliced
// label bytes) must be byte-identical to a full from-scratch build of
// the same snapshot — every file, at every worker count.
func TestIncrementalCompactEquivalence(t *testing.T) {
	const eps = 2.0
	base := gen.Grid2D(8, 5)
	parts := map[string][]int{}
	for v := 0; v < 40; v++ {
		name := "shard-a"
		if v >= 20 {
			name = "shard-b"
		}
		parts[name] = append(parts[name], v)
	}
	full := CompactOptions{Epsilon: eps, Partitions: parts}

	p, err := Open(Config{Base: base})
	if err != nil {
		t.Fatal(err)
	}
	// Generation 2: a full build establishing the incremental base.
	if _, err := p.Apply([]Mutation{{Op: MutDelete, U: 0, V: 1}, {Op: MutInsert, U: 3, V: 12}}); err != nil {
		t.Fatal(err)
	}
	res1, err := Compact(p, t.TempDir(), full)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Incremental {
		t.Fatal("full build reported incremental")
	}
	if err := p.Commit(res1.Snapshot); err != nil {
		t.Fatal(err)
	}

	// Generation 3: adversarial batch — edges between nearby vertices
	// sit inside many overlapping dense balls, plus a delete that
	// reverts part of the earlier batch.
	batch := []Mutation{
		{Op: MutInsert, U: 0, V: 1},
		{Op: MutInsert, U: 9, V: 18},
		{Op: MutInsert, U: 18, V: 27},
		{Op: MutDelete, U: 3, V: 12},
		{Op: MutDelete, U: 21, V: 22},
	}
	if _, err := p.Apply(batch); err != nil {
		t.Fatal(err)
	}
	snap, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fullDir := t.TempDir()
	wantRes, err := CompactSnapshot(snap, fullDir, full)
	if err != nil {
		t.Fatal(err)
	}

	prev := &PrevGeneration{
		Generation: res1.Snapshot.Generation,
		Dir:        res1.Dir,
		Scheme:     res1.Scheme,
		Store:      res1.Store,
	}
	files := []string{LabelsFileName, GraphFileName, "shard-a.fsdl", "shard-b.fsdl"}
	for _, workers := range []int{1, 2, 8} {
		opts := CompactOptions{Epsilon: eps, Workers: workers, Partitions: parts, Prev: prev}
		res, err := CompactSnapshot(snap, t.TempDir(), opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !res.Incremental {
			t.Fatalf("workers=%d: incremental build not taken", workers)
		}
		for _, name := range files {
			want := readGenFile(t, wantRes.Dir, name)
			got := readGenFile(t, res.Dir, name)
			if !bytes.Equal(want, got) {
				t.Fatalf("workers=%d: %s differs from full build", workers, name)
			}
		}
		if res.DirtyLabels < 1 || res.DirtyLabels > 40 {
			t.Fatalf("workers=%d: %d dirty labels of 40", workers, res.DirtyLabels)
		}
	}
}

// TestIncrementalCompactEmptyDelta: with no mutations every label is
// clean, so the spliced store re-extracts nothing — and every file,
// partitions included, is still written and equals the full build's.
func TestIncrementalCompactEmptyDelta(t *testing.T) {
	base := gen.Grid2D(6, 5)
	parts := map[string][]int{"s0": {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, "s1": {10, 15, 20, 25, 29}}
	opts := CompactOptions{Epsilon: 2.0, Partitions: parts}

	p, err := Open(Config{Base: base})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := Compact(p, t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(res1.Snapshot); err != nil {
		t.Fatal(err)
	}

	snap, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	opts.Prev = &PrevGeneration{
		Generation: res1.Snapshot.Generation,
		Dir:        res1.Dir,
		Scheme:     res1.Scheme,
		Store:      res1.Store,
	}
	res2, err := CompactSnapshot(snap, t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.DirtyLabels != 0 {
		t.Fatalf("empty delta re-extracted %d labels", res2.DirtyLabels)
	}
	// The spliced generation still matches a full build byte for byte.
	want, err := CompactSnapshot(snap, t.TempDir(), CompactOptions{Epsilon: 2.0, Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{LabelsFileName, "s0.fsdl", "s1.fsdl"} {
		if !bytes.Equal(readGenFile(t, want.Dir, name), readGenFile(t, res2.Dir, name)) {
			t.Fatalf("%s differs from full build", name)
		}
	}
	// Both generations load and verify through the manifest path.
	if _, err := labelstore.ReadManifestDir(res2.Dir); err != nil {
		t.Fatalf("incremental generation fails manifest verification: %v", err)
	}
}

// TestIncrementalCompactRejects: a Prev that is not actually the
// snapshot's parent must fail loudly, never silently fall back.
func TestIncrementalCompactRejects(t *testing.T) {
	base := gen.Grid2D(4, 4)
	p, err := Open(Config{Base: base})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compact(p, t.TempDir(), CompactOptions{Epsilon: 2.0})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(res.Snapshot); err != nil {
		t.Fatal(err)
	}
	snap, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	bad := []CompactOptions{
		{Epsilon: 2.0, Prev: &PrevGeneration{Generation: res.Snapshot.Generation, Scheme: res.Scheme}},                       // no store
		{Epsilon: 2.0, Prev: &PrevGeneration{Generation: res.Snapshot.Generation + 7, Scheme: res.Scheme, Store: res.Store}}, // wrong generation
		{Epsilon: 1.0, Prev: &PrevGeneration{Generation: res.Snapshot.Generation, Scheme: res.Scheme, Store: res.Store}},     // epsilon mismatch
	}
	for i, opts := range bad {
		if _, err := CompactSnapshot(snap, t.TempDir(), opts); err == nil {
			t.Fatalf("case %d: bad Prev accepted", i)
		}
	}
}

// TestIncrementalCompactFormat3: the incremental build's byte-identity
// guarantee holds for the factored FSDL3 generations every compaction
// writes, and they load back (mmap-backed) with the same answers. Format
// and Compress select nothing: the default options and the ones the
// benchmark harness sets write the same generation.
func TestIncrementalCompactFormat3(t *testing.T) {
	const eps = 2.0
	base := gen.Grid2D(8, 5)
	parts := map[string][]int{}
	for v := 0; v < 40; v++ {
		name := "shard-a"
		if v >= 20 {
			name = "shard-b"
		}
		parts[name] = append(parts[name], v)
	}
	batch := []Mutation{
		{Op: MutInsert, U: 9, V: 18},
		{Op: MutDelete, U: 21, V: 22},
	}
	var written [][]byte
	for _, full := range []CompactOptions{
		{Epsilon: eps, Partitions: parts},
		{Epsilon: eps, Partitions: parts, Format: 3, Compress: true},
	} {
		p, err := Open(Config{Base: base})
		if err != nil {
			t.Fatal(err)
		}
		res1, err := Compact(p, t.TempDir(), full)
		if err != nil {
			t.Fatal(err)
		}
		if enc := res1.Store.Encoding(); enc.Version != 3 || !enc.Factored {
			t.Fatalf("Format %d: reloaded store %+v, want a factored FSDL3 file", full.Format, enc)
		}
		if err := p.Commit(res1.Snapshot); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Apply(batch); err != nil {
			t.Fatal(err)
		}
		snap, err := p.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		want, err := CompactSnapshot(snap, t.TempDir(), full)
		if err != nil {
			t.Fatal(err)
		}
		inc := full
		inc.Prev = &PrevGeneration{
			Generation: res1.Snapshot.Generation,
			Dir:        res1.Dir,
			Scheme:     res1.Scheme,
			Store:      res1.Store,
		}
		res2, err := CompactSnapshot(snap, t.TempDir(), inc)
		if err != nil {
			t.Fatal(err)
		}
		if !res2.Incremental {
			t.Fatalf("Format %d: incremental build not taken", full.Format)
		}
		for _, name := range []string{LabelsFileName, "shard-a.fsdl", "shard-b.fsdl"} {
			if !bytes.Equal(readGenFile(t, want.Dir, name), readGenFile(t, res2.Dir, name)) {
				t.Fatalf("Format %d: %s differs from full FSDL3 build", full.Format, name)
			}
		}
		if _, err := labelstore.ReadManifestDir(res2.Dir); err != nil {
			t.Fatalf("Format %d: FSDL3 generation fails manifest verification: %v", full.Format, err)
		}
		st, err := LoadGenerationStore(res2.Dir)
		if err != nil {
			t.Fatal(err)
		}
		if enc := st.Encoding(); enc.Version != 3 || !enc.Factored {
			t.Fatalf("Format %d: reloaded generation %+v, want a factored FSDL3 file", full.Format, enc)
		}
		written = append(written, readGenFile(t, res2.Dir, LabelsFileName))
	}
	if !bytes.Equal(written[0], written[1]) {
		t.Fatal("Format and Compress changed the bytes of a generation")
	}
}

// TestIncrementalCompactFormatUpgrade: a pipeline whose previous
// generation is FSDL2, as a writer from before factored compactions left
// it, compacts into a factored one, full and incremental alike: every
// file, clean partitions included, in the factored encoding, and the
// incremental generation byte-identical to the full one — identical
// inputs yield identical generations whatever the previous generation
// was stored as.
func TestIncrementalCompactFormatUpgrade(t *testing.T) {
	// A path long enough that the delta leaves most labels clean.
	base := gen.Path(300)
	parts := map[string][]int{"s0": {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, "s1": {10, 150, 200, 250, 299}}
	p, err := Open(Config{Base: base})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := Compact(p, t.TempDir(), CompactOptions{Epsilon: 2.0, Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(res1.Snapshot); err != nil {
		t.Fatal(err)
	}
	// The previous generation's labels as a writer from before factored
	// compactions left them on disk: an FSDL2 file, written from an FSDL2
	// store.
	var buf bytes.Buffer
	if err := labelstore.Save(&buf, res1.Scheme, nil); err != nil {
		t.Fatal(err)
	}
	heap, err := labelstore.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	oldDir := t.TempDir()
	f, err := os.Create(filepath.Join(oldDir, LabelsFileName))
	if err != nil {
		t.Fatal(err)
	}
	err = labelstore.Write(f, heap, nil)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	prev2, err := LoadGenerationStore(oldDir)
	if err != nil {
		t.Fatal(err)
	}
	if enc := prev2.Encoding(); enc.Version != 2 {
		t.Fatalf("the old generation reads back as %+v, want FSDL2", enc)
	}
	if _, err := p.Apply([]Mutation{{Op: MutInsert, U: 0, V: 2}}); err != nil {
		t.Fatal(err)
	}
	snap, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	full, err := CompactSnapshot(snap, t.TempDir(), CompactOptions{Epsilon: 2.0, Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := CompactSnapshot(snap, t.TempDir(), CompactOptions{
		Epsilon: 2.0, Partitions: parts,
		Prev: &PrevGeneration{Generation: res1.Snapshot.Generation, Scheme: res1.Scheme, Store: prev2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !inc.Incremental || inc.DirtyLabels == 0 || inc.DirtyLabels == base.NumVertices() {
		t.Fatalf("incremental build off the FSDL2 base: incremental %v, %d of %d labels dirty", inc.Incremental, inc.DirtyLabels, base.NumVertices())
	}
	for _, name := range []string{LabelsFileName, "s0.fsdl", "s1.fsdl"} {
		ps, err := labelstore.Open(filepath.Join(inc.Dir, name))
		if err != nil {
			t.Fatal(err)
		}
		enc := ps.Encoding()
		ps.Close()
		if enc.Version != 3 || !enc.Factored || enc != full.Store.Encoding() {
			t.Fatalf("%s is %+v, the full build's store %+v: want factored FSDL3 throughout", name, enc, full.Store.Encoding())
		}
		if !bytes.Equal(readGenFile(t, full.Dir, name), readGenFile(t, inc.Dir, name)) {
			t.Fatalf("%s: the incremental build off the FSDL2 base differs from the full one", name)
		}
	}
}

// TestCompactRejectsCollidingShardName: a shard whose partition file
// would overwrite a generation file is refused before anything is
// built or written.
func TestCompactRejectsCollidingShardName(t *testing.T) {
	p, err := Open(Config{Base: gen.Grid2D(4, 4)})
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Join(t.TempDir(), "gens")
	if _, err := Compact(p, root, CompactOptions{Epsilon: 2.0, Partitions: map[string][]int{"labels": {0, 1}}}); err == nil {
		t.Fatal("shard named like labels.fsdl accepted")
	}
	if _, err := os.Stat(root); !os.IsNotExist(err) {
		t.Fatalf("generation root touched before the name check: %v", err)
	}
}

// TestOneEdgeDeltaDirtiesEveryPartition is the traffic tripwire under
// the rule that a compaction writes every partition and a swap loads
// every shard (docs/PERFORMANCE.md, "Clean partitions do not exist"): a
// label is its balls and the ring scatters vertices by hash, so one
// changed edge — in the middle of the graph or at its rim — leaves no
// partition of a 3-shard R = 2 ring without a dirty label. The day
// dirtiness becomes ball-scoped enough for this to fail, writing only
// the changed partitions is worth measuring again.
func TestOneEdgeDeltaDirtiesEveryPartition(t *testing.T) {
	ringLattice := graph.NewBuilder(512)
	for i := 0; i < 512; i++ {
		ringLattice.AddEdge(i, (i+1)%512)
		ringLattice.AddEdge(i, (i+2)%512)
	}
	nodes := []cluster.Node{{Name: "shard0"}, {Name: "shard1"}, {Name: "shard2"}}
	for _, f := range []struct {
		name  string
		g     *graph.Graph
		edges [][2]int32 // each deleted alone
	}{
		{"grid24", gen.Grid2D(24, 24), [][2]int32{{0, 1}, {12*24 + 11, 12*24 + 12}}},
		{"ring512", ringLattice.MustBuild(), [][2]int32{{0, 1}, {255, 257}}},
		{"path512", gen.Path(512), [][2]int32{{0, 1}, {255, 256}}},
	} {
		prev, err := core.BuildScheme(f.g, 2)
		if err != nil {
			t.Fatal(err)
		}
		parts := cluster.NewRing(nodes, 2).Partition(f.g.NumVertices())
		for _, e := range f.edges {
			p, err := Open(Config{Base: f.g})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Apply([]Mutation{{Op: MutDelete, U: e[0], V: e[1]}}); err != nil {
				t.Fatal(err)
			}
			snap, err := p.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			inc, err := core.BuildSchemeIncremental(prev, snap.Graph, snap.Mutated, 0)
			if err != nil {
				t.Fatal(err)
			}
			dirty := make(map[int]bool, len(inc.Dirty))
			for _, v := range inc.Dirty {
				dirty[int(v)] = true
			}
			for i, ids := range parts {
				if !slices.ContainsFunc(ids, func(v int) bool { return dirty[v] }) {
					t.Errorf("%s minus %v: %d dirty labels of %d, none on %s (%d vertices)",
						f.name, e, len(inc.Dirty), f.g.NumVertices(), nodes[i].Name, len(ids))
				}
			}
		}
	}
}
