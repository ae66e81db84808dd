package liveupdate

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

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
		Partitions: parts,
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
		sum := 0
		for _, c := range res.PartitionDirty {
			sum += c
		}
		if sum != res.DirtyLabels {
			t.Fatalf("workers=%d: partition dirty counts sum to %d, want %d", workers, sum, res.DirtyLabels)
		}
		for _, name := range res.ChangedPartitions {
			if res.PartitionDirty[name] == 0 {
				t.Fatalf("workers=%d: %s listed changed with 0 dirty", workers, name)
			}
		}
	}
}

// TestIncrementalCompactEmptyDelta: with no mutations every label is
// clean, so the spliced store re-extracts nothing and unchanged
// partition files are hard-linked from the previous generation.
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
		Partitions: parts,
	}
	res2, err := CompactSnapshot(snap, t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.DirtyLabels != 0 {
		t.Fatalf("empty delta re-extracted %d labels", res2.DirtyLabels)
	}
	if len(res2.ChangedPartitions) != 0 {
		t.Fatalf("empty delta changed partitions %v", res2.ChangedPartitions)
	}
	for name := range parts {
		oldFi, err := os.Stat(filepath.Join(res1.Dir, name+".fsdl"))
		if err != nil {
			t.Fatal(err)
		}
		newFi, err := os.Stat(filepath.Join(res2.Dir, name+".fsdl"))
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(oldFi, newFi) {
			t.Fatalf("partition %s was rewritten, not hard-linked", name)
		}
	}
	// The spliced full store still matches a full build byte for byte.
	want, err := CompactSnapshot(snap, t.TempDir(), CompactOptions{Epsilon: 2.0, Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readGenFile(t, want.Dir, LabelsFileName), readGenFile(t, res2.Dir, LabelsFileName)) {
		t.Fatal("spliced labels differ from full build")
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
// guarantee holds for the FSDL3 container too, compressed or not, and
// FSDL3 generations load back (mmap-backed) with the same answers.
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
	for _, compress := range []bool{false, true} {
		full := CompactOptions{Epsilon: eps, Partitions: parts, Format: 3, Compress: compress}
		p, err := Open(Config{Base: base})
		if err != nil {
			t.Fatal(err)
		}
		res1, err := Compact(p, t.TempDir(), full)
		if err != nil {
			t.Fatal(err)
		}
		if got := res1.Store.Format(); got != 3 {
			t.Fatalf("compress=%v: reloaded store format %d, want 3", compress, got)
		}
		if res1.Store.Compressed() != compress {
			t.Fatalf("compress=%v: reloaded store compressed=%v", compress, res1.Store.Compressed())
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
			Partitions: parts,
		}
		res2, err := CompactSnapshot(snap, t.TempDir(), inc)
		if err != nil {
			t.Fatal(err)
		}
		if !res2.Incremental {
			t.Fatalf("compress=%v: incremental build not taken", compress)
		}
		for _, name := range []string{LabelsFileName, "shard-a.fsdl", "shard-b.fsdl"} {
			if !bytes.Equal(readGenFile(t, want.Dir, name), readGenFile(t, res2.Dir, name)) {
				t.Fatalf("compress=%v: %s differs from full FSDL3 build", compress, name)
			}
		}
		if _, err := labelstore.ReadManifestDir(res2.Dir); err != nil {
			t.Fatalf("compress=%v: FSDL3 generation fails manifest verification: %v", compress, err)
		}
		st, err := LoadGenerationStore(res2.Dir)
		if err != nil {
			t.Fatal(err)
		}
		if st.Format() != 3 || st.Compressed() != compress {
			t.Fatalf("compress=%v: reloaded generation format=%d compressed=%v", compress, st.Format(), st.Compressed())
		}
	}
}

// TestIncrementalCompactFormatUpgrade: switching a pipeline from FSDL2
// generations to -format fsdl3 must rewrite even clean partitions —
// hard-linking the old FSDL2 file forward would break the invariant
// that identical inputs yield identical generations.
func TestIncrementalCompactFormatUpgrade(t *testing.T) {
	base := gen.Grid2D(6, 5)
	parts := map[string][]int{"s0": {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, "s1": {10, 15, 20, 25, 29}}
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
	snap, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	opts := CompactOptions{
		Epsilon: 2.0, Partitions: parts, Format: 3, Compress: true,
		Prev: &PrevGeneration{
			Generation: res1.Snapshot.Generation,
			Dir:        res1.Dir,
			Scheme:     res1.Scheme,
			Store:      res1.Store,
			Partitions: parts,
		},
	}
	res2, err := CompactSnapshot(snap, t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for name := range parts {
		enc, err := labelstore.SniffEncoding(filepath.Join(res2.Dir, name+".fsdl"))
		if err != nil {
			t.Fatal(err)
		}
		if enc.Version != 3 || !enc.Compressed {
			t.Fatalf("partition %s carried forward as %+v, want fresh compressed FSDL3", name, enc)
		}
	}
	// And the reverse precondition: compression without FSDL3 is a
	// configuration error, not a silent downgrade.
	if _, err := CompactSnapshot(snap, t.TempDir(), CompactOptions{Epsilon: 2.0, Format: 2, Compress: true}); err == nil {
		t.Fatal("Compress with FSDL2 accepted")
	}
	if _, err := CompactSnapshot(snap, t.TempDir(), CompactOptions{Epsilon: 2.0, Format: 7}); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// TestIncrementalCompactLinkedPartition: a partition with no dirty
// vertex is hard-linked from the previous generation — when that file is
// the file this build would write. The graph is two components, a grid
// that takes a mutation and a path that cannot be reached from it, each
// its own partition: the path's labels are clean under every mutation of
// the grid. An FSDL2 or uncompressed FSDL3 partition of clean records is
// then the same bytes and is linked. A factored partition is not: it
// embeds the level graphs, which hold the graph, which changed — linking
// it would carry the previous generation's level graphs into this one
// and break incremental ≡ full. So whatever is done per format, every
// file of the incremental generation equals the full build's, at every
// worker count; linking without comparing the level graphs fails that.
func TestIncrementalCompactLinkedPartition(t *testing.T) {
	const grid, tail = 20, 12
	b := graph.NewBuilder(grid + tail)
	gen.Grid2D(5, 4).ForEachEdge(b.AddEdge)
	for v := grid; v+1 < grid+tail; v++ {
		b.AddEdge(v, v+1)
	}
	base := b.MustBuild()
	parts := map[string][]int{}
	for v := 0; v < grid+tail; v++ {
		name := "grid"
		if v >= grid {
			name = "path"
		}
		parts[name] = append(parts[name], v)
	}
	for _, f := range []struct {
		name     string
		format   int
		compress bool
		linked   bool
	}{
		{"FSDL2", 2, false, true},
		{"FSDL3", 3, false, true},
		{"FSDL3c", 3, true, false},
	} {
		for _, workers := range []int{1, 4} {
			full := CompactOptions{Epsilon: 2, Workers: workers, Partitions: parts, Format: f.format, Compress: f.compress}
			p, err := Open(Config{Base: base})
			if err != nil {
				t.Fatal(err)
			}
			res1, err := Compact(p, t.TempDir(), full)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Commit(res1.Snapshot); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Apply([]Mutation{{Op: MutDelete, U: 6, V: 7}}); err != nil {
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
				Partitions: parts,
			}
			res2, err := CompactSnapshot(snap, t.TempDir(), inc)
			if err != nil {
				t.Fatal(err)
			}
			if !res2.Incremental || res2.PartitionDirty["path"] != 0 || res2.PartitionDirty["grid"] == 0 {
				t.Fatalf("%s: fixture: incremental=%v, dirty per partition %v — want a clean path and a dirty grid", f.name, res2.Incremental, res2.PartitionDirty)
			}
			for _, name := range []string{LabelsFileName, "grid.fsdl", "path.fsdl"} {
				if !bytes.Equal(readGenFile(t, want.Dir, name), readGenFile(t, res2.Dir, name)) {
					t.Errorf("%s, %d workers: %s differs from the full build", f.name, workers, name)
				}
			}
			oldFi, err := os.Stat(filepath.Join(res1.Dir, "path.fsdl"))
			if err != nil {
				t.Fatal(err)
			}
			newFi, err := os.Stat(filepath.Join(res2.Dir, "path.fsdl"))
			if err != nil {
				t.Fatal(err)
			}
			if os.SameFile(oldFi, newFi) != f.linked {
				t.Errorf("%s: clean partition linked=%v, want %v", f.name, !f.linked, f.linked)
			}
			if f.compress {
				if a, b := res1.Store.Encoding(), res2.Store.Encoding(); !a.Factored || !b.Factored || a.LevelsCRC == b.LevelsCRC {
					t.Errorf("%s: generations' encodings %+v → %+v: want factored stores over different level graphs", f.name, a, b)
				}
			}
			if _, err := labelstore.ReadManifestDir(res2.Dir); err != nil {
				t.Errorf("%s: incremental generation fails manifest verification: %v", f.name, err)
			}
		}
	}
}
