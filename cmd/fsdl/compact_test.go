package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fsdl/internal/labelstore"
	"fsdl/internal/liveupdate"
)

// writeWAL journals a mutation batch the way a draining fsdl-serve
// would, so `fsdl compact` has a tail to replay.
func writeWAL(t *testing.T, graphPath, walPath string) {
	t.Helper()
	g, err := loadGraph(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	p, err := liveupdate.Open(liveupdate.Config{Base: g, WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Apply([]liveupdate.Mutation{
		{Op: liveupdate.MutDelete, U: 0, V: 1},
		{Op: liveupdate.MutInsert, U: 0, V: 35},
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCLICompact(t *testing.T) {
	graphPath := genGraphFile(t)
	root := t.TempDir()
	wal := filepath.Join(root, "mutations.wal")
	writeWAL(t, graphPath, wal)

	out, err := runCLI(t, "compact", "-root", root, "-in", graphPath)
	if err != nil {
		t.Fatalf("compact: %v\n%s", err, out)
	}
	if !strings.Contains(out, "2 pending delta edges") || !strings.Contains(out, "generation 2 written") {
		t.Fatalf("compact output:\n%s", out)
	}
	genDir := filepath.Join(root, "gen-0000000002")
	for _, f := range []string{"MANIFEST", "labels.fsdl", "graph.txt"} {
		if _, err := os.Stat(filepath.Join(genDir, f)); err != nil {
			t.Fatalf("generation file %s: %v", f, err)
		}
	}

	// The baked store answers the inserted edge directly.
	q, err := runCLI(t, "querydb", "-db", filepath.Join(genDir, "labels.fsdl"), "-s", "0", "-t", "35")
	if err != nil {
		t.Fatalf("querydb on generation: %v", err)
	}
	if !strings.Contains(q, "avoiding |F|=0: 1 ") {
		t.Fatalf("querydb on compacted store:\n%s", q)
	}

	// A second run replays past the compaction marker: nothing pending.
	out, err = runCLI(t, "compact", "-root", root)
	if err != nil {
		t.Fatalf("re-compact: %v", err)
	}
	if !strings.Contains(out, "nothing to compact") || !strings.Contains(out, "base: generation 2") {
		t.Fatalf("re-compact output:\n%s", out)
	}
}

// TestCLICompactKeepsEpsilon: a root cut at ε = 1, compacted without
// -eps, stays at ε = 1, incrementally too; an explicit -eps re-cuts it,
// which -incremental refuses. A full compaction given -eps never reads
// the newest generation's labels, so a labels file that no longer opens
// does not block the rebuild that replaces it.
func TestCLICompactKeepsEpsilon(t *testing.T) {
	graphPath := genGraphFile(t)
	root := t.TempDir()
	for _, tc := range []struct {
		args     []string
		truncate bool    // break the newest generation's labels file first
		want     float64 // 0: the run is refused
	}{
		{[]string{"-in", graphPath, "-eps", "1"}, false, 1},
		{nil, false, 1},
		{[]string{"-incremental", "-eps", "2"}, false, 0},
		{[]string{"-incremental"}, false, 1},
		{[]string{"-eps", "2"}, true, 2},
	} {
		_, dir, _, err := labelstore.LatestGeneration(root)
		if err != nil {
			t.Fatal(err)
		}
		if tc.truncate {
			breakLabels(t, dir)
		}
		args := append([]string{"compact", "-root", root, "-force"}, tc.args...)
		out, err := runCLI(t, args...)
		if tc.want == 0 {
			if err == nil || !strings.Contains(err.Error(), "-incremental -eps") {
				t.Fatalf("%v: want a refusal of -incremental's -eps before any build, got %v\n%s", args, err, out)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		_, dir, _, err = labelstore.LatestGeneration(root)
		if err != nil {
			t.Fatal(err)
		}
		l, err := loadStoreFile(t, filepath.Join(dir, "labels.fsdl")).Label(0)
		if err != nil {
			t.Fatal(err)
		}
		if l.Epsilon != tc.want {
			t.Fatalf("%v: the labels of %s were built at eps %g, want %g", args, dir, l.Epsilon, tc.want)
		}
	}
}

// breakLabels cuts the labels file of generation directory dir to a
// stub no store opener accepts, and has the manifest vouch for the stub,
// so the generation stays the newest intact one.
func breakLabels(t *testing.T, dir string) {
	t.Helper()
	path := filepath.Join(dir, "labels.fsdl")
	if err := os.Truncate(path, 10); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, labelstore.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	m, err := labelstore.ReadManifest(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if m.File("labels.fsdl").CRC, err = labelstore.FileCRC(path); err != nil {
		t.Fatal(err)
	}
	if err := labelstore.WriteManifestFile(dir, m); err != nil {
		t.Fatal(err)
	}
}

func TestCLICompactPartitions(t *testing.T) {
	graphPath := genGraphFile(t)
	dir := t.TempDir()
	root := filepath.Join(dir, "gens")
	wal := filepath.Join(dir, "mutations.wal")
	writeWAL(t, graphPath, wal)
	members := filepath.Join(dir, "members.txt")
	if err := os.WriteFile(members, []byte("replication 2\nshard0 127.0.0.1:9000\nshard1 127.0.0.1:9001\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := runCLI(t, "compact", "-root", root, "-wal", wal, "-in", graphPath, "-members", members)
	if err != nil {
		t.Fatalf("compact -members: %v\n%s", err, out)
	}
	// Every file of the generation is factored, under one set of level
	// graphs.
	labels := loadStoreFile(t, filepath.Join(root, "gen-0000000002", "labels.fsdl")).Encoding()
	if !labels.Factored {
		t.Fatalf("generation labels: encoding %+v, want a factored FSDL3 file", labels)
	}
	for _, f := range []string{"shard0.fsdl", "shard1.fsdl"} {
		if enc := loadStoreFile(t, filepath.Join(root, "gen-0000000002", f)).Encoding(); enc != labels {
			t.Fatalf("partition file %s: encoding %+v, want the labels' %+v", f, enc, labels)
		}
		if !strings.Contains(out, f) {
			t.Fatalf("output missing %s:\n%s", f, out)
		}
	}
}

// TestCLICompactIncremental: a second compaction with -incremental
// builds delta-scoped off the newest generation — same files, same
// partition layout, and the baked store answers for the new delta.
func TestCLICompactIncremental(t *testing.T) {
	graphPath := genGraphFile(t)
	dir := t.TempDir()
	root := filepath.Join(dir, "gens")
	wal := filepath.Join(dir, "mutations.wal")
	writeWAL(t, graphPath, wal)
	members := filepath.Join(dir, "members.txt")
	if err := os.WriteFile(members, []byte("replication 2\nshard0 127.0.0.1:9000\nshard1 127.0.0.1:9001\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// -incremental with no generation yet is an explicit error.
	if _, err := runCLI(t, "compact", "-root", root, "-wal", wal, "-in", graphPath, "-incremental"); err == nil {
		t.Fatal("-incremental without a base generation accepted")
	}

	if out, err := runCLI(t, "compact", "-root", root, "-wal", wal, "-in", graphPath, "-members", members); err != nil {
		t.Fatalf("seed compact: %v\n%s", err, out)
	}

	// Journal a fresh tail on top of generation 2.
	base, err := liveupdate.LoadGenerationBase(filepath.Join(root, "gen-0000000002"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := liveupdate.Open(liveupdate.Config{Base: base, WALPath: wal, Generation: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Apply([]liveupdate.Mutation{{Op: liveupdate.MutInsert, U: 2, V: 33}}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	out, err := runCLI(t, "compact", "-root", root, "-wal", wal, "-members", members, "-incremental")
	if err != nil {
		t.Fatalf("compact -incremental: %v\n%s", err, out)
	}
	if !strings.Contains(out, "delta-scoped rebuild off generation 2") ||
		!strings.Contains(out, "labels re-extracted") ||
		!strings.Contains(out, "generation 3 written") {
		t.Fatalf("incremental output:\n%s", out)
	}
	genDir := filepath.Join(root, "gen-0000000003")
	for _, f := range []string{"MANIFEST", "labels.fsdl", "graph.txt", "shard0.fsdl", "shard1.fsdl"} {
		if _, err := os.Stat(filepath.Join(genDir, f)); err != nil {
			t.Fatalf("generation file %s: %v", f, err)
		}
	}
	// The delta-scoped store answers for the freshly inserted edge.
	q, err := runCLI(t, "querydb", "-db", filepath.Join(genDir, "labels.fsdl"), "-s", "2", "-t", "33")
	if err != nil {
		t.Fatalf("querydb on incremental generation: %v", err)
	}
	if !strings.Contains(q, "avoiding |F|=0: 1 ") {
		t.Fatalf("querydb on incremental store:\n%s", q)
	}
}

func TestCLICompactErrors(t *testing.T) {
	root := t.TempDir()
	if _, err := runCLI(t, "compact"); err == nil {
		t.Error("compact without -root must error")
	}
	if _, err := runCLI(t, "compact", "-root", root); err == nil {
		t.Error("compact with no generation and no -in must error")
	}
}
