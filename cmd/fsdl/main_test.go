package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"fsdl"
	"fsdl/internal/labelstore"
)

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(args, &buf)
	return buf.String(), err
}

func genGraphFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.txt")
	if _, err := runCLI(t, "gen", "-kind", "grid", "-size", "6", "-out", path); err != nil {
		t.Fatal(err)
	}
	return path
}

// saveFSDL2 writes every label of the graph at gpath (ε = 2) to out as
// an FSDL2 stream — the container fsdl reads but no longer writes from a
// scheme, as a store an older fsdl wrote — and returns the scheme.
func saveFSDL2(t *testing.T, gpath, out string) *fsdl.Scheme {
	t.Helper()
	g, err := loadGraph(gpath)
	if err != nil {
		t.Fatal(err)
	}
	s, err := fsdl.Build(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	err = labelstore.Save(f, s, nil)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCLIMissingSubcommand(t *testing.T) {
	if _, err := runCLI(t); err == nil {
		t.Error("no subcommand must error")
	}
	if _, err := runCLI(t, "bogus"); err == nil {
		t.Error("unknown subcommand must error")
	}
}

func TestCLIGenAllKinds(t *testing.T) {
	for _, kind := range []string{"grid", "path", "cycle", "rgg", "road", "tree"} {
		out, err := runCLI(t, "gen", "-kind", kind, "-size", "8")
		if err != nil {
			t.Fatalf("gen %s: %v", kind, err)
		}
		if len(out) == 0 {
			t.Fatalf("gen %s produced no output", kind)
		}
	}
	if _, err := runCLI(t, "gen", "-kind", "nope"); err == nil {
		t.Error("unknown kind must error")
	}
}

func TestCLIStats(t *testing.T) {
	path := genGraphFile(t)
	out, err := runCLI(t, "stats", "-in", path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"n=36", "doubling dimension", "label bits"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
}

func TestCLILabel(t *testing.T) {
	path := genGraphFile(t)
	out, err := runCLI(t, "label", "-in", path, "-v", "7")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "label of 7") {
		t.Errorf("label output wrong:\n%s", out)
	}
	if _, err := runCLI(t, "label", "-in", path, "-v", "99"); err == nil {
		t.Error("out-of-range vertex must error")
	}
}

func TestCLIQuery(t *testing.T) {
	path := genGraphFile(t)
	out, err := runCLI(t, "query", "-in", path, "-s", "0", "-t", "35", "-fail", "7,14")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "estimated distance") {
		t.Errorf("query output wrong:\n%s", out)
	}
	// Sealed corner reports disconnection.
	out, err = runCLI(t, "query", "-in", path, "-s", "0", "-t", "35", "-fail", "1,6")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "DISCONNECTED") {
		t.Errorf("expected disconnection report:\n%s", out)
	}
	if _, err := runCLI(t, "query", "-in", path, "-fail", "xyz"); err == nil {
		t.Error("bad fault list must error")
	}
	if _, err := runCLI(t, "query", "-in", path, "-failedge", "1"); err == nil {
		t.Error("bad edge fault must error")
	}
}

func TestCLIRoute(t *testing.T) {
	path := genGraphFile(t)
	out, err := runCLI(t, "route", "-in", path, "-s", "0", "-t", "35", "-fail", "14")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "route 0 -> 35") {
		t.Errorf("route output wrong:\n%s", out)
	}
}

func TestCLIVerify(t *testing.T) {
	path := genGraphFile(t)
	out, err := runCLI(t, "verify", "-in", path, "-queries", "100")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "all guarantees hold") {
		t.Errorf("verify output wrong:\n%s", out)
	}
}

func TestCLILabelsAndQueryDB(t *testing.T) {
	gpath := genGraphFile(t)
	dbPath := filepath.Join(t.TempDir(), "labels.fsdl")
	if _, err := runCLI(t, "labels", "-in", gpath, "-out", dbPath); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dbPath); err != nil {
		t.Fatal("label store not written")
	}
	out, err := runCLI(t, "querydb", "-db", dbPath, "-s", "0", "-t", "35", "-fail", "7")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "answered offline") {
		t.Errorf("querydb output wrong:\n%s", out)
	}
	// Region bundle: out-of-region queries error.
	regPath := filepath.Join(t.TempDir(), "region.fsdl")
	if _, err := runCLI(t, "labels", "-in", gpath, "-out", regPath, "-region", "14", "-radius", "2"); err != nil {
		t.Fatal(err)
	}
	if _, err := runCLI(t, "querydb", "-db", regPath, "-s", "0", "-t", "35"); err == nil {
		t.Error("out-of-region query must error")
	}
}

func TestCLIQueryDBPath(t *testing.T) {
	gpath := genGraphFile(t)
	dbPath := filepath.Join(t.TempDir(), "labels.fsdl")
	if _, err := runCLI(t, "labels", "-in", gpath, "-out", dbPath); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, "querydb", "-db", dbPath, "-s", "0", "-t", "35", "-fail", "7", "-path")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "path (") || !strings.Contains(out, " 0 ->") || !strings.Contains(out, "-> 35") {
		t.Errorf("querydb -path output missing witness walk:\n%s", out)
	}
	// The walk must also come back in salvage mode.
	out, err = runCLI(t, "querydb", "-db", dbPath, "-s", "0", "-t", "35", "-fail", "7", "-salvage", "-path")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "path (") || !strings.Contains(out, "-> 35") {
		t.Errorf("querydb -salvage -path output missing witness walk:\n%s", out)
	}
}

// TestCLIQueryDBSalvage: one flipped byte mid-way through an FSDL2
// stream fails a strict load whole, and -salvage answers around it; in a
// factored file written by `fsdl labels`, a flipped byte in the last
// record (vertex 35) fails any strict query that reads it, and -salvage
// answers with 35 as a lost fault label, an upper bound.
func TestCLIQueryDBSalvage(t *testing.T) {
	gpath := genGraphFile(t)
	dbPath := filepath.Join(t.TempDir(), "labels.fsdl")
	saveFSDL2(t, gpath, dbPath)
	// -salvage on an intact store answers in exact mode, no salvage banner.
	out, err := runCLI(t, "querydb", "-db", dbPath, "-s", "0", "-t", "35", "-fail", "7", "-salvage")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "status: EXACT") || strings.Contains(out, "salvage:") {
		t.Errorf("intact-store salvage output wrong:\n%s", out)
	}
	// Corrupt one byte mid-file: strict load fails whole, salvage answers.
	data, err := os.ReadFile(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x20
	if err := os.WriteFile(dbPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCLI(t, "querydb", "-db", dbPath, "-s", "0", "-t", "35", "-fail", "7"); err == nil {
		t.Error("strict querydb must fail on a corrupt store")
	}
	out, err = runCLI(t, "querydb", "-db", dbPath, "-s", "0", "-t", "35", "-fail", "7", "-salvage")
	if err != nil {
		t.Fatalf("salvage querydb failed: %v", err)
	}
	if !strings.Contains(out, "salvage: kept") {
		t.Errorf("missing salvage banner:\n%s", out)
	}
	if !strings.Contains(out, "estimated distance") && !strings.Contains(out, "no answer") {
		t.Errorf("salvage query produced no verdict:\n%s", out)
	}
	if strings.Contains(out, "estimated distance") && !strings.Contains(out, "status: ") {
		t.Errorf("salvage verdict missing status line:\n%s", out)
	}

	factored := filepath.Join(t.TempDir(), "labels.fsdl")
	if _, err := runCLI(t, "labels", "-in", gpath, "-out", factored); err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile(factored); err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0x20
	if err := os.WriteFile(factored, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCLI(t, "querydb", "-db", factored, "-s", "0", "-t", "34", "-fail", "35"); err == nil {
		t.Error("strict querydb must fail on a corrupt record it reads")
	}
	out, err = runCLI(t, "querydb", "-db", factored, "-s", "0", "-t", "34", "-fail", "35", "-salvage")
	if err != nil {
		t.Fatalf("salvage querydb of the factored store failed: %v", err)
	}
	if !strings.Contains(out, "salvage: kept 35/36") || !strings.Contains(out, "status: DEGRADED") {
		t.Errorf("factored salvage output wrong:\n%s", out)
	}
}

func TestCLIQueryDBSalvageUnreadableStore(t *testing.T) {
	gpath := genGraphFile(t)
	dbPath := filepath.Join(t.TempDir(), "labels.fsdl")
	saveFSDL2(t, gpath, dbPath)
	// Truncate to just the header: the count still promises records but
	// none can be salvaged. Even -salvage must exit non-zero, not report
	// success over an empty store.
	data, err := os.ReadFile(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dbPath, data[:7], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = runCLI(t, "querydb", "-db", dbPath, "-s", "0", "-t", "35", "-salvage")
	if err == nil {
		t.Fatal("querydb -salvage must fail when zero records are salvaged")
	}
	if !strings.Contains(err.Error(), "unreadable") {
		t.Errorf("error should say the store is unreadable, got: %v", err)
	}
}

func TestCLITrace(t *testing.T) {
	out, err := runCLI(t, "trace", "-size", "7", "-fail", "24")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"estimate", "S", "T", "X", "waypoints"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIReadsStdinFallbackError(t *testing.T) {
	// Missing file errors cleanly.
	if _, err := runCLI(t, "stats", "-in", "/nonexistent/file.txt"); err == nil {
		t.Error("missing input file must error")
	}
}

func TestCLIBuildSchemeAndQueryScheme(t *testing.T) {
	gpath := genGraphFile(t)
	spath := filepath.Join(t.TempDir(), "s.fsdls")
	out, err := runCLI(t, "buildscheme", "-in", gpath, "-out", spath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "preprocessed scheme") {
		t.Errorf("buildscheme output wrong:\n%s", out)
	}
	out, err = runCLI(t, "query", "-scheme", spath, "-s", "0", "-t", "35", "-fail", "7")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "estimated distance") {
		t.Errorf("scheme-backed query wrong:\n%s", out)
	}
	if _, err := runCLI(t, "query", "-scheme", "/nonexistent.fsdls", "-s", "0", "-t", "1"); err == nil {
		t.Error("missing scheme file must error")
	}
}

func TestCLIWQuery(t *testing.T) {
	grPath := filepath.Join(t.TempDir(), "mini.gr")
	gr := "c test\np sp 4 6\na 1 2 3\na 2 3 5\na 3 4 2\na 4 1 7\na 1 3 1\na 2 4 9\n"
	if err := os.WriteFile(grPath, []byte(gr), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, "wquery", "-in", grPath, "-s", "0", "-t", "3", "-fail", "2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "estimated travel cost") {
		t.Errorf("wquery output wrong:\n%s", out)
	}
	// Disconnect junction 3 entirely: faults on all its neighbors.
	out, err = runCLI(t, "wquery", "-in", grPath, "-s", "0", "-t", "3", "-fail", "1,2", "-failedge", "0-3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "DISCONNECTED") {
		t.Errorf("expected disconnection:\n%s", out)
	}
	if _, err := runCLI(t, "wquery", "-in", "/nonexistent.gr"); err == nil {
		t.Error("missing file must error")
	}
}

// TestCLIPartitionRoundTrip: `fsdl partition` splits a store into
// per-shard stores whose union re-serves every label byte-identically
// with the original; the store `fsdl labels` writes is factored, and so
// is every partition cut from it.
func TestCLIPartitionRoundTrip(t *testing.T) {
	gpath := genGraphFile(t)
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "labels.fsdl")
	if _, err := runCLI(t, "labels", "-in", gpath, "-out", dbPath); err != nil {
		t.Fatal(err)
	}
	members := filepath.Join(dir, "members.txt")
	if err := os.WriteFile(members, []byte("replication 2\nshard0 127.0.0.1:9000\nshard1 127.0.0.1:9001\nshard2 127.0.0.1:9002\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	shardDir := filepath.Join(dir, "shards")
	out, err := runCLI(t, "partition", "-db", dbPath, "-members", members, "-out", shardDir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "into 3 shards (replication 2)") {
		t.Fatalf("partition summary missing: %s", out)
	}

	orig := loadStoreFile(t, dbPath)
	// Union of partitions must hold every original record with the very
	// same bytes (and, with replication 2, each exactly twice).
	copies := make(map[int]int)
	for i := 0; i < 3; i++ {
		ps := loadStoreFile(t, filepath.Join(shardDir, "shard"+strconv.Itoa(i)+".fsdl"))
		if enc := ps.Encoding(); !enc.Factored || enc.LevelsCRC != orig.Encoding().LevelsCRC {
			t.Fatalf("shard %d: encoding %+v, want a factored file under the level graphs of the store it was cut from", i, enc)
		}
		if ps.NumVertices() != orig.NumVertices() {
			t.Fatalf("shard %d declares n=%d, want %d", i, ps.NumVertices(), orig.NumVertices())
		}
		for _, v := range ps.Vertices() {
			wantBits, wantData, ok := orig.Raw(v)
			if !ok {
				t.Fatalf("shard %d holds vertex %d the original lacks", i, v)
			}
			gotBits, gotData, _ := ps.Raw(v)
			if gotBits != wantBits || !bytes.Equal(gotData, wantData) {
				t.Fatalf("label bytes for vertex %d differ after partitioning", v)
			}
			copies[v]++
		}
	}
	for _, v := range orig.Vertices() {
		if copies[v] != 2 {
			t.Fatalf("vertex %d held by %d shards, want replication 2", v, copies[v])
		}
	}
	// And a single-vertex sanity query through one partition must agree
	// with the original store byte-for-byte implies answer-for-answer;
	// cross-check via querydb on the original.
	if _, err := runCLI(t, "querydb", "-db", dbPath, "-s", "0", "-t", "35"); err != nil {
		t.Fatal(err)
	}

	if _, err := runCLI(t, "partition", "-db", dbPath, "-members", filepath.Join(dir, "missing.txt"), "-out", shardDir); err == nil {
		t.Fatal("partition with missing membership file must error")
	}
}

func loadStoreFile(t *testing.T, path string) *labelstore.Store {
	t.Helper()
	st, err := labelstore.Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestCLIFormat3Pipeline: `fsdl labels` → `fsdl stats <store>` →
// `fsdl partition` → `fsdl querydb` — the factored FSDL3 path end to end
// through the CLI, beside an FSDL2 store as an older fsdl wrote it. No
// subcommand takes -format: the container follows the source, so the
// partitions of the factored store are factored and those of the FSDL2
// store FSDL2, and a region bundle is factored too.
func TestCLIFormat3Pipeline(t *testing.T) {
	dir := t.TempDir()
	// Big enough that the FSDL3 page-aligned header+index (8 KiB floor)
	// stops masking the payload compression.
	gpath := filepath.Join(dir, "g.txt")
	if _, err := runCLI(t, "gen", "-kind", "grid", "-size", "16", "-out", gpath); err != nil {
		t.Fatal(err)
	}
	dbPath := filepath.Join(dir, "labels2.fsdl")
	db3Path := filepath.Join(dir, "labels.fsdl")
	s := saveFSDL2(t, gpath, dbPath)
	if _, err := runCLI(t, "labels", "-in", gpath, "-out", db3Path); err != nil {
		t.Fatal(err)
	}
	fi2, err := os.Stat(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	fi3, err := os.Stat(db3Path)
	if err != nil {
		t.Fatal(err)
	}
	if fi3.Size() >= fi2.Size() {
		t.Fatalf("FSDL3 store (%d bytes) not smaller than FSDL2 (%d bytes)", fi3.Size(), fi2.Size())
	}

	// Store-mode stats reports the container and the histogram.
	out, err := runCLI(t, "stats", db3Path)
	if err != nil {
		t.Fatal(err)
	}
	// An FSDL3 store is factored: the level graphs once
	// (20 759 bytes for grid16 at ε = 2), the balls per record, and the
	// two split per vertex next to the totals.
	for _, want := range []string{"FSDL3 compressed, factored, mmap", "bytes/vertex", "index/framing overhead", "record size histogram",
		"level graphs: 20759 bytes, once per file; balls: 32776 bytes (81.1 + 128.0 bytes/vertex)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats output missing %q:\n%s", want, out)
		}
	}
	if out2, err := runCLI(t, "stats", dbPath); err != nil || !strings.Contains(out2, "FSDL2") || strings.Contains(out2, "level graphs") {
		t.Fatalf("stats on FSDL2 store: %v\n%s", err, out2)
	}

	// Same answers from both containers.
	q := func(db string, extra ...string) string {
		t.Helper()
		args := append([]string{"querydb", "-db", db, "-s", "0", "-t", "35", "-fail", "7,8"}, extra...)
		out, err := runCLI(t, args...)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if want, got := q(dbPath), q(db3Path); want != got {
		t.Fatalf("querydb answers differ across containers:\n%s\nvs\n%s", want, got)
	}

	// Partitions keep the container of the store they are cut from and
	// round-trip the same record bytes.
	members := filepath.Join(dir, "members.txt")
	if err := os.WriteFile(members, []byte("replication 1\nshard0 127.0.0.1:9000\nshard1 127.0.0.1:9001\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	orig := loadStoreFile(t, dbPath)
	for _, db := range []string{db3Path, dbPath} {
		from := loadStoreFile(t, db).Encoding()
		shardDir := filepath.Join(dir, "shards-"+filepath.Base(db))
		if _, err := runCLI(t, "partition", "-db", db, "-members", members, "-out", shardDir); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			path := filepath.Join(shardDir, "shard"+strconv.Itoa(i)+".fsdl")
			ps := loadStoreFile(t, path)
			if enc := ps.Encoding(); enc.Version != from.Version || enc.Factored != from.Factored || enc.LevelsCRC != from.LevelsCRC {
				t.Fatalf("partition %s: encoding %+v, want that of the store it was cut from, %+v", path, enc, from)
			}
			for _, v := range ps.Vertices() {
				wantBits, wantData, ok := orig.Raw(v)
				gotBits, gotData, _ := ps.Raw(v)
				if !ok || gotBits != wantBits || !bytes.Equal(gotData, wantData) {
					t.Fatalf("label bytes for vertex %d differ through partition %s", v, path)
				}
			}
		}
	}

	// A region bundle is factored and holds the region's records.
	bundle := filepath.Join(dir, "region.fsdl")
	if _, err := runCLI(t, "labels", "-in", gpath, "-out", bundle, "-region", "0", "-radius", "2"); err != nil {
		t.Fatal(err)
	}
	b := loadStoreFile(t, bundle)
	region := labelstore.Region(s, 0, 2)
	slices.Sort(region)
	if !b.Encoding().Factored || !slices.Equal(b.Vertices(), region) {
		t.Fatalf("region bundle holds %v (%+v), want the factored records of %v", b.Vertices(), b.Encoding(), region)
	}
	for _, v := range region {
		wantBits, wantData, _ := orig.Raw(v)
		gotBits, gotData, _ := b.Raw(v)
		if gotBits != wantBits || !bytes.Equal(gotData, wantData) {
			t.Fatalf("region bundle record %d differs from the full store's", v)
		}
	}

	for _, args := range [][]string{
		{"labels", "-in", gpath, "-out", db3Path},
		{"partition", "-db", db3Path, "-members", members, "-out", dir},
		{"compact", "-root", dir},
	} {
		if _, err := runCLI(t, append(args, "-format", "fsdl3")...); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -format") {
			t.Errorf("%s -format: %v, want an unknown flag", args[0], err)
		}
	}
}
