package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fsdl/internal/graph"
	"fsdl/internal/labelstore"
	"fsdl/internal/liveupdate"
)

// genDirs counts gen-* generation directories under root.
func genDirs(t *testing.T, root string) int {
	t.Helper()
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "gen-") {
			n++
		}
	}
	return n
}

// TestCompactNoopFastPath: an empty delta short-circuits — no build, no
// generation bump, Noop set — while a real delta still compacts, and a
// concurrent compaction is the only conflict.
func TestCompactNoopFastPath(t *testing.T) {
	s, _, root := newLiveServer(t, 4)

	res, err := s.Compact()
	if err != nil {
		t.Fatalf("noop compact: %v", err)
	}
	if !res.Noop || res.Generation != 1 || res.Dir != "" || res.Incremental {
		t.Fatalf("noop result %+v", res)
	}
	if n := genDirs(t, root); n != 0 {
		t.Fatalf("noop compaction wrote %d generation dirs", n)
	}

	// A real delta compacts normally.
	if _, err := s.Mutate([]liveupdate.Mutation{{Op: liveupdate.MutDelete, U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}
	res, err = s.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if res.Noop || res.Generation != 2 || res.Dir == "" {
		t.Fatalf("compact result %+v", res)
	}
	if n := genDirs(t, root); n != 1 {
		t.Fatalf("%d generation dirs after one real compaction", n)
	}

	// Empty again: noop reports the new current generation.
	res, err = s.Compact()
	if err != nil || !res.Noop || res.Generation != 2 {
		t.Fatalf("second noop: %+v err=%v", res, err)
	}

	// The no-op path still respects the single-compaction slot.
	if !s.live.BeginCompaction() {
		t.Fatal("compaction slot unavailable")
	}
	if _, err := s.Compact(); !errors.Is(err, ErrCompacting) {
		t.Fatalf("concurrent compact error = %v, want ErrCompacting", err)
	}
	s.live.EndCompaction()
}

// partitionedSource is a local store that names shard partitions the way
// a cluster frontend does, for compactions to write.
type partitionedSource struct {
	*storeSource
	parts map[string][]int
}

func (s partitionedSource) Partitions() map[string][]int { return s.parts }

// TestCompactModeSelection walks the three modes against a local store
// whose source names two partitions: forced incremental fails without a
// base, a full build seeds one, and auto then builds delta-scoped with
// every partition file written and answers that stay exact and sound.
// The store served first is FSDL2, and CompactFormat is 0: every
// generation is factored FSDL3 all the same.
func TestCompactModeSelection(t *testing.T) {
	g, st := testStore(t, 6, 6, 2)
	root := t.TempDir()
	n := g.NumVertices()
	parts := map[string][]int{}
	for v := 0; v < n; v++ {
		name := "a"
		if v >= n/2 {
			name = "b"
		}
		parts[name] = append(parts[name], v)
	}
	p, err := liveupdate.Open(liveupdate.Config{Base: g, WALPath: filepath.Join(root, "mutations.wal")})
	if err != nil {
		t.Fatal(err)
	}
	src := partitionedSource{newStoreSource(st), parts}
	s := newTestServer(t, Config{Source: src, Live: p, LiveRoot: root, CacheCapacity: -1})
	factored := func(dir string) {
		t.Helper()
		for _, name := range []string{liveupdate.LabelsFileName, "a.fsdl", "b.fsdl"} {
			ps, err := labelstore.Open(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			enc := ps.Encoding()
			ps.Close()
			if enc.Version != 3 || !enc.Factored {
				t.Fatalf("%s of %s is %+v, want a factored FSDL3 file", name, dir, enc)
			}
		}
	}

	if _, err := s.CompactMode("sideways"); err == nil {
		t.Fatal("unknown mode accepted")
	}

	if _, err := s.Mutate([]liveupdate.Mutation{{Op: liveupdate.MutInsert, U: 0, V: int32(n - 1)}}); err != nil {
		t.Fatal(err)
	}
	// Forced incremental has no retained base yet.
	if _, err := s.CompactMode(CompactIncremental); err == nil {
		t.Fatal("incremental compaction without a base accepted")
	}

	res, err := s.CompactMode(CompactFull)
	if err != nil {
		t.Fatalf("full compact: %v", err)
	}
	if res.Incremental || res.Generation != 2 || res.DirtyLabels != n {
		t.Fatalf("full compact result %+v", res)
	}
	factored(res.Dir)

	// Auto now builds delta-scoped off the retained generation 2.
	if _, err := s.Mutate([]liveupdate.Mutation{{Op: liveupdate.MutDelete, U: 0, V: int32(n - 1)}}); err != nil {
		t.Fatal(err)
	}
	snap, err := s.live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	res, err = s.CompactMode(CompactAuto)
	if err != nil {
		t.Fatalf("auto compact: %v", err)
	}
	if !res.Incremental || res.Generation != 3 || res.DirtyLabels < 1 || res.DirtyLabels > n {
		t.Fatalf("auto compact result %+v", res)
	}
	factored(res.Dir)
	m, err := labelstore.ReadManifestDir(res.Dir)
	if err != nil {
		t.Fatalf("generation 3 manifest: %v", err)
	}
	if m.Generation != 3 {
		t.Fatalf("manifest generation %d", m.Generation)
	}
	for name, ids := range parts {
		if f := m.File(name + ".fsdl"); f == nil || f.Records != len(ids) {
			t.Fatalf("incremental generation's partition %s: manifest entry %+v, want %d records", name, f, len(ids))
		}
	}

	// Answers after the incremental swap are exact and match the
	// mutated graph.
	ctx := context.Background()
	for _, pair := range [][2]int{{0, n - 1}, {1, n / 2}} {
		want, ok := bfsAvoid(snap.Graph, pair[0], pair[1], graph.NewFaultSet())
		a, err := s.Distance(ctx, pair[0], pair[1], nil)
		if err != nil || a.Error != "" || !a.Exact {
			t.Fatalf("post-incremental (%d,%d): %+v err=%v", pair[0], pair[1], a, err)
		}
		if a.Connected != ok || (ok && a.Dist < want) {
			t.Fatalf("post-incremental (%d,%d): %+v, truth %d/%v", pair[0], pair[1], a, want, ok)
		}
	}

	// Forced incremental works now that a base is retained.
	if _, err := s.Mutate([]liveupdate.Mutation{{Op: liveupdate.MutInsert, U: 1, V: int32(n - 2)}}); err != nil {
		t.Fatal(err)
	}
	res, err = s.CompactMode(CompactIncremental)
	if err != nil || !res.Incremental || res.Generation != 4 {
		t.Fatalf("forced incremental: %+v err=%v", res, err)
	}
}

// recordingSwapSource records the generation of every swap a
// compaction dispatched. Labels are served from the store of whatever
// generation was swapped in last, loaded from the generation root like
// a real frontend's shards would.
type recordingSwapSource struct {
	*storeSource
	root  string
	swaps []uint64
}

func (s *recordingSwapSource) SwapGeneration(gen uint64, _ *labelstore.Store) (uint64, error) {
	s.swaps = append(s.swaps, gen)
	st, err := liveupdate.LoadGenerationStore(filepath.Join(s.root, labelstore.GenerationDirName(gen)))
	if err != nil {
		return 0, err
	}
	return s.storeSource.SwapGeneration(gen, st)
}

// TestCompactSwapDispatch: a compaction hands its source exactly one
// swap, to the generation it built — the same call whether the build
// was full or incremental.
func TestCompactSwapDispatch(t *testing.T) {
	g, st := testStore(t, 6, 6, 2)
	root := t.TempDir()
	n := g.NumVertices()
	p, err := liveupdate.Open(liveupdate.Config{Base: g})
	if err != nil {
		t.Fatal(err)
	}
	src := &recordingSwapSource{storeSource: newStoreSource(st), root: root}
	s := newTestServer(t, Config{Source: src, Live: p, LiveRoot: root, CacheCapacity: -1})

	if _, err := s.Mutate([]liveupdate.Mutation{{Op: liveupdate.MutInsert, U: 0, V: int32(n - 1)}}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Compact()
	if err != nil || res.Incremental {
		t.Fatalf("full compact: %+v err=%v", res, err)
	}
	if want := []uint64{res.Generation}; !slices.Equal(src.swaps, want) {
		t.Fatalf("full build dispatched swaps %v, want %v", src.swaps, want)
	}

	if _, err := s.Mutate([]liveupdate.Mutation{{Op: liveupdate.MutDelete, U: 0, V: int32(n - 1)}}); err != nil {
		t.Fatal(err)
	}
	res2, err := s.Compact()
	if err != nil {
		t.Fatalf("incremental compact: %v", err)
	}
	if !res2.Incremental {
		t.Fatalf("second compaction not incremental: %+v", res2)
	}
	if want := []uint64{res.Generation, res2.Generation}; !slices.Equal(src.swaps, want) {
		t.Fatalf("incremental build dispatched swaps %v, want %v", src.swaps, want)
	}
}

// TestCompactHTTPModes drives /v1/compact's optional body: bare POST
// (mode auto, noop on an empty delta), explicit modes, the 400s for
// junk, and the 409 while a compaction holds the slot.
func TestCompactHTTPModes(t *testing.T) {
	s, _, _ := newLiveServer(t, 6)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Bare POST with no body at all: the historical form, now a noop
	// against an empty delta.
	resp, err := http.Post(ts.URL+"/v1/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cr CompactResult
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !cr.Noop || cr.Generation != 1 {
		t.Fatalf("bare noop compact: %d %+v", resp.StatusCode, cr)
	}

	// Junk modes and junk bodies are 400s.
	if resp, body := postJSON(t, ts.URL+"/v1/compact", map[string]any{"mode": "sideways"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad mode: %d %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/compact", map[string]any{"mood": "auto"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %d %s", resp.StatusCode, body)
	}
	// Forced incremental with no retained base: 400, not a full build.
	if _, err := s.Mutate([]liveupdate.Mutation{{Op: liveupdate.MutDelete, U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/compact", map[string]any{"mode": "incremental"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("incremental without base: %d %s", resp.StatusCode, body)
	}

	// Explicit full mode compacts the pending delta.
	resp2, body := postJSON(t, ts.URL+"/v1/compact", map[string]any{"mode": "full"})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("full compact: %d %s", resp2.StatusCode, body)
	}
	cr = CompactResult{}
	if err := json.Unmarshal(body, &cr); err != nil || cr.Generation != 2 || cr.Noop || cr.Incremental {
		t.Fatalf("full compact response %s (err %v)", body, err)
	}

	// Auto mode over HTTP takes the incremental path off the retained
	// base.
	if _, err := s.Mutate([]liveupdate.Mutation{{Op: liveupdate.MutInsert, U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}
	resp2, body = postJSON(t, ts.URL+"/v1/compact", map[string]any{"mode": "auto"})
	cr = CompactResult{}
	if resp2.StatusCode != http.StatusOK || json.Unmarshal(body, &cr) != nil || !cr.Incremental || cr.Generation != 3 {
		t.Fatalf("auto compact: %d %s", resp2.StatusCode, body)
	}

	// While the slot is held, /v1/compact is a 409.
	if !s.live.BeginCompaction() {
		t.Fatal("compaction slot unavailable")
	}
	resp3, body := postJSON(t, ts.URL+"/v1/compact", nil)
	if resp3.StatusCode != http.StatusConflict {
		t.Fatalf("concurrent compact: %d %s", resp3.StatusCode, body)
	}
	s.live.EndCompaction()
}
