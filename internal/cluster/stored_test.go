package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"fsdl/internal/core"
	"fsdl/internal/frame"
	"fsdl/internal/gen"
	"fsdl/internal/graph"
	"fsdl/internal/labelstore"
	"fsdl/internal/liveupdate"
)

// Labels leave a factored shard as stored — a label's balls, read back
// under the level graphs the frontend fetches once per generation — and
// every other record as canonical bytes. These tests hold the two
// encodings to one label, pin what each costs on the wire, and check
// every guard on the stored path by tampering with what crosses it.

func ringLattice(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
		b.AddEdge(i, (i+2)%n)
	}
	return b.MustBuild()
}

// canonicalGrid6 is every label of grid 6×6 at ε = 2 as an uncompressed
// FSDL3 file, an encoding that is read and no longer written.
const canonicalGrid6 = "../labelstore/testdata/grid6_pr33.fsdl3"

func mustScheme(t testing.TB, g *graph.Graph) *core.Scheme {
	t.Helper()
	s, err := core.BuildScheme(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// factoredFile writes src's records of ids (nil: all) as a factored
// FSDL3 file at path and opens it mapped.
func factoredFile(t testing.TB, path string, src labelstore.Source, ids []int) *labelstore.Store {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	err = labelstore.Write(f, src, ids)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	st, err := labelstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Encoding().Factored {
		t.Fatalf("%s is not factored", path)
	}
	return st
}

// heapCopy returns st's records as a heap FSDL2 store: the same labels,
// served as canonical bytes.
func heapCopy(t testing.TB, st *labelstore.Store) *labelstore.Store {
	t.Helper()
	// A store filled by Put has no level graphs: Write copies it into the
	// self-contained FSDL2 container whatever st's own encoding is.
	filled, err := labelstore.NewEmpty(st.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range st.Vertices() {
		bits, data, _ := st.Raw(v)
		if err := filled.Put(v, bits, data); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := labelstore.Write(&buf, filled, filled.Vertices()); err != nil {
		t.Fatal(err)
	}
	cp, err := labelstore.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// asFSDL2 rewrites every label file of the generation res built as FSDL2
// — the generation a writer from before factored compactions left — and
// re-seals its manifest over the new bytes.
func asFSDL2(t testing.TB, res *liveupdate.CompactionResult) {
	t.Helper()
	src := heapCopy(t, res.Store) // an FSDL2 store of the generation's labels
	m := res.Manifest
	for i, mf := range m.Files {
		if mf.Name == liveupdate.GraphFileName {
			continue
		}
		path := filepath.Join(res.Dir, mf.Name)
		part, err := labelstore.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		ids := part.Vertices()
		part.Close()
		// Renamed over, not rewritten in place: res.Store maps the old file.
		if err := labelstore.ReplaceFile(path, func(f *os.File) error { return labelstore.Write(f, src, ids) }); err != nil {
			t.Fatal(err)
		}
		crc, err := labelstore.FileCRC(path)
		if err != nil {
			t.Fatal(err)
		}
		m.Files[i] = labelstore.NewManifestFile(mf.Name, crc, ids)
	}
	if err := labelstore.WriteManifestFile(res.Dir, m); err != nil {
		t.Fatal(err)
	}
}

// replicatedFrontend serves each store from its own shard, every shard
// holding every label (replication = number of stores), with hedging
// and the retry budget off so that which replica answers is the ring's
// order alone. wrap, when set, returns the address the frontend is to
// dial for shard i instead of the shard's own (a tampering proxy).
func replicatedFrontend(t testing.TB, stores []*labelstore.Store, wrap func(i int, addr string) string) *Frontend {
	t.Helper()
	m := &Membership{Replication: len(stores)}
	for i, st := range stores {
		name := "shard" + string(rune('0'+i))
		_, addr := startExtraShard(t, ShardConfig{Store: st, Name: name})
		if wrap != nil {
			addr = wrap(i, addr)
		}
		m.Nodes = append(m.Nodes, Node{Name: name, Addr: addr})
	}
	return newTestFrontend(t, &testCluster{membership: m}, func(cfg *FrontendConfig) {
		cfg.HedgeDelay = -1
		cfg.RetryBudgetRatio = -1
	})
}

func allVertices(n int) []int {
	ids := make([]int, n)
	for v := range ids {
		ids[v] = v
	}
	return ids
}

func failures(f *Frontend) [numDecodeCauses]int64 {
	var out [numDecodeCauses]int64
	for cause := range out {
		out[cause] = f.met.decodeFailures[cause].Load()
	}
	return out
}

// TestStoredLabelsMatchCanonical: for every vertex of a nested factored
// ring4096 and rgg1024 file and of an older flat one, the label the
// frontend decodes from the record as stored encodes byte for byte like
// the one it decodes from the canonical record — and each frontend took
// every record in the encoding its shard holds, under one level-graphs
// fetch.
func TestStoredLabelsMatchCanonical(t *testing.T) {
	dir := t.TempDir()
	rgg, _, err := gen.RandomGeometric(1024, 0.056, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	flat, err := labelstore.Open(filepath.Join("..", "labelstore", "testdata", "path60_pr25.fsdl3c"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		st     *labelstore.Store
		nested bool
	}{
		{"ring4096", factoredFile(t, filepath.Join(dir, "ring.fsdl"), labelstore.FromScheme(mustScheme(t, ringLattice(4096))), nil), true},
		{"rgg1024", factoredFile(t, filepath.Join(dir, "rgg.fsdl"), labelstore.FromScheme(mustScheme(t, rgg)), nil), true},
		{"path60 flat", flat, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ids := tc.st.Vertices()
			if sr, ok := tc.st.Stored(ids[0]); !ok || sr.Nested != tc.nested {
				t.Fatalf("record %d as stored: ok=%v nested=%v, want nested=%v", ids[0], ok, sr.Nested, tc.nested)
			}
			stored := replicatedFrontend(t, []*labelstore.Store{tc.st}, nil)
			canonical := replicatedFrontend(t, []*labelstore.Store{heapCopy(t, tc.st)}, nil)
			ctx := context.Background()
			for _, f := range []*Frontend{stored, canonical} {
				if u := f.Prefetch(ctx, ids); u != 0 {
					t.Fatalf("%d of %d labels unresolved", u, len(ids))
				}
			}
			for _, v := range ids {
				a, err := stored.Label(ctx, v)
				if err != nil {
					t.Fatal(err)
				}
				b, err := canonical.Label(ctx, v)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(labelBytes(t, a), labelBytes(t, b)) {
					t.Fatalf("vertex %d: the label decoded as stored differs from the canonical record's", v)
				}
			}
			n := int64(len(ids))
			if s, c := stored.met.recordsStored.Load(), stored.met.recordsCanonical.Load(); s != n || c != 0 {
				t.Errorf("factored shard: %d records stored, %d canonical; want %d and 0", s, c, n)
			}
			if s, c := canonical.met.recordsStored.Load(), canonical.met.recordsCanonical.Load(); s != 0 || c != n {
				t.Errorf("FSDL2 shard: %d records stored, %d canonical; want 0 and %d", s, c, n)
			}
			if got := stored.met.levelsFetched.Load(); got != 1 {
				t.Errorf("level graphs fetched %d times, want once", got)
			}
			if fs := failures(stored); fs != [numDecodeCauses]int64{} {
				t.Errorf("decode failures %v", fs)
			}
		})
	}
}

// wireBytes asks conn for ids under op at generation 1 and returns the
// response payload bytes and the records.
func wireBytes(t *testing.T, conn net.Conn, op byte, ids []int32) (int, []LabelRecord) {
	t.Helper()
	if err := frame.Write(conn, op, AppendGenLabelRequest(nil, 1, ids)); err != nil {
		t.Fatal(err)
	}
	total := 0
	var recs []LabelRecord
	for {
		rop, p, err := frame.Read(conn)
		if err != nil {
			t.Fatal(err)
		}
		if rop != OpLabels && rop != OpLabelsPart {
			t.Fatalf("op %d: %s", rop, p)
		}
		_, got, err := ParseLabelResponse(p)
		if err != nil {
			t.Fatal(err)
		}
		total += len(p)
		recs = append(recs, got...)
		if rop == OpLabels {
			return total, recs
		}
	}
}

// TestStoredWireBytes pins what a ring4096 label costs on the wire as
// stored against canonical bytes, and that a frontend reading a whole
// factored cluster batch by batch fetches the generation's level graphs
// once — chunk by chunk when the section outgrows a frame — not once per
// label or per batch.
func TestStoredWireBytes(t *testing.T) {
	s := mustScheme(t, ringLattice(4096))
	dir := t.TempDir()
	full := factoredFile(t, filepath.Join(dir, "labels.fsdl"), labelstore.FromScheme(s), nil)
	n := full.NumVertices()
	_, addr := startExtraShard(t, ShardConfig{Store: full, Name: "shard0"})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ids := make([]int32, n)
	for v := range ids {
		ids[v] = int32(v)
	}
	storedBytes, recs := wireBytes(t, conn, OpGetLabelsStored, ids)
	payload := 0
	for _, r := range recs {
		if !r.Stored {
			t.Fatalf("vertex %d not sent as stored", r.Vertex)
		}
		payload += len(r.Data)
	}
	canonicalBytes, recs := wireBytes(t, conn, OpGetLabelsGen, ids)
	for _, r := range recs {
		if !r.Present || r.Stored {
			t.Fatalf("vertex %d not sent as canonical bytes", r.Vertex)
		}
	}
	perStored, perCanonical := float64(storedBytes)/float64(n), float64(canonicalBytes)/float64(n)
	t.Logf("ring4096 per label: %.1f B stored (%.1f B payload), %.1f B canonical (%.1f×)",
		perStored, float64(payload)/float64(n), perCanonical, perCanonical/perStored)
	for _, c := range []struct {
		what      string
		got, want float64
	}{
		{"stored payload", float64(payload) / float64(n), 315.2},
		{"stored on the wire", perStored, 333.1},
		{"canonical on the wire", perCanonical, 14481.3},
	} {
		if c.got < c.want*0.99 || c.got > c.want*1.01 {
			t.Errorf("%s: %.1f B per label, pinned at %.1f", c.what, c.got, c.want)
		}
	}

	// Three factored partitions at replication 2; a section of 4 KiB frames.
	defer func(was int) { maxLabelChunkPayload = was }(maxLabelChunkPayload)
	maxLabelChunkPayload = 4096
	var levelsAsked atomic.Int64
	hook := func(op byte) error {
		if op == OpGetLevels {
			levelsAsked.Add(1)
		}
		return nil
	}
	nodes := []Node{{Name: "shard0"}, {Name: "shard1"}, {Name: "shard2"}}
	m := &Membership{Replication: 2}
	for i, ids := range NewRing(nodes, 2).Partition(n) {
		part := factoredFile(t, filepath.Join(dir, nodes[i].Name+".fsdl"), full, ids)
		_, addr := startExtraShard(t, ShardConfig{Store: part, Name: nodes[i].Name, FaultHook: hook})
		m.Nodes = append(m.Nodes, Node{Name: nodes[i].Name, Addr: addr})
	}
	f := newTestFrontend(t, &testCluster{membership: m}, nil)
	ctx := context.Background()
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for off := 0; off < n; off += 8 {
		if u := f.Prefetch(ctx, perm[off:off+8]); u != 0 {
			t.Fatalf("batch at %d: %d labels unresolved", off, u)
		}
	}
	section, _, _ := full.LevelsSection()
	step := 4096 - (3*binary.MaxVarintLen64 + 4) // a chunk's bytes past its header
	chunks := int64((len(section) + step - 1) / step)
	if got := f.met.levelsFetched.Load(); got != 1 {
		t.Errorf("%d batches fetched the level graphs %d times, want once", n/8, got)
	}
	if got := levelsAsked.Load(); got < chunks || got > chunks+1 {
		t.Errorf("%d level-graphs requests for a %d-byte section, want about %d", got, len(section), chunks)
	}
	if got := f.met.recordsStored.Load(); got != int64(n) {
		t.Errorf("%d records came stored, want %d", got, n)
	}
	for v := 0; v < n; v += 97 {
		l, err := f.Label(ctx, v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(labelBytes(t, l), labelBytes(t, s.Label(v))) {
			t.Fatalf("label %d is not the scheme's", v)
		}
	}
}

// TestLevelsFetchedOnceUnderConcurrency: scatters racing from many
// goroutines over a cold factored cluster wait on one section fetch, and
// every label they decode under it is the scheme's.
func TestLevelsFetchedOnceUnderConcurrency(t *testing.T) {
	s := mustScheme(t, gen.Grid2D(8, 8))
	n := s.Graph().NumVertices()
	dir := t.TempDir()
	full := factoredFile(t, filepath.Join(dir, "labels.fsdl"), labelstore.FromScheme(s), nil)
	nodes := []Node{{Name: "shard0"}, {Name: "shard1"}, {Name: "shard2"}}
	m := &Membership{Replication: 2}
	for i, ids := range NewRing(nodes, 2).Partition(n) {
		part := factoredFile(t, filepath.Join(dir, nodes[i].Name+".fsdl"), full, ids)
		_, addr := startExtraShard(t, ShardConfig{Store: part, Name: nodes[i].Name})
		m.Nodes = append(m.Nodes, Node{Name: nodes[i].Name, Addr: addr})
	}
	f := newTestFrontend(t, &testCluster{membership: m}, nil)
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for i := 0; i < n; i++ {
				v := (i*7 + w*13) % n
				l, err := f.Label(context.Background(), v)
				if err == nil && !bytes.Equal(labelBytes(t, l), labelBytes(t, s.Label(v))) {
					err = fmt.Errorf("label %d is not the scheme's", v)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := f.met.levelsFetched.Load(); got != 1 {
		t.Fatalf("the section was fetched %d times", got)
	}
}

// tamperProxy forwards each connection to addr, passing every frame the
// shard answers through edit.
func tamperProxy(t *testing.T, addr string, edit func(op byte, payload []byte) []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				up, err := net.Dial("tcp", addr)
				if err != nil {
					return
				}
				defer up.Close()
				go func() {
					io.Copy(up, c)
					up.Close()
				}()
				for {
					op, p, err := frame.Read(up)
					if err != nil || frame.Write(c, op, edit(op, p)) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// editStored rewrites every stored record of a label response.
func editStored(edit func(r *LabelRecord)) func(byte, []byte) []byte {
	return func(op byte, p []byte) []byte {
		if op != OpLabels && op != OpLabelsPart {
			return p
		}
		n, recs, err := ParseLabelResponse(p)
		if err != nil {
			return p
		}
		for i := range recs {
			if recs[i].Stored {
				recs[i].Data = bytes.Clone(recs[i].Data)
				edit(&recs[i])
			}
		}
		return AppendLabelResponse(nil, n, recs)
	}
}

// recordCRC is the index CRC of a record: vertex and canonical bit
// length as uvarints, then the payload.
func recordCRC(v int32, bits int, data []byte) uint32 {
	h := crc32.NewIEEE()
	h.Write(binary.AppendUvarint(nil, uint64(v)))
	h.Write(binary.AppendUvarint(nil, uint64(bits)))
	h.Write(data)
	return h.Sum32()
}

// TestFrontendChecksStoredRecords puts a tampering proxy in front of one
// of two replicas of a factored store. Whatever it bends, the frontend
// must refuse that copy for exactly the cause the bend trips, fail over
// to the intact replica, and answer every label as the scheme has it.
func TestFrontendChecksStoredRecords(t *testing.T) {
	s := mustScheme(t, gen.Grid2D(6, 6))
	dir := t.TempDir()
	full := factoredFile(t, filepath.Join(dir, "labels.fsdl"), labelstore.FromScheme(s), nil)
	section, crc, _ := full.LevelsSection()
	other := mustScheme(t, ringLattice(36)).LevelGraphs().Encode() // a valid section of another graph, same n
	for _, tc := range []struct {
		name  string
		edit  func(byte, []byte) []byte
		cause int
	}{
		{"payload bent: record CRC", editStored(func(r *LabelRecord) { r.Data[len(r.Data)/2] ^= 0x10 }), causeCRC},
		{"bit length bent, CRC recomputed: canonical length", editStored(func(r *LabelRecord) {
			r.Bits += 8
			r.CRC = recordCRC(r.Vertex, r.Bits, r.Data)
		}), causeCanonicalLength},
		{"record names another generation", editStored(func(r *LabelRecord) { r.Levels.Generation++ }), causeLevels},
		{"record names another section", editStored(func(r *LabelRecord) { r.Levels.CRC ^= 1 }), causeLevels},
		{"section swapped for another graph's", func(op byte, p []byte) []byte {
			if op != OpLevels {
				return p
			}
			ref, _, _, _, err := ParseLevelsChunk(p)
			if err != nil {
				return p
			}
			return AppendLevelsChunk(nil, ref, uint64(len(other)), 0, other)
		}, causeLevels},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := replicatedFrontend(t, []*labelstore.Store{full, full}, func(i int, addr string) string {
				if i == 0 {
					return tamperProxy(t, addr, tc.edit)
				}
				return addr
			})
			ring := f.state.Load().ring
			// The bent replica answers first: its level graphs are the
			// first the frontend reads, if it reads any.
			var order []int
			for v := 0; v < s.Graph().NumVertices(); v++ {
				if ring.Primary(int32(v)) == 0 {
					order = append([]int{v}, order...)
				} else {
					order = append(order, v)
				}
			}
			ctx := context.Background()
			for _, v := range order {
				l, err := f.Label(ctx, v)
				if err != nil {
					t.Fatalf("Label(%d): %v", v, err)
				}
				if !bytes.Equal(labelBytes(t, l), labelBytes(t, s.Label(v))) {
					t.Fatalf("label %d is not the scheme's", v)
				}
			}
			got := failures(f)
			for cause, n := range got {
				if (cause == tc.cause) != (n > 0) {
					t.Fatalf("decode failures by cause %v, want them under %q only", got, decodeCauseNames[tc.cause])
				}
			}
			if f.met.unavailable.Load() != 0 {
				t.Fatalf("%d labels unavailable with an intact replica", f.met.unavailable.Load())
			}
			f.levelsMu.Lock()
			defer f.levelsMu.Unlock()
			if set := f.levelSets[LevelsRef{Generation: 1, CRC: crc}]; len(f.levelSets) != 1 || set == nil || set.lv == nil ||
				!bytes.Equal(set.lv.LevelGraphs().Encode(), section) {
				t.Fatalf("levels held: %d sets, the file's section among them: %v", len(f.levelSets), set != nil && set.lv != nil)
			}
		})
	}
}

// TestLevelsForNamesExactSection: a stored record is read only under the
// level graphs it names, generation and CRC both. A section held under
// one name answers no other; a record of a generation the scatter is not
// pinned to is refused before any lookup.
func TestLevelsForNamesExactSection(t *testing.T) {
	s := mustScheme(t, gen.Grid2D(6, 6))
	full := factoredFile(t, filepath.Join(t.TempDir(), "labels.fsdl"), labelstore.FromScheme(s), nil)
	_, crc, _ := full.LevelsSection()
	f := replicatedFrontend(t, []*labelstore.Store{full}, nil)
	ctx := context.Background()
	if _, err := f.Label(ctx, 0); err != nil {
		t.Fatal(err)
	}
	st := f.state.Load()
	c := st.nodes[0]
	named := LevelsRef{Generation: st.gen, CRC: crc}
	held, err := f.levelsFor(ctx, st, c, named)
	if err != nil || held == nil {
		t.Fatalf("the section records name: %v", err)
	}
	for _, ref := range []LevelsRef{
		{Generation: st.gen, CRC: crc ^ 1},
		{Generation: st.gen + 1, CRC: crc},
	} {
		if lv, err := f.levelsFor(ctx, st, c, ref); err == nil || lv != nil {
			t.Errorf("levels for %+v answered with the section held for %+v", ref, named)
		}
	}
	// A scatter pinned to the next generation reads nothing held for this one.
	next := &ringState{epoch: st.epoch + 1, ring: st.ring, nodes: st.nodes, gen: st.gen + 1}
	if lv, err := f.levelsFor(ctx, next, c, LevelsRef{Generation: next.gen, CRC: crc}); err == nil || lv != nil {
		t.Errorf("a generation-%d scatter was handed generation %d's section", next.gen, st.gen)
	}
	if got := f.met.levelsFetched.Load(); got != 1 {
		t.Errorf("%d sections admitted, want the one", got)
	}
}

// TestAdmitLevelsChecksBeforeUse: a fetched section is used only once
// its CRC is the one records name, it decodes, it spans the cluster's
// vertex space and it agrees on the scheme parameters with every section
// held for its generation.
func TestAdmitLevelsChecksBeforeUse(t *testing.T) {
	g := gen.Grid2D(6, 6)
	good := mustScheme(t, g).LevelGraphs().Encode()
	goodCRC := crc32.ChecksumIEEE(good)
	finer, err := core.BuildScheme(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	finerSec := finer.LevelGraphs().Encode()
	wider := mustScheme(t, gen.Grid2D(7, 7)).LevelGraphs().Encode()
	garbage := append([]byte("FSDLS1"), bytes.Repeat([]byte{0xff}, 32)...)

	f := &Frontend{n: g.NumVertices(), levelSets: make(map[LevelsRef]*levelSet)}
	for _, tc := range []struct {
		name    string
		ref     LevelsRef
		section []byte
	}{
		{"a valid section under another CRC", LevelsRef{1, goodCRC ^ 1}, good},
		{"another graph's section under this one's CRC", LevelsRef{1, goodCRC}, finerSec},
		{"bytes that match their CRC but do not decode", LevelsRef{1, crc32.ChecksumIEEE(garbage)}, garbage},
		{"a section over another vertex space", LevelsRef{1, crc32.ChecksumIEEE(wider)}, wider},
	} {
		if lv, err := f.admitLevels(tc.ref, tc.section); err == nil || lv != nil {
			t.Errorf("%s: admitted", tc.name)
		}
	}
	lv, err := f.admitLevels(LevelsRef{1, goodCRC}, good)
	if err != nil {
		t.Fatalf("the good section: %v", err)
	}
	done := make(chan struct{})
	close(done)
	f.levelSets[LevelsRef{1, goodCRC}] = &levelSet{done: done, lv: lv}
	finerRef := LevelsRef{1, crc32.ChecksumIEEE(finerSec)}
	if _, err := f.admitLevels(finerRef, finerSec); err == nil {
		t.Error("a section of generation 1 with other scheme parameters than the one held was admitted")
	}
	if _, err := f.admitLevels(LevelsRef{2, finerRef.CRC}, finerSec); err != nil {
		t.Errorf("the same section for generation 2: %v", err)
	}
}

// TestShardServesOverlayRecordsCanonical: what a factored shard's heap
// overlay holds — a record healed over a corrupt one, a record Put for a
// vertex its file lacks — goes out as canonical bytes beside the file's
// stored records, and a frontend counts it so.
func TestShardServesOverlayRecordsCanonical(t *testing.T) {
	s := mustScheme(t, gen.Grid2D(6, 6))
	n := s.Graph().NumVertices()
	path := filepath.Join(t.TempDir(), "part.fsdl")
	factoredFile(t, path, labelstore.FromScheme(s), allVertices(n)[:n-1]).Close()
	healed := corruptFirstRecord(t, path)
	st, err := labelstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	absent, intact := n-1, healed+1
	for _, v := range []int{healed, absent} {
		buf, bits := s.Label(v).Encode()
		if err := st.Put(v, bits, buf[:(bits+7)/8]); err != nil {
			t.Fatalf("Put(%d): %v", v, err)
		}
	}
	_, addr := startExtraShard(t, ShardConfig{Store: st, Name: "shard0"})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, recs := wireBytes(t, conn, OpGetLabelsStored, []int32{int32(healed), int32(absent), int32(intact)})
	for i, want := range []bool{false, false, true} {
		if r := recs[i]; !r.Present || r.Stored != want {
			t.Fatalf("vertex %d: present=%v stored=%v, want stored=%v", r.Vertex, r.Present, r.Stored, want)
		}
	}

	f := replicatedFrontend(t, []*labelstore.Store{st}, nil)
	for _, v := range []int{healed, absent, intact} {
		l, err := f.Label(context.Background(), v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(labelBytes(t, l), labelBytes(t, s.Label(v))) {
			t.Fatalf("label %d is not the scheme's", v)
		}
	}
	if s, c := f.met.recordsStored.Load(), f.met.recordsCanonical.Load(); s != 1 || c != 2 {
		t.Fatalf("%d records stored, %d canonical; want 1 and 2", s, c)
	}
}

// TestClusterMixedEncodingsAcrossSwap: three shards at replication 2 —
// shard0 on factored FSDL3 partitions (one record of them Put-healed),
// shard1 on FSDL2, each from its own generation root, and shard2 on the
// committed canonical FSDL3 file of generation A's labels, then on its
// root's factored generation B — answer every pair and fault set exactly like the
// unpartitioned store, before and after a swap to a generation whose
// level graphs differ. The swap drops the old generation's level graphs;
// a fetch pinned before it still reads them, without keeping them.
func TestClusterMixedEncodingsAcrossSwap(t *testing.T) {
	g := gen.Grid2D(6, 6)
	n := g.NumVertices()
	nodes := []Node{{Name: "shard0"}, {Name: "shard1"}, {Name: "shard2"}}
	parts := map[string][]int{}
	for i, ids := range NewRing(nodes, 2).Partition(n) {
		parts[nodes[i].Name] = ids
	}
	// Each shard reads its own generation root, in its own container:
	// shard1's generations are rewritten as FSDL2.
	roots := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	p, err := liveupdate.Open(liveupdate.Config{Base: g})
	if err != nil {
		t.Fatal(err)
	}
	// build compacts the pipeline's next generation into every root and
	// returns its id, its snapshot and its full labels as the factored
	// root holds them.
	build := func() (uint64, *liveupdate.Snapshot, *labelstore.Store) {
		snap, err := p.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var full *labelstore.Store
		for i, root := range roots {
			res, err := liveupdate.CompactSnapshot(snap, root, liveupdate.CompactOptions{Epsilon: 2, Partitions: parts})
			if err != nil {
				t.Fatal(err)
			}
			switch i {
			case 0:
				full = res.Store
			case 1:
				asFSDL2(t, res)
			}
		}
		return snap.Generation, snap, full
	}
	genA, snapA, fullA := build()
	if err := p.Commit(snapA); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Apply([]liveupdate.Mutation{{Op: liveupdate.MutDelete, U: 14, V: 15}}); err != nil {
		t.Fatal(err)
	}
	genB, _, fullB := build()

	m := &Membership{Replication: 2}
	var shards []*ShardServer
	var healed int
	for i, nd := range nodes {
		path := filepath.Join(roots[i], labelstore.GenerationDirName(genA), nd.Name+".fsdl")
		switch i {
		case 0:
			healed = corruptFirstRecord(t, path)
		case 2:
			// Every label of the unmutated grid, as an uncompressed FSDL3
			// file holds them: a superset of the shard's slice.
			path = canonicalGrid6
		}
		st, err := labelstore.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 && st.Encoding().Version != 2 {
			t.Fatalf("shard1 starts on %+v, want FSDL2", st.Encoding())
		}
		if i == 0 {
			bits, data, _ := fullA.Raw(healed)
			if err := st.Put(healed, bits, data); err != nil {
				t.Fatal(err)
			}
		}
		srv, addr := startExtraShard(t, ShardConfig{Store: st, Name: nd.Name, Generation: genA, GenerationRoot: roots[i]})
		m.Nodes = append(m.Nodes, Node{Name: nd.Name, Addr: addr})
		shards = append(shards, srv)
	}
	f := newTestFrontend(t, &testCluster{membership: m}, func(cfg *FrontendConfig) {
		cfg.HedgeDelay = -1
		cfg.HealthInterval = time.Hour
	})
	ctx := context.Background()

	// sameAnswers fetches every label through fetch and holds it, and the
	// answer of every pair under three fault sets, to want's.
	sameAnswers := func(when string, fetch func(context.Context, int) (*core.Label, error), want *labelstore.Store) {
		t.Helper()
		got := make([]*core.Label, n)
		ref := make([]*core.Label, n)
		for v := range got {
			var err error
			if got[v], err = fetch(ctx, v); err != nil {
				t.Fatalf("%s: Label(%d): %v", when, v, err)
			}
			if ref[v], err = want.Label(v); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(labelBytes(t, got[v]), labelBytes(t, ref[v])) {
				t.Fatalf("%s: label %d differs from the unpartitioned store's", when, v)
			}
		}
		for _, faults := range [][]int{nil, {8}, {14, 21}} {
			fl := func(ls []*core.Label) []*core.Label {
				var out []*core.Label
				for _, x := range faults {
					out = append(out, ls[x])
				}
				return out
			}
			for s := 0; s < n; s++ {
				for u := 0; u < n; u++ {
					a, _ := (&core.Query{S: got[s], T: got[u], VertexFaults: fl(got)}).Distance()
					b, _ := (&core.Query{S: ref[s], T: ref[u], VertexFaults: fl(ref)}).Distance()
					if a != b {
						t.Fatalf("%s: d(%d,%d) avoiding %v = %d, the unpartitioned store says %d", when, s, u, faults, a, b)
					}
				}
			}
		}
	}
	levelsHeld := func() map[LevelsRef]bool {
		f.levelsMu.Lock()
		defer f.levelsMu.Unlock()
		out := map[LevelsRef]bool{}
		for ref := range f.levelSets {
			out[ref] = true
		}
		return out
	}

	sameAnswers("generation A", f.Label, fullA)
	if s, c := f.met.recordsStored.Load(), f.met.recordsCanonical.Load(); s == 0 || c == 0 {
		t.Fatalf("generation A took %d stored and %d canonical records, want both", s, c)
	}
	if fs := failures(f); fs != [numDecodeCauses]int64{} {
		t.Fatalf("decode failures %v", fs)
	}
	_, crcA, _ := shards[0].cfg.Store.LevelsSection()
	if held := levelsHeld(); len(held) != 1 || !held[LevelsRef{genA, crcA}] {
		t.Fatalf("levels held %v, want generation %d's section %08x", held, genA, crcA)
	}
	// The healed record goes out canonical, its neighbours as stored.
	conn, err := net.Dial("tcp", m.Nodes[0].Addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := frame.Write(conn, OpGetLabelsStored, AppendGenLabelRequest(nil, genA, []int32{int32(healed), int32(parts["shard0"][1])})); err != nil {
		t.Fatal(err)
	}
	_, payload, err := frame.Read(conn)
	conn.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, recs, err := ParseLabelResponse(payload); err != nil || recs[0].Stored || !recs[0].Present || !recs[1].Stored {
		t.Fatalf("healed record and its neighbour: %+v, %v", recs, err)
	}

	pinned, _ := f.PinLabels()
	if _, err := f.SwapGeneration(genB, nil); err != nil {
		t.Fatal(err)
	}
	if held := levelsHeld(); len(held) != 0 {
		t.Fatalf("levels of generation %d held past the swap: %v", genA, held)
	}
	sameAnswers("generation B", f.Label, fullB)
	if cur, _ := shards[1].currentStore(); cur.Encoding().Version != 2 {
		t.Fatalf("shard1 swapped to %+v, want its root's FSDL2 generation", cur.Encoding())
	}
	curB, _ := shards[0].currentStore()
	_, crcB, _ := curB.LevelsSection()
	if crcB == crcA {
		t.Fatal("the swap did not change the level graphs")
	}
	if held := levelsHeld(); len(held) != 1 || !held[LevelsRef{genB, crcB}] {
		t.Fatalf("levels held %v, want generation %d's section %08x", held, genB, crcB)
	}
	sameAnswers("pinned before the swap", pinned, fullA)
	if held := levelsHeld(); len(held) != 1 || held[LevelsRef{genA, crcA}] {
		t.Fatalf("a fetch pinned before the swap left generation %d's levels held: %v", genA, held)
	}
	if fs := failures(f); fs != [numDecodeCauses]int64{} {
		t.Fatalf("decode failures %v", fs)
	}
}
