package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"fsdl/internal/core"
	"fsdl/internal/frame"
	"fsdl/internal/gen"
	"fsdl/internal/graph"
	"fsdl/internal/labelstore"
)

// writeFormat3Store saves every label of g's scheme (ε = 2, the scheme
// buildFullStore holds) as an FSDL3 container at path.
func writeFormat3Store(t *testing.T, g *graph.Graph, path string) {
	t.Helper()
	s, err := core.BuildScheme(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	err = labelstore.SaveFormat3(f, s, nil, true)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
}

// corruptFirstRecord flips one byte of the first record payload in an
// FSDL3 file and returns the vertex that record belongs to. The header
// and index stay intact, so a strict Open succeeds and the damage is
// only discoverable through the lazy per-record CRC.
func corruptFirstRecord(t *testing.T, path string) int {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Header: dataOff is the u64 at byte 24; the index starts at 4096
	// with the record's vertex in the entry's first u32. The first
	// entry's payload sits at dataOff (entries store data-relative
	// offsets, and the first record's is 0).
	dataOff := binary.LittleEndian.Uint64(buf[24:])
	victim := int(binary.LittleEndian.Uint32(buf[4096:]))
	buf[dataOff] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return victim
}

// TestShardServesCorruptFSDL3AsUnknown: a damaged record in an mmap'd
// FSDL3 partition must come back as the Unknown state (absence due to
// damage is not authoritative), the shard's pong must carry the
// non-authoritative flag, and every intact record must still serve the
// exact canonical bytes.
func TestShardServesCorruptFSDL3AsUnknown(t *testing.T) {
	g, st := buildFullStore(t, 6) // n = 36
	path := filepath.Join(t.TempDir(), "shard.fsdl")
	writeFormat3Store(t, g, path)
	victim := corruptFirstRecord(t, path)

	cst, err := labelstore.Open(path)
	if err != nil {
		t.Fatalf("strict open of a payload-damaged file must succeed (lazy CRC): %v", err)
	}
	srv, err := NewShardServer(ShardConfig{Store: cst, Name: "shard0"})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	intact := -1
	for _, v := range st.Vertices() {
		if v != victim {
			intact = v
			break
		}
	}
	if err := frame.Write(conn, OpGetLabelsGen, AppendGenLabelRequest(nil, 0, []int32{int32(victim), int32(intact)})); err != nil {
		t.Fatal(err)
	}
	op, payload, err := frame.Read(conn)
	if err != nil || op != OpLabels {
		t.Fatalf("op=%d err=%v", op, err)
	}
	_, recs, err := ParseLabelResponse(payload)
	if err != nil || len(recs) != 2 {
		t.Fatalf("bad response: %v", err)
	}
	if recs[0].Present || !recs[0].Unknown {
		t.Fatalf("corrupt record answered present=%v unknown=%v, want the unknown state", recs[0].Present, recs[0].Unknown)
	}
	wantBits, wantData, _ := st.Raw(intact)
	if !recs[1].Present || recs[1].Bits != wantBits || !bytes.Equal(recs[1].Data, wantData) {
		t.Fatalf("intact record differs from canonical bytes")
	}

	// The health probe flags the shard non-authoritative while the
	// corrupt record is unhealed.
	if err := frame.Write(conn, OpPing, nil); err != nil {
		t.Fatal(err)
	}
	op, payload, err = frame.Read(conn)
	if err != nil || op != OpPong {
		t.Fatalf("ping: op=%d err=%v", op, err)
	}
	_, _, flags, _, err := ParsePong(payload)
	if err != nil {
		t.Fatal(err)
	}
	if flags&PongNonAuthoritative == 0 {
		t.Fatal("shard with a known-corrupt record did not flag non-authoritative")
	}

	// Healing the record (as the repairer's audit would) clears
	// both the Unknown answer and the flag.
	bits, data, ok := st.Raw(victim)
	if !ok {
		t.Fatal("source store lost the victim")
	}
	if err := cst.Put(victim, bits, data); err != nil {
		t.Fatalf("heal: %v", err)
	}
	if err := frame.Write(conn, OpGetLabelsGen, AppendGenLabelRequest(nil, 0, []int32{int32(victim)})); err != nil {
		t.Fatal(err)
	}
	if op, payload, err = frame.Read(conn); err != nil || op != OpLabels {
		t.Fatalf("post-heal: op=%d err=%v", op, err)
	}
	if _, recs, err = ParseLabelResponse(payload); err != nil || len(recs) != 1 {
		t.Fatalf("post-heal response: %v", err)
	}
	if !recs[0].Present || !bytes.Equal(recs[0].Data, data) {
		t.Fatal("healed record not served")
	}
	if err := frame.Write(conn, OpPing, nil); err != nil {
		t.Fatal(err)
	}
	if op, payload, err = frame.Read(conn); err != nil || op != OpPong {
		t.Fatalf("post-heal ping: op=%d err=%v", op, err)
	}
	if _, _, flags, _, err = ParsePong(payload); err != nil {
		t.Fatal(err)
	}
	if flags&PongNonAuthoritative != 0 {
		t.Fatal("healed shard still flags non-authoritative")
	}
}

// TestFrontendFailsOverCorruptFSDL3: with an intact replica, a frontend
// read of the corrupt vertex fails over and returns the right label —
// bit rot on one replica is invisible to clients.
func TestFrontendFailsOverCorruptFSDL3(t *testing.T) {
	g, st := buildFullStore(t, 6)
	path := filepath.Join(t.TempDir(), "replica.fsdl")
	writeFormat3Store(t, g, path)
	victim := corruptFirstRecord(t, path)
	cst, err := labelstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}

	mk := func(cfg ShardConfig) string {
		t.Helper()
		srv, err := NewShardServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		return ln.Addr().String()
	}
	m := &Membership{Replication: 2, Nodes: []Node{
		{Name: "shard0", Addr: mk(ShardConfig{Store: cst, Name: "shard0"})},
		{Name: "shard1", Addr: mk(ShardConfig{Store: st, Name: "shard1"})},
	}}
	f := newTestFrontend(t, &testCluster{membership: m}, nil)

	got, err := f.Label(context.Background(), victim)
	if err != nil {
		t.Fatalf("Label(%d) with an intact replica: %v", victim, err)
	}
	want, err := st.Label(victim)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(labelBytes(t, got), labelBytes(t, want)) {
		t.Fatalf("label %d differs after corrupt-replica failover", victim)
	}
	if f.met.unavailable.Load() != 0 {
		t.Fatalf("%d labels unavailable though shard1 holds everything", f.met.unavailable.Load())
	}
}

// TestLoadGenerationMmap: a shard activates an FSDL3 generation straight
// from the page cache — the swapped-in store is mapped on unix, not
// heap-loaded, with no Mmap set — and serves canonical record bytes.
func TestLoadGenerationMmap(t *testing.T) {
	g, st := buildFullStore(t, 6)
	root := t.TempDir()
	dir := filepath.Join(root, labelstore.GenerationDirName(2))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	full := filepath.Join(dir, labelstore.GenerationLabelsFile)
	writeFormat3Store(t, g, full)
	crc, err := labelstore.FileCRC(full)
	if err != nil {
		t.Fatal(err)
	}
	m := &labelstore.Manifest{Generation: 2, N: st.NumVertices(), Files: []labelstore.ManifestFile{
		{Name: labelstore.GenerationLabelsFile, Records: st.NumLabels(), First: 0, Last: st.NumVertices() - 1, CRC: crc},
	}}
	if err := labelstore.WriteManifestFile(dir, m); err != nil {
		t.Fatal(err)
	}

	srv, err := NewShardServer(ShardConfig{Store: st, Name: "shard0", GenerationRoot: root})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.LoadGeneration(2); err != nil {
		t.Fatal(err)
	}
	cur, gen := srv.currentStore()
	if gen != 2 {
		t.Fatalf("generation = %d, want 2", gen)
	}
	enc := cur.Encoding()
	if enc.Version != 3 || !enc.Factored {
		t.Fatalf("activated store %+v, want a factored FSDL3 file", enc)
	}
	if mapsFiles := runtime.GOOS == "linux" || runtime.GOOS == "darwin"; mapsFiles && !enc.Mapped {
		t.Fatal("the activated generation is not mapped")
	}
	for _, v := range st.Vertices() {
		wantBits, wantData, _ := st.Raw(v)
		bits, data, ok := cur.Raw(v)
		if !ok || bits != wantBits || !bytes.Equal(data, wantData) {
			t.Fatalf("vertex %d differs through the mmap'd generation", v)
		}
	}
}

// TestClusterMixedFactoredShard: three shards at replication 2, shard0
// serving a factored FSDL3 partition from an mmap (its level graphs
// carried verbatim out of the full factored store), shard1 and shard2
// heap FSDL2 partitions of the same scheme. Canonical records are the
// wire's currency, so the mix must be invisible: every label the
// frontend fetches is the scheme's, every replica pair holds its shared
// records (Has) byte for byte (Raw), and with the two FSDL2 shards down
// the factored one alone still serves its whole slice.
func TestClusterMixedFactoredShard(t *testing.T) {
	g := gen.Grid2D(8, 8)
	s, err := core.BuildScheme(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	dir := t.TempDir()
	fullPath := filepath.Join(dir, "labels.fsdl")
	f, err := os.Create(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := labelstore.SaveFormat3(f, s, nil, true); err != nil {
		t.Fatal(err)
	}
	f.Close()
	full, err := labelstore.Open(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()

	nodes := []Node{{Name: "shard0"}, {Name: "shard1"}, {Name: "shard2"}}
	parts := NewRing(nodes, 2).Partition(n)
	m := &Membership{Replication: 2}
	var shards []*ShardServer
	var stores []*labelstore.Store
	for i, node := range nodes {
		var st *labelstore.Store
		if i == 0 {
			path := filepath.Join(dir, "shard0.fsdl")
			pf, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := full.SaveVerticesFormat3(pf, parts[i], true); err != nil {
				t.Fatal(err)
			}
			pf.Close()
			if st, err = labelstore.Open(path); err != nil {
				t.Fatal(err)
			}
			if enc := st.Encoding(); !enc.Factored || enc != full.Encoding() {
				t.Fatalf("shard0's partition is %+v, the full store %+v", enc, full.Encoding())
			}
		} else {
			var buf bytes.Buffer
			if err := labelstore.Save(&buf, s, parts[i]); err != nil {
				t.Fatal(err)
			}
			if st, err = labelstore.Load(&buf); err != nil {
				t.Fatal(err)
			}
		}
		srv, err := NewShardServer(ShardConfig{Store: st, Name: node.Name})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		m.Nodes = append(m.Nodes, Node{Name: node.Name, Addr: ln.Addr().String()})
		shards, stores = append(shards, srv), append(stores, st)
	}

	// Replicas of a slice hold the same records whatever container
	// holds them.
	for i := range stores {
		for j := i + 1; j < len(stores); j++ {
			shared := 0
			for _, v := range parts[i] {
				if !stores[j].Has(v) {
					continue
				}
				shared++
				bi, di, oki := stores[i].Raw(v)
				bj, dj, okj := stores[j].Raw(v)
				if !stores[i].Has(v) || !oki || !okj || bi != bj || !bytes.Equal(di, dj) {
					t.Fatalf("shard%d and shard%d disagree on vertex %d", i, j, v)
				}
			}
			if shared == 0 {
				t.Fatalf("shard%d and shard%d share no record", i, j)
			}
		}
	}

	// A one-label cache: what the second pass reads comes off the wire.
	fe := newTestFrontend(t, &testCluster{membership: m}, func(cfg *FrontendConfig) { cfg.LabelCacheSize = 1 })
	check := func(ids []int, when string) {
		t.Helper()
		for _, v := range ids {
			got, err := fe.Label(context.Background(), v)
			if err != nil {
				t.Fatalf("%s: Label(%d): %v", when, v, err)
			}
			if !bytes.Equal(labelBytes(t, got), labelBytes(t, s.Label(v))) {
				t.Fatalf("%s: label %d is not the scheme's", when, v)
			}
		}
	}
	all := make([]int, n)
	for v := range all {
		all[v] = v
	}
	check(all, "all shards up")
	shards[1].Close()
	shards[2].Close()
	check(parts[0], "factored shard alone")
}
