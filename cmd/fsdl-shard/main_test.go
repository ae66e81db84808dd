package main

import (
	"bufio"
	"context"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fsdl/internal/cluster"
	"fsdl/internal/core"
	"fsdl/internal/frame"
	"fsdl/internal/gen"
	"fsdl/internal/labelstore"
	"fsdl/internal/liveupdate"
)

// TestRunRejectsBadFlags holds every refusal of run to its message; none
// gets as far as listening.
func TestRunRejectsBadFlags(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.fsdl")
	if err := os.WriteFile(garbage, []byte("not a label store"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.fsdl")
	emptyGens := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"-store with -bootstrap-n", []string{"-store", garbage, "-bootstrap-n", "16", "-name", "s0"},
			"-store and -bootstrap-n are mutually exclusive"},
		{"no source at all", []string{"-name", "s0"},
			"one of -store, -bootstrap-n or -generation-dir is required"},
		{"-generation-dir without -name", []string{"-generation-dir", emptyGens},
			"-name is required with -generation-dir"},
		{"-bootstrap-n without -name", []string{"-bootstrap-n", "16"},
			"-name is required with -bootstrap-n"},
		{"an unreadable -store", []string{"-store", garbage},
			"load " + garbage + ":"},
		{"a -store that does not exist", []string{"-store", missing},
			"load " + missing + ":"},
		{"an empty -generation-dir", []string{"-generation-dir", emptyGens, "-name", "s0"},
			"no intact generation under " + emptyGens},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(context.Background(), append(tc.args, "-addr", "127.0.0.1:0"), io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

// startRun runs the daemon in-process on a port the system picks and
// returns a connection to the address its startup line names. Cancelling
// at cleanup must end run with nil and its shutdown line.
func startRun(t *testing.T, args ...string) net.Conn {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	logr, logw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, append(args, "-addr", "127.0.0.1:0"), logw)
		logw.Close()
	}()
	addr, shutdown := make(chan string, 1), make(chan bool, 1)
	go func() {
		sc := bufio.NewScanner(logr)
		down := false
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), " vertices on "); ok {
				addr <- a
			}
			down = down || strings.Contains(sc.Text(), "shut down after")
		}
		close(addr)
		shutdown <- down
	}()
	a, ok := <-addr
	if !ok {
		t.Fatalf("run ended before serving: %v", <-done)
	}
	if strings.HasSuffix(a, ":0") {
		t.Fatalf("the startup line names %s, not the port bound", a)
	}
	conn, err := net.Dial("tcp", a)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	t.Cleanup(func() {
		conn.Close()
		cancel()
		if err := <-done; err != nil {
			t.Errorf("run after cancel = %v, want nil", err)
		}
		if !<-shutdown {
			t.Error("no shutdown line")
		}
	})
	return conn
}

// exchange sends one request frame and reads the one reply.
func exchange(t *testing.T, conn net.Conn, op byte, payload []byte) (byte, []byte) {
	t.Helper()
	if err := frame.Write(conn, op, payload); err != nil {
		t.Fatal(err)
	}
	rop, resp, err := frame.Read(conn)
	if err != nil {
		t.Fatal(err)
	}
	return rop, resp
}

func labels(t *testing.T, conn net.Conn, gen uint64, ids []int32) []cluster.LabelRecord {
	t.Helper()
	op, resp := exchange(t, conn, cluster.OpGetLabelsStored, cluster.AppendGenLabelRequest(nil, gen, ids))
	if op != cluster.OpLabels {
		t.Fatalf("op %d: %s", op, resp)
	}
	_, recs, err := cluster.ParseLabelResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func pong(t *testing.T, conn net.Conn) (flags, generation uint64) {
	t.Helper()
	op, resp := exchange(t, conn, cluster.OpPing, nil)
	if op != cluster.OpPong {
		t.Fatalf("ping answered op %d", op)
	}
	_, _, flags, generation, err := cluster.ParsePong(resp)
	if err != nil {
		t.Fatal(err)
	}
	return flags, generation
}

// TestRunBootsNewestGeneration: with -generation-dir and no -store the
// shard serves its own partition of the newest generation under the
// directory — a factored one, so every record goes out as stored, as
// the partition file holds it — at that generation.
func TestRunBootsNewestGeneration(t *testing.T) {
	g := gen.Grid2D(6, 6)
	root := t.TempDir()
	ids := []int{0, 3, 7, 12, 20, 35}
	p, err := liveupdate.Open(liveupdate.Config{Base: g})
	if err != nil {
		t.Fatal(err)
	}
	var newest *liveupdate.CompactionResult
	for round := 0; round < 2; round++ {
		if round == 1 {
			// The second generation's labels differ from the first's.
			if _, err := p.Apply([]liveupdate.Mutation{{Op: liveupdate.MutDelete, U: 0, V: 1}}); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := p.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		opts := liveupdate.CompactOptions{Epsilon: 2, Partitions: map[string][]int{"shard0": ids}}
		if newest, err = liveupdate.CompactSnapshot(snap, root, opts); err != nil {
			t.Fatal(err)
		}
		if err := p.Commit(snap); err != nil {
			t.Fatal(err)
		}
	}
	part, err := labelstore.Open(filepath.Join(newest.Dir, "shard0.fsdl"))
	if err != nil {
		t.Fatal(err)
	}
	defer part.Close()

	conn := startRun(t, "-generation-dir", root, "-name", "shard0")
	want := newest.Snapshot.Generation
	if _, gen := pong(t, conn); gen != want {
		t.Fatalf("serving generation %d, the newest is %d", gen, want)
	}
	var req []int32
	for _, v := range ids {
		req = append(req, int32(v))
	}
	for i, r := range labels(t, conn, want, req) {
		sr, ok := part.Stored(ids[i])
		if !ok || !r.Stored || r.Levels.Generation != want || r.Levels.CRC != sr.LevelsCRC ||
			r.Bits != sr.Bits || r.CRC != sr.CRC || string(r.Data) != string(sr.Data) {
			t.Fatalf("vertex %d: %+v, the partition file stores %+v", ids[i], r, sr)
		}
	}
}

// TestRunBootstrapAnswersUnknownUntilSealed: a -bootstrap-n shard holds
// nothing and may deny nothing — every record is Unknown and its pong
// non-authoritative — until the repairer seals it; then absence is
// authoritative.
func TestRunBootstrapAnswersUnknownUntilSealed(t *testing.T) {
	conn := startRun(t, "-bootstrap-n", "16", "-name", "shard3")
	ids := []int32{0, 5, 15}
	if flags, _ := pong(t, conn); flags&cluster.PongNonAuthoritative == 0 {
		t.Fatal("an unsealed bootstrap shard vouches for its absences")
	}
	for _, r := range labels(t, conn, 0, ids) {
		if !r.Unknown || r.Present {
			t.Fatalf("unsealed: vertex %d answered present=%v unknown=%v, want unknown", r.Vertex, r.Present, r.Unknown)
		}
	}
	if op, _ := exchange(t, conn, cluster.OpSeal, nil); op != cluster.OpSealed {
		t.Fatalf("seal answered op %d", op)
	}
	if flags, _ := pong(t, conn); flags != 0 {
		t.Fatalf("sealed shard flags %#x", flags)
	}
	for _, r := range labels(t, conn, 0, ids) {
		if r.Unknown || r.Present {
			t.Fatalf("sealed: vertex %d answered present=%v unknown=%v, want an authoritative absence", r.Vertex, r.Present, r.Unknown)
		}
	}
}

// TestRunPersistKeepsFactoredEncoding: a shard booted from a factored
// partition with -persist writes its repaired store back factored, under
// the same level graphs, so after a restart its records still leave it as
// stored. One record is missing from the partition; a repair pull from a
// replica holding every label installs it and persists.
func TestRunPersistKeepsFactoredEncoding(t *testing.T) {
	g := gen.Grid2D(8, 8)
	s, err := core.BuildScheme(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const missing = 27
	var ids []int
	for v := 0; v < g.NumVertices(); v++ {
		if v != missing {
			ids = append(ids, v)
		}
	}
	write := func(path string, ids []int) *labelstore.Store {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := labelstore.SaveFormat3(f, s, ids, true); err != nil {
			t.Fatal(err)
		}
		f.Close()
		st, err := labelstore.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	part := filepath.Join(dir, "shard0.fsdl")
	boot := write(part, ids).Encoding()

	// The replica the repair pulls from.
	src, err := cluster.NewShardServer(cluster.ShardConfig{Store: write(filepath.Join(dir, "full.fsdl"), nil), Name: "full"})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go src.Serve(ln)
	t.Cleanup(func() { src.Close() })

	conn := startRun(t, "-store", part, "-persist", part, "-name", "shard0")
	op, resp := exchange(t, conn, cluster.OpRepairPull, cluster.AppendRepairRequest(nil, ln.Addr().String(), []int32{missing}))
	if op != cluster.OpRepairPulled {
		t.Fatalf("repair pull answered op %d: %s", op, resp)
	}
	if installed, failed, err := cluster.ParseRepairResponse(resp); err != nil || installed != 1 || failed != 0 {
		t.Fatalf("repair pull installed %d, failed %d (%v)", installed, failed, err)
	}

	st, err := labelstore.Open(part)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if enc := st.Encoding(); enc != boot {
		t.Fatalf("persisted as %+v, booted from %+v", enc, boot)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if _, ok := st.Stored(v); !ok {
			t.Fatalf("vertex %d of the persisted file does not come back as stored", v)
		}
	}
}
