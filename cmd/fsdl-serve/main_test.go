package main

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fsdl/internal/core"
	"fsdl/internal/gen"
	"fsdl/internal/labelstore"
	"fsdl/internal/liveupdate"
)

// TestRunRejectsBadFlags holds every refusal of run to its message; none
// gets as far as listening, and none opens a file it does not need: the
// -graph named where labels are missing does not exist.
func TestRunRejectsBadFlags(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.fsdl")
	if err := os.WriteFile(garbage, []byte("not a label store"), 0o644); err != nil {
		t.Fatal(err)
	}
	// An FSDL3 magic in front of garbage: it reaches the mapping opener.
	garbage3 := filepath.Join(dir, "garbage.fsdl3")
	if err := os.WriteFile(garbage3, append([]byte("FSDL3"), make([]byte, 8192)...), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.txt")
	emptyRoot := t.TempDir()
	// Labels at ε = 1 served live at the default -eps 2: from a -store
	// beside -graph, and from a resumed generation.
	g := gen.Grid2D(4, 4)
	graphPath, eps1Store := filepath.Join(dir, "g.txt"), filepath.Join(dir, "eps1.fsdl")
	gf, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteTo(gf); err != nil {
		t.Fatal(err)
	}
	gf.Close()
	s, err := core.BuildScheme(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := os.Create(eps1Store)
	if err != nil {
		t.Fatal(err)
	}
	if err := labelstore.Write(sf, labelstore.FromScheme(s), nil); err != nil {
		t.Fatal(err)
	}
	sf.Close()
	eps1Root := t.TempDir()
	p, err := liveupdate.Open(liveupdate.Config{Base: g})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := liveupdate.Compact(p, eps1Root, liveupdate.CompactOptions{Epsilon: 1}); err != nil {
		t.Fatal(err)
	}
	p.Close()
	const epsRefusal = "live: the served labels were built at eps 1, -eps is 2"
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"-store with -cluster", []string{"-store", garbage, "-cluster", missing},
			"-store and -cluster are mutually exclusive"},
		{"no source at all", nil,
			"one of -store, -cluster or -live-root is required"},
		{"-live-root with neither a generation nor -graph", []string{"-live-root", emptyRoot, "-store", garbage},
			"no generation under " + emptyRoot + " yet — provide the base graph with -graph"},
		{"-live-root with -graph but no labels", []string{"-live-root", emptyRoot, "-graph", missing},
			"no generation under " + emptyRoot + " yet — provide labels with -store or -cluster"},
		{"an unreadable -store", []string{"-store", garbage},
			"load " + garbage + ":"},
		{"an unreadable -store, mapped", []string{"-store", garbage3},
			"load " + garbage3 + ":"},
		{"-live-root over a -store built at another eps", []string{"-live-root", t.TempDir(), "-graph", graphPath, "-store", eps1Store},
			epsRefusal},
		{"-live-root resuming a generation built at another eps", []string{"-live-root", eps1Root},
			epsRefusal},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(context.Background(), append(tc.args, "-addr", "127.0.0.1:0"), io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestRunIgnoresStoreBesideGeneration: a boot that resumes a generation
// never reads -store, so a damaged one does not stop it — it gets as far
// as listening, which the address given makes fail; and it leaves no WAL
// open behind that failure.
func TestRunIgnoresStoreBesideGeneration(t *testing.T) {
	root := t.TempDir()
	p, err := liveupdate.Open(liveupdate.Config{Base: gen.Grid2D(4, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := liveupdate.Compact(p, root, liveupdate.CompactOptions{Epsilon: 2}); err != nil {
		t.Fatal(err)
	}
	p.Close()
	garbage := filepath.Join(t.TempDir(), "garbage.fsdl")
	if err := os.WriteFile(garbage, []byte("not a label store"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(context.Background(), []string{"-live-root", root, "-store", garbage, "-addr", "127.0.0.1:-1"}, io.Discard)
	if err == nil || strings.Contains(err.Error(), garbage) || !strings.Contains(err.Error(), "port") {
		t.Fatalf("run = %v, want the listen error and nothing about %s", err, garbage)
	}
	checkWALClosed(t, filepath.Join(root, "mutations.wal"))
}

// checkWALClosed fails unless no descriptor of this process has path open.
func checkWALClosed(t *testing.T, path string) {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to look for open files in: %v", err)
	}
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && target == path {
			t.Fatalf("%s is still open (fd %s)", path, fd.Name())
		}
	}
}

// TestRunDrainsOnCancel boots live mode from -graph and -store on a port
// the system picks, which the startup line names; takes one mutation
// batch over HTTP; and, its context canceled, returns nil with the WAL
// closed — a pipeline reopened on it replays the batch.
func TestRunDrainsOnCancel(t *testing.T) {
	dir, root := t.TempDir(), t.TempDir()
	g := gen.Grid2D(4, 4)
	graphPath, storePath := filepath.Join(dir, "g.txt"), filepath.Join(dir, "labels.fsdl")
	gf, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteTo(gf); err != nil {
		t.Fatal(err)
	}
	gf.Close()
	s, err := core.BuildScheme(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := os.Create(storePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := labelstore.Save(sf, s, nil); err != nil {
		t.Fatal(err)
	}
	sf.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logr, logw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-live-root", root, "-graph", graphPath, "-store", storePath, "-addr", "127.0.0.1:0"}, logw)
		logw.Close()
	}()
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(logr)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "local store on "); ok {
				addr <- a
			}
		}
		close(addr)
	}()
	a, ok := <-addr
	if !ok {
		t.Fatalf("run ended before serving: %v", <-done)
	}
	if strings.HasSuffix(a, ":0") {
		t.Fatalf("the startup line names %s, not the port bound", a)
	}
	resp, err := http.Post("http://"+a+"/v1/mutate", "application/json",
		strings.NewReader(`{"mutations":[{"op":"delete","u":0,"v":1},{"op":"insert","u":0,"v":15}]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %s %s", resp.Status, body)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run after cancel = %v, want nil", err)
	}
	wal := filepath.Join(root, "mutations.wal")
	checkWALClosed(t, wal)
	p, err := liveupdate.Open(liveupdate.Config{Base: g, WALPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Pending() != 2 || p.Seq() != 2 {
		t.Fatalf("reopened pipeline: %d pending at seq %d, want the batch's 2 mutations at seq 2", p.Pending(), p.Seq())
	}
}
