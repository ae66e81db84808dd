package main

import (
	"bufio"
	"context"
	"encoding/json"
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

// writeInputs writes the 4×4 grid and its labels at eps as fsdl-serve's
// -graph and -store.
func writeInputs(t *testing.T, eps float64) (graphPath, storePath string) {
	t.Helper()
	dir := t.TempDir()
	g := gen.Grid2D(4, 4)
	graphPath, storePath = filepath.Join(dir, "g.txt"), filepath.Join(dir, "labels.fsdl")
	gf, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteTo(gf); err != nil {
		t.Fatal(err)
	}
	gf.Close()
	s, err := core.BuildScheme(g, eps)
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
	return graphPath, storePath
}

// serve starts run with args on a port the system picks, and returns the
// address the startup line names and a stop that cancels run and returns
// what it returned.
func serve(t *testing.T, args ...string) (addr string, stop func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	logr, logw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, append(args, "-addr", "127.0.0.1:0"), logw)
		logw.Close()
	}()
	addrs := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(logr)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "local store on "); ok {
				addrs <- a
			}
		}
		close(addrs)
	}()
	stop = func() error {
		cancel()
		return <-done
	}
	a, ok := <-addrs
	if !ok {
		t.Fatalf("run ended before serving: %v", stop())
	}
	return a, stop
}

// post sends body to the server at addr and returns the 200 answer's
// body.
func post(t *testing.T, addr, path, body string) []byte {
	t.Helper()
	resp, err := http.Post("http://"+addr+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s %s", path, resp.Status, out)
	}
	return out
}

// TestRunCompactsAtLabelEpsilon: live mode over labels built at ε = 1 —
// a -store beside -graph, or a resumed generation — compacts at ε = 1,
// the precision it serves, with no flag saying so.
func TestRunCompactsAtLabelEpsilon(t *testing.T) {
	graphPath, storePath := writeInputs(t, 1)
	resumed := t.TempDir()
	p, err := liveupdate.Open(liveupdate.Config{Base: gen.Grid2D(4, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := liveupdate.Compact(p, resumed, liveupdate.CompactOptions{Epsilon: 1}); err != nil {
		t.Fatal(err)
	}
	p.Close()
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"-store beside -graph", []string{"-live-root", t.TempDir(), "-graph", graphPath, "-store", storePath}},
		{"a resumed generation", []string{"-live-root", resumed}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, stop := serve(t, tc.args...)
			post(t, addr, "/v1/mutate", `{"mutations":[{"op":"delete","u":0,"v":1}]}`)
			var res struct{ Dir string }
			if err := json.Unmarshal(post(t, addr, "/v1/compact", ""), &res); err != nil {
				t.Fatal(err)
			}
			if err := stop(); err != nil {
				t.Fatalf("run after cancel = %v, want nil", err)
			}
			st, err := labelstore.Open(filepath.Join(res.Dir, liveupdate.LabelsFileName))
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			l, err := st.Label(0)
			if err != nil {
				t.Fatal(err)
			}
			if l.Epsilon != 1 {
				t.Fatalf("the compaction built labels at eps %g, want 1", l.Epsilon)
			}
		})
	}
}

// TestRunDrainsOnCancel boots live mode from -graph and -store on a port
// the system picks, which the startup line names; takes one mutation
// batch over HTTP; and, its context canceled, returns nil with the WAL
// closed — a pipeline reopened on it replays the batch.
func TestRunDrainsOnCancel(t *testing.T) {
	root := t.TempDir()
	graphPath, storePath := writeInputs(t, 2)
	a, stop := serve(t, "-live-root", root, "-graph", graphPath, "-store", storePath)
	if strings.HasSuffix(a, ":0") {
		t.Fatalf("the startup line names %s, not the port bound", a)
	}
	post(t, a, "/v1/mutate", `{"mutations":[{"op":"delete","u":0,"v":1},{"op":"insert","u":0,"v":15}]}`)
	if err := stop(); err != nil {
		t.Fatalf("run after cancel = %v, want nil", err)
	}
	wal := filepath.Join(root, "mutations.wal")
	checkWALClosed(t, wal)
	p, err := liveupdate.Open(liveupdate.Config{Base: gen.Grid2D(4, 4), WALPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Pending() != 2 || p.Seq() != 2 {
		t.Fatalf("reopened pipeline: %d pending at seq %d, want the batch's 2 mutations at seq 2", p.Pending(), p.Seq())
	}
}
