package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fsdl/internal/gen"
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
		{"an unreadable -store, mapped", []string{"-store", garbage, "-mmap"},
			"load " + garbage + ":"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(append(tc.args, "-addr", "127.0.0.1:0"))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestRunIgnoresStoreBesideGeneration: a boot that resumes a generation
// never reads -store, so a damaged one does not stop it — it gets as far
// as listening, which the address given makes fail.
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
	err = run([]string{"-live-root", root, "-store", garbage, "-addr", "127.0.0.1:-1"})
	if err == nil || strings.Contains(err.Error(), garbage) || !strings.Contains(err.Error(), "port") {
		t.Fatalf("run = %v, want the listen error and nothing about %s", err, garbage)
	}
}
