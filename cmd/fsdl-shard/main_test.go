package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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
		{"a -store that does not exist", []string{"-store", missing, "-mmap"},
			"load " + missing + ":"},
		{"an empty -generation-dir", []string{"-generation-dir", emptyGens, "-name", "s0"},
			"no intact generation under " + emptyGens},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(append(tc.args, "-addr", "127.0.0.1:0"))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
			}
		})
	}
}
