package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runToFile runs the bench CLI capturing output through a temp file (run
// takes *os.File for streaming).
func runToFile(t *testing.T, args ...string) (string, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "out.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	runErr := run(args, f)
	f.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}

func TestBenchSingleExperiment(t *testing.T) {
	out, err := runToFile(t, "-exp", "E6", "-quick")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "E6: Lower bound") {
		t.Errorf("missing experiment header:\n%s", out)
	}
	if !strings.Contains(out, "exact match: true") {
		t.Errorf("missing reconstruction result:\n%s", out)
	}
}

func TestBenchLowercaseID(t *testing.T) {
	if _, err := runToFile(t, "-exp", "e6", "-quick"); err != nil {
		t.Errorf("lowercase id should work: %v", err)
	}
}

func TestBenchUnknownExperiment(t *testing.T) {
	out, err := runToFile(t, "-exp", "E99")
	if err == nil {
		t.Errorf("unknown experiment must error; output:\n%s", out)
	}
	if !strings.Contains(err.Error(), "E1") {
		t.Errorf("error should list valid ids: %v", err)
	}
}

func TestBenchBadFlag(t *testing.T) {
	if _, err := runToFile(t, "-bogus"); err == nil {
		t.Error("bad flag must error")
	}
}

func TestBenchChaosFlag(t *testing.T) {
	out, err := runToFile(t, "-chaos", "-quick")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "E15: Chaos resilience") {
		t.Errorf("-chaos did not run E15:\n%s", out)
	}
	if !strings.Contains(out, "byte-for-byte identical") {
		t.Errorf("chaos run not reproducible:\n%s", out)
	}
	if !strings.Contains(out, "0 safety violations") {
		t.Errorf("degraded decoding violated safety:\n%s", out)
	}
}

func TestBenchChaosConflictsWithExp(t *testing.T) {
	if _, err := runToFile(t, "-chaos", "-exp", "E6"); err == nil {
		t.Error("-chaos with a different -exp must error")
	}
}

// TestPairedGate: the time gate compares the medians of k >= 5 rounds a
// side. A timed row more than 30% over the parent's fails — every round
// of it, not one outlier round — an untimed row never does, and the
// record carries the parent's median beside the change's. A timed row
// the change's rounds lack fails by name, so a rename cannot pass, and
// a row only the change has is listed as new and passes.
func TestPairedGate(t *testing.T) {
	// change maps a parent row to the change's: its name ("" drops it)
	// and its ns/op.
	type change func(round int, name string, ns float64) (string, float64)
	rounds := func(t *testing.T, k int, change change) string {
		t.Helper()
		dir := t.TempDir()
		for i := 0; i < k; i++ {
			for _, side := range []string{"parent", "change"} {
				doc := benchDoc{Schema: "fsdl-bench-v1", CPUs: 2}
				for j, name := range []string{"decode_F16", "new_frame_F4_rgg1024", "server_batch"} {
					ns := float64(1000 * (j + 1))
					if side == "change" {
						if name, ns = change(i, name, ns); name == "" {
							continue
						}
					}
					doc.Results = append(doc.Results, benchResult{Name: name, Iterations: 100, NsPerOp: ns})
				}
				if err := writeDoc(filepath.Join(dir, fmt.Sprintf("%s-%d.json", side, i)), doc, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		return dir
	}
	same := func(_ int, name string, ns float64) (string, float64) { return name, ns }
	rec, err := pairedGate(rounds(t, 5, same), io.Discard)
	if err != nil {
		t.Fatalf("equal rounds: %v", err)
	}
	if r := rec.Results[0]; r.ParentNsPerOp != 1000 || r.NsPerOp != 1000 || rec.CPUs != 2 {
		t.Errorf("record row %+v (cpus %d), want the change's and the parent's median 1000", r, rec.CPUs)
	}
	slower := func(row string, by float64) change {
		return func(_ int, name string, ns float64) (string, float64) {
			if name == row {
				return name, ns * by
			}
			return name, ns
		}
	}
	for name, tc := range map[string]struct {
		change change
		fails  string // the row the gate names, "" when it passes
		logs   string
	}{
		"a decode kernel 50% slower":   {slower("decode_F16", 1.5), "decode_F16", ""},
		"a frame build 40% slower":     {slower("new_frame_F4_rgg1024", 1.4), "new_frame_F4_rgg1024", ""},
		"an untimed row twice as slow": {slower("server_batch", 2), "", ""},
		"one round of three slower": {func(i int, name string, ns float64) (string, float64) {
			if i == 2 {
				return name, ns * 3
			}
			return name, ns
		}, "", ""},
		"a timed row renamed": {func(_ int, name string, ns float64) (string, float64) {
			if name == "decode_F16" {
				return "decode_F16_grid24", ns
			}
			return name, ns
		}, "decode_F16", "| decode_F16_grid24 | — | 1000 | new, not gated |"},
		"a timed row dropped": {func(_ int, name string, ns float64) (string, float64) {
			if name == "new_frame_F4_rgg1024" {
				return "", 0
			}
			return name, ns
		}, "new_frame_F4_rgg1024", ""},
		"an untimed row dropped": {func(_ int, name string, ns float64) (string, float64) {
			if name == "server_batch" {
				return "", 0
			}
			return name, ns
		}, "", ""},
	} {
		var log strings.Builder
		_, err := pairedGate(rounds(t, 5, tc.change), &log)
		if (err != nil) != (tc.fails != "") || tc.fails != "" && !strings.Contains(log.String(), "BENCH REGRESSION "+tc.fails+":") ||
			!strings.Contains(log.String(), tc.logs) {
			t.Errorf("%s: err %v, log:\n%s", name, err, log.String())
		}
	}
	if _, err := pairedGate(rounds(t, 4, same), io.Discard); err == nil {
		t.Error("four rounds a side passed the gate")
	}
}
