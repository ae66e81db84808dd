package labelstore

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fsdl/internal/core"
	"fsdl/internal/gen"
	"fsdl/internal/graph"
)

// saveV1 hand-rolls the retired FSDL1 container (FSDL2 without the
// per-record checksums), which no writer has produced since PR 1.
func saveV1(t *testing.T, s *core.Scheme) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("FSDL1")
	var scratch [binary.MaxVarintLen64]byte
	wu := func(v uint64) {
		k := binary.PutUvarint(scratch[:], v)
		buf.Write(scratch[:k])
	}
	n := s.Graph().NumVertices()
	wu(uint64(n))
	wu(uint64(n))
	for v := 0; v < n; v++ {
		b, nbits := s.Label(v).Encode()
		wu(uint64(v))
		wu(uint64(nbits))
		buf.Write(b[:(nbits+7)/8])
	}
	return buf.Bytes()
}

// TestLoadRejectsLegacyV1: a well-formed FSDL1 file is refused up
// front as a bad magic by every reader — strict, salvaging, stream or
// file — and never half-read as FSDL2.
func TestLoadRejectsLegacyV1(t *testing.T) {
	raw := saveV1(t, buildScheme(t, gen.Grid2D(5, 5)))
	path := filepath.Join(t.TempDir(), "v1.fsdl")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, errLoad := Load(bytes.NewReader(raw))
	_, _, errPartial := LoadPartial(bytes.NewReader(raw))
	_, errOpen := Open(path)
	_, _, errOpenPartial := OpenPartial(path)
	for name, err := range map[string]error{
		"Load": errLoad, "LoadPartial": errPartial, "Open": errOpen,
		"OpenPartial": errOpenPartial,
	} {
		if err == nil || !strings.Contains(err.Error(), "bad magic") {
			t.Errorf("%s of an FSDL1 file: err = %v, want a bad-magic error", name, err)
		}
	}
}

func TestLoadDetectsBitRot(t *testing.T) {
	g := gen.Grid2D(6, 6)
	s := buildScheme(t, g)
	var buf bytes.Buffer
	if err := Save(&buf, s, nil); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Flip one bit somewhere in the body: the strict loader must refuse
	// the file no matter which record the damage lands in.
	for _, off := range []int{16, len(good) / 2, len(good) - 3} {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x20
		if _, err := Load(bytes.NewReader(bad)); err == nil {
			t.Errorf("bit flip at offset %d went undetected", off)
		}
	}
}

func TestLoadPartialSalvagesAroundDamage(t *testing.T) {
	g := gen.Grid2D(6, 6)
	s := buildScheme(t, g)
	var buf bytes.Buffer
	if err := Save(&buf, s, nil); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0xff
	st, rep, err := LoadPartial(bytes.NewReader(bad))
	if err != nil {
		t.Fatalf("salvage failed outright: %v", err)
	}
	if rep.Kept == 0 {
		t.Fatalf("salvage kept nothing: %+v", rep)
	}
	if rep.Kept >= rep.Total {
		t.Fatalf("salvage claims a damaged file was intact: %+v", rep)
	}
	if !rep.Truncated && len(rep.Corrupt) == 0 {
		t.Fatalf("records lost but neither Corrupt nor Truncated set: %+v", rep)
	}
	if st.NumLabels() != rep.Kept {
		t.Fatalf("store holds %d labels but report says %d kept", st.NumLabels(), rep.Kept)
	}
	// Every salvaged label must decode cleanly.
	for v := 0; v < st.NumVertices(); v++ {
		if !st.Has(v) {
			continue
		}
		if _, err := st.Label(v); err != nil {
			t.Fatalf("salvaged label %d does not decode: %v", v, err)
		}
	}
}

func TestLoadPartialTruncatedFile(t *testing.T) {
	g := gen.Grid2D(5, 5)
	s := buildScheme(t, g)
	var buf bytes.Buffer
	if err := Save(&buf, s, nil); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()*2/3]
	st, rep, err := LoadPartial(bytes.NewReader(cut))
	if err != nil {
		t.Fatalf("salvage of truncated file failed outright: %v", err)
	}
	if !rep.Truncated {
		t.Fatalf("truncation not reported: %+v", rep)
	}
	if rep.Kept == 0 || rep.Kept >= rep.Total {
		t.Fatalf("implausible salvage from a 2/3 file: %+v", rep)
	}
	if st.NumLabels() != rep.Kept {
		t.Fatalf("store/report disagree: %d vs %+v", st.NumLabels(), rep)
	}
}

// TestStoreKeepsSalvageReport: a store a salvaging open produced — from
// an FSDL2 stream or a mapped FSDL3 file — hands back the very report the
// open returned, damaged or not; a strict open's store has none.
func TestStoreKeepsSalvageReport(t *testing.T) {
	s := buildScheme(t, gen.Grid2D(5, 5))
	var buf bytes.Buffer
	if err := Save(&buf, s, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "labels.fsdl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(f, FromScheme(s), nil); err != nil {
		t.Fatal(err)
	}
	f.Close()
	strict, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	for name, st := range map[string]*Store{"Load": strict, "Open": mapped} {
		if rep := st.Salvage(); rep != nil {
			t.Errorf("%s: store reports salvage %+v", name, rep)
		}
	}
	whole, wholeRep, err := OpenPartial(path)
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Close()
	cut, cutRep, err := LoadPartial(bytes.NewReader(buf.Bytes()[:buf.Len()*2/3]))
	if err != nil {
		t.Fatal(err)
	}
	if whole.Salvage() != wholeRep || wholeRep.Lost() != 0 {
		t.Errorf("OpenPartial of an intact file: store reports %+v, the open %+v", whole.Salvage(), wholeRep)
	}
	if cut.Salvage() != cutRep || !cutRep.Truncated {
		t.Errorf("LoadPartial of a cut stream: store reports %+v, the load %+v", cut.Salvage(), cutRep)
	}
}

// TestDistanceRobustFromSalvagedStore closes the loop: a store missing a
// fault's label still answers, flags the degradation, and never
// undercuts the exact baseline.
func TestDistanceRobustFromSalvagedStore(t *testing.T) {
	g := gen.Grid2D(6, 6)
	s := buildScheme(t, g)

	// Save every label except vertex 14's — the same shape a salvage that
	// dropped record 14 produces.
	kept := make([]int, 0, 35)
	for v := 0; v < 36; v++ {
		if v != 14 {
			kept = append(kept, v)
		}
	}
	var buf bytes.Buffer
	if err := Save(&buf, s, kept); err != nil {
		t.Fatal(err)
	}
	st, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	faults := graph.NewFaultSet()
	faults.AddVertex(14)
	faults.AddVertex(21)
	truth := g.DistAvoiding(0, 35, faults)

	// The strict path refuses the query outright.
	if _, _, err := st.Distance(0, 35, faults); err == nil {
		t.Fatal("strict Distance answered with a missing fault label")
	}
	res, err := st.DistanceRobust(0, 35, faults, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatalf("missing fault label not flagged: %+v", res)
	}
	if len(res.MissingFaultLabels) != 1 || res.MissingFaultLabels[0] != 14 {
		t.Fatalf("MissingFaultLabels = %v, want [14]", res.MissingFaultLabels)
	}
	if res.OK && res.Dist < int64(truth) {
		t.Fatalf("degraded store answer %d below true %d", res.Dist, truth)
	}

	// With every label present the robust path is not degraded and agrees
	// with the strict one.
	var full bytes.Buffer
	if err := Save(&full, s, nil); err != nil {
		t.Fatal(err)
	}
	stFull, err := Load(&full)
	if err != nil {
		t.Fatal(err)
	}
	strict, strictOK, err := stFull.Distance(0, 35, faults)
	if err != nil {
		t.Fatal(err)
	}
	res, err = stFull.DistanceRobust(0, 35, faults, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || res.OK != strictOK || (strictOK && res.Dist != strict) {
		t.Fatalf("healthy robust query %+v disagrees with strict (%d,%v)", res, strict, strictOK)
	}
}
