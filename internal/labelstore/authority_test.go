package labelstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"slices"
	"testing"

	"fsdl/internal/core"
	"fsdl/internal/gen"
)

// TestAuthorityLocalLabel: a store that lost a record on open cannot
// vouch for any absence until Seal. Label of the lost vertex is an error
// that is not core.ErrNoLabel (so a local server answers 503, not 404);
// a Put serves the vertex again without restoring authority; after Seal
// a vertex the store lacks is authoritatively absent. NewEmpty — the
// bootstrap state — follows the same rule, and a strict load of a subset
// is authoritative from the start.
func TestAuthorityLocalLabel(t *testing.T) {
	g := gen.Grid2D(6, 6)
	s := buildScheme(t, g)
	const lost, lacked = 17, 30
	var kept []int
	for v := range g.NumVertices() {
		if v != lacked {
			kept = append(kept, v)
		}
	}
	var buf bytes.Buffer
	if err := Save(&buf, s, kept); err != nil {
		t.Fatal(err)
	}
	strict, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := strict.Label(lacked); !errors.Is(err, core.ErrNoLabel) {
		t.Errorf("strict store: Label(%d) = %v, want core.ErrNoLabel", lacked, err)
	}
	if strict.Unknown(lacked) || !strict.Authoritative() {
		t.Errorf("strict store: Unknown(%d)=%v Authoritative=%v, want an authoritative absence",
			lacked, strict.Unknown(lacked), strict.Authoritative())
	}

	// One flipped payload byte of the lost vertex's record: the framing
	// holds, the report lists the vertex, nothing is truncated.
	ids, offsets := recordOffsets(t, strict, buf.Bytes())
	i := slices.Index(ids, lost)
	bad := slices.Clone(buf.Bytes())
	bad[offsets[i+1]-5] ^= 0x01
	st, rep, err := LoadPartial(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Truncated || !slices.Equal(rep.Corrupt, []int32{lost}) {
		t.Fatalf("salvage report %+v, want exactly [%d] lost and no truncation", rep, lost)
	}
	for _, v := range []int{lost, lacked} {
		if _, err := st.Label(v); err == nil || errors.Is(err, core.ErrNoLabel) {
			t.Errorf("salvaged store: Label(%d) = %v, want an error that is not core.ErrNoLabel", v, err)
		}
		if !st.Unknown(v) {
			t.Errorf("salvaged store: vertex %d not Unknown", v)
		}
	}
	if st.Unknown(0) || st.Authoritative() {
		t.Errorf("salvaged store: Unknown(0)=%v Authoritative=%v, want a served vertex and no authority",
			st.Unknown(0), st.Authoritative())
	}

	bits, data, _ := strict.Raw(lost)
	if err := st.Put(lost, bits, data); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Label(lost); err != nil || st.Unknown(lost) {
		t.Errorf("after Put: Label(%d) err %v, Unknown=%v", lost, err, st.Unknown(lost))
	}
	if st.Authoritative() || !st.Unknown(lacked) {
		t.Errorf("after Put, before Seal: Authoritative=%v Unknown(%d)=%v, want no authority yet",
			st.Authoritative(), lacked, st.Unknown(lacked))
	}
	st.Seal()
	if !st.Authoritative() || st.Unknown(lacked) {
		t.Errorf("after Seal: Authoritative=%v Unknown(%d)=%v", st.Authoritative(), lacked, st.Unknown(lacked))
	}
	if _, err := st.Label(lacked); !errors.Is(err, core.ErrNoLabel) {
		t.Errorf("after Seal: Label(%d) = %v, want core.ErrNoLabel", lacked, err)
	}

	empty, err := NewEmpty(g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.Label(3); err == nil || errors.Is(err, core.ErrNoLabel) || !empty.Unknown(3) || empty.Authoritative() {
		t.Errorf("bootstrap store: Label(3) = %v, Unknown=%v Authoritative=%v, want no authority",
			err, empty.Unknown(3), empty.Authoritative())
	}
	empty.Seal()
	if _, err := empty.Label(3); !errors.Is(err, core.ErrNoLabel) || empty.Unknown(3) || !empty.Authoritative() {
		t.Errorf("sealed bootstrap store: Label(3) = %v, Unknown=%v Authoritative=%v", err, empty.Unknown(3), empty.Authoritative())
	}
}

// TestAuthoritySealForgivesKnownDamage: a damaged FSDL3 index entry whose
// id the store will never be repaired into — out of range (1000 on a
// grid of 36), or another shard's vertex (33 in a file of 0..29) — costs
// the store its authority only until the seal. The salvaging open loses
// the entry's own vertex; a Put heals that, and Seal then leaves the
// store authoritative, the damaged id still Unknown. Damage found after
// the seal counts again, until a Put heals it.
func TestAuthoritySealForgivesKnownDamage(t *testing.T) {
	g := gen.Grid2D(6, 6)
	s := buildScheme(t, g)
	dir := t.TempDir()
	for _, c := range []struct {
		name    string
		held    int
		damaged int32
	}{
		{"out of range", 36, 1000},
		{"foreign", 30, 33},
	} {
		t.Run(c.name, func(t *testing.T) {
			var ids []int
			for v := range c.held {
				ids = append(ids, v)
			}
			path := writeFormat3File(t, dir, c.name+".fsdl", s, ids)
			intact, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer intact.Close()
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// The last index entry's vertex id.
			lost := c.held - 1
			at := format3Page + lost*format3EntryLen
			if v := binary.LittleEndian.Uint32(raw[at:]); v != uint32(lost) {
				t.Fatalf("last index entry names vertex %d, want %d", v, lost)
			}
			binary.LittleEndian.PutUint32(raw[at:], uint32(c.damaged))
			bad := path + ".damaged"
			if err := os.WriteFile(bad, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			st, rep, err := OpenPartial(bad)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if !slices.Equal(rep.Corrupt, []int32{c.damaged}) || st.Has(lost) {
				t.Fatalf("salvage report %+v, Has(%d)=%v: want [%d] damaged and %d lost", rep, lost, st.Has(lost), c.damaged, lost)
			}
			put := func(v int) {
				t.Helper()
				bits, data, ok := intact.Raw(v)
				if !ok {
					t.Fatalf("the intact file lacks %d", v)
				}
				if err := st.Put(v, bits, data); err != nil {
					t.Fatal(err)
				}
			}
			put(lost)
			if st.Authoritative() {
				t.Fatal("authoritative before the seal")
			}
			st.Seal()
			if !st.Authoritative() {
				t.Fatalf("sealed with %d healed: not authoritative, the damage on %d not forgiven", lost, c.damaged)
			}
			if int(c.damaged) < st.NumVertices() && !st.Unknown(int(c.damaged)) {
				t.Errorf("forgiven damaged vertex %d is not Unknown", c.damaged)
			}
			if st.Unknown(lost) {
				t.Errorf("healed vertex %d Unknown", lost)
			}
			if c.held < st.NumVertices() && st.Unknown(c.held) {
				t.Errorf("after the seal, absent vertex %d is Unknown", c.held)
			}

			// A read condemns vertex 5's record after the seal.
			st.f3.markCorrupt(5)
			if st.Authoritative() || !st.Unknown(5) {
				t.Fatalf("damage after the seal: Authoritative=%v Unknown(5)=%v, want no authority", st.Authoritative(), st.Unknown(5))
			}
			put(5)
			if !st.Authoritative() {
				t.Fatal("damage after the seal healed by a Put: not authoritative")
			}
		})
	}
}
