package labelstore

import (
	"bytes"
	"encoding/binary"
	"testing"

	"fsdl/internal/core"
	"fsdl/internal/graph"
)

// hostileHeaders are FSDL2 headers that declare a vertex space no file
// could back — 2^36, 2^62, 2^64−1 (negative once an int) — and no
// records: anything a loader sizes from n alone is gigabytes or a
// makeslice panic here.
var hostileHeaders = func() [][]byte {
	var out [][]byte
	for _, n := range []uint64{1 << 36, 1 << 62, 1<<64 - 1} {
		out = append(out, append(binary.AppendUvarint([]byte("FSDL2"), n), 0))
	}
	return out
}()

// FuzzLoad asserts Load never panics or over-allocates on arbitrary input.
func FuzzLoad(f *testing.F) {
	b := graph.NewBuilder(9)
	for i := 0; i+1 < 9; i++ {
		b.AddEdge(i, i+1)
	}
	s, err := core.BuildScheme(b.MustBuild(), 2)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, s, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("FSDL1"))
	f.Add([]byte{})
	for _, h := range hostileHeaders {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A loaded store must answer membership and size queries and
		// decode labels without panicking.
		st.SizeBits()
		for v := 0; v < st.NumVertices() && v < 16; v++ {
			if st.Has(v) {
				st.Label(v)
			}
		}
	})
}

// FuzzLoadPartial asserts the salvage path never panics, never
// over-allocates, and keeps its report consistent with the store it
// returns on arbitrary (often damaged) input.
func FuzzLoadPartial(f *testing.F) {
	b := graph.NewBuilder(9)
	for i := 0; i+1 < 9; i++ {
		b.AddEdge(i, i+1)
	}
	s, err := core.BuildScheme(b.MustBuild(), 2)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, s, nil); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	damaged := append([]byte(nil), good...)
	damaged[len(damaged)/2] ^= 0xff
	f.Add(damaged)
	f.Add(good[:len(good)*2/3])
	f.Add([]byte("FSDL1"))
	f.Add([]byte("FSDL2\x09\x09"))
	f.Add([]byte{})
	for _, h := range hostileHeaders {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, rep, err := LoadPartial(bytes.NewReader(data))
		if err != nil {
			if st != nil || rep != nil {
				t.Fatal("failed salvage still returned results")
			}
			return
		}
		if st.NumLabels() != rep.Kept {
			t.Fatalf("store holds %d labels, report says %d kept", st.NumLabels(), rep.Kept)
		}
		if rep.Kept+len(rep.Corrupt) > rep.Total {
			t.Fatalf("report overcounts: %+v", rep)
		}
		if rep.Lost() != 0 && !rep.Truncated && len(rep.Corrupt) == 0 {
			t.Fatalf("records lost without explanation: %+v", rep)
		}
		// Every salvaged record must decode: that is the whole contract.
		for v := 0; v < st.NumVertices() && v < 16; v++ {
			if !st.Has(v) {
				continue
			}
			if _, err := st.Label(v); err != nil {
				t.Fatalf("salvaged label %d does not decode: %v", v, err)
			}
		}
	})
}
