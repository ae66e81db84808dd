package cluster

import (
	"bytes"
	"encoding/binary"
	"net"
	"slices"
	"testing"

	"fsdl/internal/frame"
	"fsdl/internal/labelstore"
)

// shardCall sends one op to the shard at addr and returns its answer.
func shardCall(t *testing.T, addr string, op byte) (byte, []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := frame.Write(conn, op, nil); err != nil {
		t.Fatal(err)
	}
	rop, payload, err := frame.Read(conn)
	if err != nil {
		t.Fatal(err)
	}
	return rop, payload
}

// pingAuthoritative reports whether the shard at addr vouches for its
// absences, as its pong says.
func pingAuthoritative(t *testing.T, addr string) bool {
	t.Helper()
	op, payload := shardCall(t, addr, OpPing)
	_, _, flags, _, err := ParsePong(payload)
	if op != OpPong || err != nil {
		t.Fatalf("ping: op %d, err %v", op, err)
	}
	return flags&PongNonAuthoritative == 0
}

// fsdl2Stream writes st (an FSDL2 store) and returns the stream with
// the offset of each record, in vertex order.
func fsdl2Stream(t *testing.T, st *labelstore.Store) (data []byte, offsets map[int]int) {
	t.Helper()
	var buf bytes.Buffer
	if err := labelstore.Write(&buf, st, st.Vertices()); err != nil {
		t.Fatal(err)
	}
	data = buf.Bytes()
	uvlen := func(x uint64) int { return len(binary.AppendUvarint(nil, x)) }
	offsets = make(map[int]int)
	ids := st.Vertices()
	off := len("FSDL2") + uvlen(uint64(st.NumVertices())) + uvlen(uint64(len(ids)))
	for _, v := range ids {
		offsets[v] = off
		bits, rec, _ := st.Raw(v)
		off += uvlen(uint64(v)) + uvlen(uint64(bits)) + len(rec) + 4
	}
	if off != len(data) {
		t.Fatalf("FSDL2 arithmetic: computed %d bytes, stream has %d", off, len(data))
	}
	return data, offsets
}

// TestAuthoritySwapWindow: a generation swap does not make the store it
// displaces vouch for what it lacks. A request tagged with the old
// generation still answers Unknown for a vertex that store lost in
// salvage, or never held as a bootstrap shell, so a pinned batch fails
// over to a replica instead of reading an authoritative absence.
func TestAuthoritySwapWindow(t *testing.T) {
	_, full := buildFullStore(t, 6)
	const lost = 17
	for name, mk := range map[string]func(t *testing.T) *labelstore.Store{
		"salvaged": func(t *testing.T) *labelstore.Store {
			data, offsets := fsdl2Stream(t, full)
			data[offsets[lost+1]-5] ^= 0x01 // the last payload byte of lost's record
			st, rep, err := labelstore.LoadPartial(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Truncated || !slices.Equal(rep.Corrupt, []int32{lost}) {
				t.Fatalf("salvage report %+v, want exactly [%d] lost", rep, lost)
			}
			return st
		},
		"bootstrap": func(t *testing.T) *labelstore.Store { return mustEmptyStore(t, full.NumVertices()) },
	} {
		t.Run(name, func(t *testing.T) {
			srv, addr := startExtraShard(t, ShardConfig{Store: mk(t), Name: "s", Generation: 1})
			if rec := fetchOne(t, addr, OpGetLabelsGen, 1, lost); rec.Present || !rec.Unknown {
				t.Fatalf("before the swap: present=%v unknown=%v, want unknown", rec.Present, rec.Unknown)
			}
			if pingAuthoritative(t, addr) {
				t.Fatal("before the swap: the shard claims authority")
			}
			if err := srv.InstallGeneration(2, full); err != nil {
				t.Fatal(err)
			}
			if rec := fetchOne(t, addr, OpGetLabelsGen, 1, lost); rec.Present || !rec.Unknown {
				t.Fatalf("generation 1 after the swap: present=%v unknown=%v, want unknown", rec.Present, rec.Unknown)
			}
			if rec := fetchOne(t, addr, OpGetLabelsGen, 2, lost); !rec.Present {
				t.Fatal("generation 2 does not serve the vertex")
			}
			if !pingAuthoritative(t, addr) {
				t.Fatal("the complete generation 2 does not vouch for its absences")
			}
		})
	}
}

// TestAuthorityDamagedIDBytes: salvage report ids come from damaged
// records. Rewriting the first record's vertex byte from 0 to 5 makes
// the report name 5, which the store holds intact, while 0 is the
// vertex lost. The shard answers 0 Unknown — and stays non-authoritative
// — until it is sealed, whatever the report says.
func TestAuthorityDamagedIDBytes(t *testing.T) {
	_, full := buildFullStore(t, 6)
	data, offsets := fsdl2Stream(t, full)
	if data[offsets[0]] != 0 {
		t.Fatalf("first record's vertex byte is %d, want 0", data[offsets[0]])
	}
	data[offsets[0]] = 5
	st, rep, err := labelstore.LoadPartial(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Truncated || !slices.Equal(rep.Corrupt, []int32{5}) || st.Has(0) || !st.Has(5) {
		t.Fatalf("salvage report %+v, Has(0)=%v Has(5)=%v: want [5] reported, 0 lost", rep, st.Has(0), st.Has(5))
	}
	srv, addr := startExtraShard(t, ShardConfig{Store: st, Name: "s"})
	if rec := fetchOne(t, addr, OpGetLabelsGen, 0, 0); rec.Present || !rec.Unknown {
		t.Fatalf("lost vertex 0: present=%v unknown=%v, want unknown", rec.Present, rec.Unknown)
	}
	if rec := fetchOne(t, addr, OpGetLabelsGen, 0, 5); !rec.Present {
		t.Fatal("vertex 5, intact, is not served")
	}
	if pingAuthoritative(t, addr) {
		t.Fatal("a shard that lost a record claims authority")
	}
	if op, _ := shardCall(t, addr, OpSeal); op != OpSealed || !srv.Sealed.Load() {
		t.Fatalf("seal answered op %d", op)
	}
	if rec := fetchOne(t, addr, OpGetLabelsGen, 0, 0); rec.Present || rec.Unknown {
		t.Fatalf("vertex 0 after the seal: present=%v unknown=%v, want an authoritative absence", rec.Present, rec.Unknown)
	}
	if !pingAuthoritative(t, addr) {
		t.Fatal("a sealed shard does not vouch for its absences")
	}
}
