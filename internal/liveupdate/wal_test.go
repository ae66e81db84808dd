package liveupdate

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func sampleRecords() []Record {
	return []Record{
		{Seq: 1, Mut: Mutation{Op: MutInsert, U: 3, V: 9}},
		{Seq: 2, Mut: Mutation{Op: MutDelete, U: 0, V: 1}},
		{Seq: 2, Compaction: true, Generation: 2},
		{Seq: 3, Mut: Mutation{Op: MutInsert, U: 1 << 20, V: 7}},
	}
}

func TestWALRecordRoundTrip(t *testing.T) {
	var buf []byte
	for _, r := range sampleRecords() {
		buf = AppendRecord(buf, r)
	}
	recs, tornAt := DecodeRecords(buf)
	if tornAt != len(buf) {
		t.Fatalf("clean log reported torn at %d/%d", tornAt, len(buf))
	}
	want := sampleRecords()
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, recs[i], want[i])
		}
	}
}

func TestWALTornTail(t *testing.T) {
	var buf []byte
	for _, r := range sampleRecords() {
		buf = AppendRecord(buf, r)
	}
	whole := len(buf)
	// Append a record and tear it at every possible length: decode must
	// keep the intact prefix and report the tear at the boundary.
	torn := AppendRecord(bytes.Clone(buf), Record{Seq: 9, Mut: Mutation{Op: MutDelete, U: 5, V: 6}})
	for cut := whole + 1; cut < len(torn); cut++ {
		recs, tornAt := DecodeRecords(torn[:cut])
		if tornAt != whole {
			t.Fatalf("cut %d: torn at %d, want %d", cut, tornAt, whole)
		}
		if len(recs) != len(sampleRecords()) {
			t.Fatalf("cut %d: kept %d records", cut, len(recs))
		}
	}
	// A bit flip inside a record stops replay at that record.
	flipped := bytes.Clone(torn)
	flipped[whole+10] ^= 0x40
	if _, tornAt := DecodeRecords(flipped); tornAt != whole {
		t.Fatalf("bit flip: torn at %d, want %d", tornAt, whole)
	}
}

func TestWALOpenAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mutations.wal")
	w, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh WAL replayed %d records", len(recs))
	}
	muts := []Mutation{{Op: MutInsert, U: 1, V: 2}, {Op: MutDelete, U: 3, V: 4}}
	seq, err := w.Append(muts)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("seq = %d, want 2", seq)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if w.FlushedTotal() != 1 {
		t.Fatalf("flushes = %d, want 1", w.FlushedTotal())
	}
	if err := w.AppendCompaction(2, seq); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]Mutation{{Op: MutInsert, U: 5, V: 6}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(muts); err == nil {
		t.Fatal("append after close succeeded")
	}

	// Reopen: all records come back, sequence resumes.
	w2, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(recs) != 4 {
		t.Fatalf("replayed %d records, want 4", len(recs))
	}
	if !recs[2].Compaction || recs[2].Generation != 2 || recs[2].Seq != 2 {
		t.Fatalf("compaction marker = %+v", recs[2])
	}
	if w2.Seq() != 3 {
		t.Fatalf("resumed seq = %d, want 3", w2.Seq())
	}
	if seq, err := w2.Append([]Mutation{{Op: MutDelete, U: 7, V: 8}}); err != nil || seq != 4 {
		t.Fatalf("append after reopen: seq=%d err=%v", seq, err)
	}
}

func TestWALOpenTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mutations.wal")
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]Mutation{{Op: MutInsert, U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: half a frame at the tail.
	half := AppendRecord(nil, Record{Seq: 2, Mut: Mutation{Op: MutInsert, U: 3, V: 4}})
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(half[:len(half)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("replay after tear = %+v", recs)
	}
	// The torn bytes are gone from disk: appending then reopening gives
	// a clean two-record log.
	if seq, err := w2.Append([]Mutation{{Op: MutDelete, U: 1, V: 2}}); err != nil || seq != 2 {
		t.Fatalf("append after tear: seq=%d err=%v", seq, err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	w3, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if len(recs) != 2 {
		t.Fatalf("final replay = %d records, want 2", len(recs))
	}
}

// TestWALAppendAllocs: journaling a batch and syncing it allocates
// nothing once the WAL's encode buffer has grown to the batch — the
// group-commit path fsdl-bench times as wal_append_group. What was
// appended still replays record for record.
func TestWALAppendAllocs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.wal")
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	muts := []Mutation{
		{Op: MutInsert, U: 0, V: 1}, {Op: MutDelete, U: 0, V: 1},
		{Op: MutInsert, U: 1 << 30, V: 2}, {Op: MutDelete, U: 0, V: 1<<31 - 1},
	}
	batch := func() {
		if _, err := w.Append(muts); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	batch()
	if allocs := testing.AllocsPerRun(50, batch); allocs != 0 {
		t.Errorf("Append + Sync: %g allocs per batch, want 0", allocs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 52*len(muts) {
		t.Fatalf("replayed %d records, want %d", len(recs), 52*len(muts))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || r.Mut != muts[i%len(muts)] {
			t.Fatalf("record %d = %+v, want seq %d %+v", i, r, i+1, muts[i%len(muts)])
		}
	}
}
