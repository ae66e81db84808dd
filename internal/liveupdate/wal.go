// Package liveupdate is the ingestion side of the live-update
// pipeline: it accepts streaming edge insert/delete mutations against
// a served graph, journals them to a CRC-framed write-ahead log, and
// tracks the accumulated delta until a background compaction bakes it
// into a fresh label generation.
//
// Mutations are applied in two tiers, following the paper's own
// machinery. Deletions ride the forbidden-set path immediately: a
// deleted edge becomes an implicit soft fault merged into every
// query's fault set, so answers stay upper bounds on d_{G\F} from the
// moment the mutation is journaled (the lazy-failure-set trick
// oracle.Dynamic already uses). Insertions cannot be expressed as
// faults; they are served as query-time patches — a bounded set of
// unit edges added to each query's sketch graph (core/patched.go),
// still a sound upper bound — and accumulate toward compaction, which
// rebuilds labels on the mutated graph and swaps the new generation in
// with zero downtime.
package liveupdate

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fsdl/internal/frame"
	"fsdl/internal/labelstore"
)

// MutOp is the kind of an edge mutation.
type MutOp uint8

const (
	// MutInsert adds an undirected edge between two existing vertices.
	MutInsert MutOp = iota + 1
	// MutDelete removes an existing undirected edge.
	MutDelete
)

func (op MutOp) String() string {
	switch op {
	case MutInsert:
		return "insert"
	case MutDelete:
		return "delete"
	default:
		return fmt.Sprintf("MutOp(%d)", uint8(op))
	}
}

// Mutation is one streamed edge change. U and V are vertex ids in the
// served graph's id space; the edge is undirected, so (U,V) and (V,U)
// are the same mutation.
type Mutation struct {
	Op   MutOp
	U, V int32
}

// WAL frame ops. The log reuses the shared frame codec the cluster
// wire protocol speaks (internal/frame: magic, version, op, length,
// payload, CRC32-IEEE), so a torn tail or a
// bit-flipped record is detected by the same checksum discipline that
// guards label records on disk and frames in flight. The op values
// live above the wire-protocol range so a WAL file can never be
// mistaken for a protocol capture.
const (
	// WalOpInsert / WalOpDelete journal one mutation:
	// uvarint seq, uvarint u, uvarint v.
	WalOpInsert byte = 0x20
	WalOpDelete byte = 0x21
	// WalOpCompaction marks that every mutation with sequence ≤ seq is
	// baked into label generation gen: uvarint seq, uvarint gen.
	// Replay starts after the last marker.
	WalOpCompaction byte = 0x22
)

// Record is one decoded WAL entry: either a mutation or a compaction
// marker.
type Record struct {
	// Seq is the record's sequence number. Mutation sequences are
	// assigned contiguously from 1; a compaction marker's Seq is the
	// last mutation sequence the named generation bakes in.
	Seq uint64
	// Mut is the mutation (zero when Compaction is set).
	Mut Mutation
	// Compaction marks a compaction record; Generation is the label
	// generation the marker commits.
	Compaction bool
	Generation uint64
}

// AppendRecordPayload encodes r's frame payload (without the framing).
func AppendRecordPayload(dst []byte, r Record) []byte {
	dst = binary.AppendUvarint(dst, r.Seq)
	if r.Compaction {
		return binary.AppendUvarint(dst, r.Generation)
	}
	dst = binary.AppendUvarint(dst, uint64(uint32(r.Mut.U)))
	return binary.AppendUvarint(dst, uint64(uint32(r.Mut.V)))
}

// recordOp returns the frame op byte for r.
func recordOp(r Record) byte {
	switch {
	case r.Compaction:
		return WalOpCompaction
	case r.Mut.Op == MutInsert:
		return WalOpInsert
	default:
		return WalOpDelete
	}
}

// AppendRecord appends r as one complete WAL frame. The payload is
// encoded on the stack: a record is at most three varints.
func AppendRecord(dst []byte, r Record) []byte {
	var payload [3 * binary.MaxVarintLen64]byte
	return frame.Append(dst, recordOp(r), AppendRecordPayload(payload[:0], r))
}

// ParseRecordPayload decodes the payload of a WAL frame with the given
// op. It rejects trailing bytes, out-of-range ids and non-canonical
// (non-minimal) varint encodings — the journal only ever decodes
// bytes it wrote, so any record that would not re-encode byte-
// identically is corruption, not a dialect.
func ParseRecordPayload(op byte, payload []byte) (r Record, err error) {
	orig := payload
	defer func() {
		if err == nil && !bytes.Equal(AppendRecordPayload(nil, r), orig) {
			err = fmt.Errorf("liveupdate: wal record: non-canonical encoding")
		}
	}()
	seq, k := binary.Uvarint(payload)
	if k <= 0 {
		return r, fmt.Errorf("liveupdate: wal record: bad sequence")
	}
	payload = payload[k:]
	r.Seq = seq
	switch op {
	case WalOpCompaction:
		gen, k := binary.Uvarint(payload)
		if k <= 0 {
			return r, fmt.Errorf("liveupdate: wal record: bad generation")
		}
		if len(payload[k:]) != 0 {
			return r, fmt.Errorf("liveupdate: wal record: trailing bytes")
		}
		r.Compaction = true
		r.Generation = gen
		return r, nil
	case WalOpInsert, WalOpDelete:
		u, k := binary.Uvarint(payload)
		if k <= 0 || u > math.MaxInt32 {
			return r, fmt.Errorf("liveupdate: wal record: bad vertex u")
		}
		payload = payload[k:]
		v, k := binary.Uvarint(payload)
		if k <= 0 || v > math.MaxInt32 {
			return r, fmt.Errorf("liveupdate: wal record: bad vertex v")
		}
		if len(payload[k:]) != 0 {
			return r, fmt.Errorf("liveupdate: wal record: trailing bytes")
		}
		r.Mut = Mutation{Op: MutInsert, U: int32(u), V: int32(v)}
		if op == WalOpDelete {
			r.Mut.Op = MutDelete
		}
		return r, nil
	default:
		return r, fmt.Errorf("liveupdate: wal record: unknown op %d", op)
	}
}

// DecodeRecords parses every intact WAL frame at the front of buf. A
// clean end of input stops the scan with tornAt == len(buf); a framing
// break or checksum failure stops it at the offset of the first broken
// frame (the torn tail a crashed writer leaves behind). Bytes past
// tornAt are unreliable and must be truncated, never replayed.
func DecodeRecords(buf []byte) (recs []Record, tornAt int) {
	off := 0
	for len(buf) > 0 {
		op, payload, rest, err := frame.Decode(buf)
		if err != nil {
			return recs, off
		}
		r, err := ParseRecordPayload(op, payload)
		if err != nil {
			return recs, off
		}
		off += len(buf) - len(rest)
		buf = rest
		recs = append(recs, r)
	}
	return recs, off
}

// SegmentInfo describes one sealed WAL segment on disk.
type SegmentInfo struct {
	// Path is the segment file's path ("<wal>.<index>").
	Path string
	// Index is the segment's monotone rotation index.
	Index uint64
	// FirstSeq and LastSeq bound the record sequences the segment
	// holds (0/0 for an empty segment, which rotation never produces).
	FirstSeq, LastSeq uint64
	// Bytes is the segment file's size.
	Bytes int64
	// Sealed is when the segment was rotated out (file mtime).
	Sealed time.Time
}

// WALStats summarizes the journal's on-disk state for status surfaces.
type WALStats struct {
	// Segments counts sealed segments currently retained.
	Segments int
	// OldestSealed is the seal time of the oldest retained segment
	// (zero when none) — its age is the journal's compaction debt
	// horizon.
	OldestSealed time.Time
	// ActiveBytes is the size of the active (unsealed) segment.
	ActiveBytes int64
	// Seq is the last sequence number written; Flushes counts
	// completed fsyncs.
	Seq     uint64
	Flushes int64
}

// WAL is a file-backed mutation journal, rotated into sealed segments.
// The active segment lives at the configured path; every compaction
// marker seals it (fsync, then an atomic rename to "<path>.<index>")
// and starts a fresh active file, so the journal's tail — the only
// part a restart replays — stays short regardless of uptime. Sealed
// segments are retained until Prune drops those fully covered by the
// oldest label generation still live, and are immutable: a torn frame
// inside one is corruption, never a legal crash artifact (only the
// active segment may end mid-frame).
//
// Appends go straight to the file descriptor; Sync fsyncs with group
// commit — concurrent callers elect a leader whose single fsync covers
// every record appended before it started, and the rest return without
// touching the disk. The flush counter behind FlushedTotal feeds the
// fsdl_wal_flushed_total metric so an operator can confirm the final
// flush happened before a restart.
//
// A WAL is safe for concurrent use.
type WAL struct {
	mu        sync.Mutex // serializes appends, rotation, metadata
	f         *os.File   // active segment
	path      string
	seq       uint64 // last sequence number written
	nextIndex uint64 // rotation index of the next sealed segment
	sealed    []SegmentInfo
	closed    bool
	buf       []byte // Append's encode buffer, kept between batches

	// Group commit: appends take a ticket; Sync fsyncs only when the
	// flushed ticket lags the append ticket, and one fsync flushes
	// every ticket issued before it. syncMu elects the fsync leader
	// without blocking appends.
	syncMu        sync.Mutex
	appendTicket  atomic.Uint64
	flushedTicket atomic.Uint64
	flushes       atomic.Int64
}

// segmentPath names sealed segment files: "<wal path>.<16-digit index>".
func segmentPath(path string, index uint64) string {
	return fmt.Sprintf("%s.%016d", path, index)
}

// listSegments finds the sealed segments of the journal at path,
// sorted by rotation index.
func listSegments(path string) ([]SegmentInfo, error) {
	matches, err := filepath.Glob(path + ".*")
	if err != nil {
		return nil, err
	}
	var segs []SegmentInfo
	for _, m := range matches {
		suffix := m[len(path)+1:]
		if len(suffix) != 16 {
			continue // not a segment (e.g. a temp file)
		}
		idx, err := strconv.ParseUint(suffix, 10, 64)
		if err != nil {
			continue
		}
		fi, err := os.Stat(m)
		if err != nil {
			return nil, err
		}
		segs = append(segs, SegmentInfo{Path: m, Index: idx, Bytes: fi.Size(), Sealed: fi.ModTime()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Index < segs[j].Index })
	return segs, nil
}

// OpenWAL opens (or creates) the journal at path and replays it:
// every sealed segment in rotation order, then the active file.
// Records beyond a torn tail of the active segment — a partial frame
// from a crash mid-append — are discarded and the file is truncated
// to the last intact frame, so a restart never replays garbage. A
// torn or corrupt frame inside a sealed segment fails the open:
// sealed content was fsynced before the rename, so damage there is
// real corruption. The returned records are every intact entry in
// order; the caller filters against the last compaction marker.
func OpenWAL(path string) (*WAL, []Record, error) {
	segs, err := listSegments(path)
	if err != nil {
		return nil, nil, err
	}
	var recs []Record
	w := &WAL{path: path}
	for i := range segs {
		seg := &segs[i]
		buf, err := os.ReadFile(seg.Path)
		if err != nil {
			return nil, nil, err
		}
		rs, tornAt := DecodeRecords(buf)
		if tornAt < len(buf) {
			return nil, nil, fmt.Errorf("liveupdate: sealed wal segment %s corrupt at offset %d", seg.Path, tornAt)
		}
		if len(rs) > 0 {
			seg.FirstSeq, seg.LastSeq = rs[0].Seq, maxSeq(rs)
		}
		recs = append(recs, rs...)
		w.nextIndex = seg.Index + 1
	}
	w.sealed = segs
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	rs, tornAt := DecodeRecords(buf)
	if tornAt < len(buf) {
		if err := f.Truncate(int64(tornAt)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("liveupdate: truncate torn wal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(int64(tornAt), 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	recs = append(recs, rs...)
	w.f = f
	for _, r := range recs {
		if r.Seq > w.seq {
			w.seq = r.Seq
		}
	}
	return w, recs, nil
}

func maxSeq(rs []Record) uint64 {
	var m uint64
	for _, r := range rs {
		if r.Seq > m {
			m = r.Seq
		}
	}
	return m
}

// Append journals muts, assigning each the next sequence number, and
// returns the last sequence written. The records are written in one
// contiguous byte range but not yet fsynced — call Sync before
// acknowledging the batch; concurrent batches share the leader's
// fsync.
func (w *WAL) Append(muts []Mutation) (seq uint64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.seq, fmt.Errorf("liveupdate: wal is closed")
	}
	buf := w.buf[:0]
	for _, m := range muts {
		w.seq++
		buf = AppendRecord(buf, Record{Seq: w.seq, Mut: m})
	}
	w.buf = buf
	if len(buf) > 0 {
		if _, err := w.f.Write(buf); err != nil {
			return w.seq, fmt.Errorf("liveupdate: wal append: %w", err)
		}
		w.appendTicket.Add(1)
	}
	return w.seq, nil
}

// AppendCompaction journals a compaction marker committing generation
// gen through sequence seq, fsyncs it — a marker that might vanish in
// a crash would resurrect already-baked mutations on replay — and
// seals the active segment: its content is durable before the atomic
// rename, and a fresh active file takes its place. Every sealed
// segment therefore ends with a compaction marker, which is what
// makes retention per generation (Prune) exact.
func (w *WAL) AppendCompaction(gen, seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("liveupdate: wal is closed")
	}
	buf := AppendRecord(nil, Record{Seq: seq, Compaction: true, Generation: gen})
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("liveupdate: wal append compaction: %w", err)
	}
	w.appendTicket.Add(1)
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("liveupdate: wal sync: %w", err)
	}
	w.flushes.Add(1)
	w.creditFlushed(w.appendTicket.Load())
	return w.rotateLocked(seq)
}

// rotateLocked seals the fsynced active segment and opens a fresh
// one. Callers hold w.mu and have already fsynced the active file.
func (w *WAL) rotateLocked(lastSeq uint64) error {
	fi, err := w.f.Stat()
	if err != nil {
		return fmt.Errorf("liveupdate: wal rotate: %w", err)
	}
	if w.seq > lastSeq {
		lastSeq = w.seq
	}
	sealedPath := segmentPath(w.path, w.nextIndex)
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("liveupdate: wal rotate: close active: %w", err)
	}
	if err := os.Rename(w.path, sealedPath); err != nil {
		return fmt.Errorf("liveupdate: wal rotate: seal segment: %w", err)
	}
	f, err := os.OpenFile(w.path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("liveupdate: wal rotate: new active segment: %w", err)
	}
	if err := syncDir(filepath.Dir(w.path)); err != nil {
		f.Close()
		return fmt.Errorf("liveupdate: wal rotate: %w", err)
	}
	w.sealed = append(w.sealed, SegmentInfo{
		Path:    sealedPath,
		Index:   w.nextIndex,
		LastSeq: lastSeq,
		Bytes:   fi.Size(),
		Sealed:  time.Now(),
	})
	w.nextIndex++
	w.f = f
	return nil
}

// syncDir fsyncs a directory so a just-renamed or just-created entry
// survives a crash — the shared commit-point helper.
func syncDir(dir string) error { return labelstore.FsyncDir(dir) }

// Prune deletes sealed segments whose every record is at or below
// throughSeq — the fence of the oldest label generation still live.
// Segments above the fence are the history needed to rebuild the
// current generation's delta from that oldest survivor, so they stay.
// It returns how many segments were removed.
func (w *WAL) Prune(throughSeq uint64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	pruned := 0
	for len(w.sealed) > 0 {
		seg := w.sealed[0]
		if seg.LastSeq == 0 || seg.LastSeq > throughSeq {
			break
		}
		if err := os.Remove(seg.Path); err != nil {
			return pruned, fmt.Errorf("liveupdate: wal prune: %w", err)
		}
		w.sealed = w.sealed[1:]
		pruned++
	}
	return pruned, nil
}

// Sync makes every record appended before the call durable. It
// fsyncs at most once: the caller that finds the flush lagging
// becomes the leader, and callers arriving while the leader's fsync
// is in flight wait on it and then return without issuing their own
// — the group-commit window that lets N concurrent mutation batches
// share one disk flush.
func (w *WAL) Sync() error {
	target := w.appendTicket.Load()
	if w.flushedTicket.Load() >= target {
		return nil
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.flushedTicket.Load() >= target {
		return nil // the previous leader's fsync covered us
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil // Close already flushed everything
	}
	f := w.f
	covered := w.appendTicket.Load()
	w.mu.Unlock()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("liveupdate: wal sync: %w", err)
	}
	w.flushes.Add(1)
	w.creditFlushed(covered)
	return nil
}

// creditFlushed advances the flushed ticket to at least t.
func (w *WAL) creditFlushed(t uint64) {
	for {
		old := w.flushedTicket.Load()
		if old >= t || w.flushedTicket.CompareAndSwap(old, t) {
			return
		}
	}
}

// Close fsyncs and closes the journal — the graceful-drain path, so a
// restart finds no torn tail to discard.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	var syncErr error
	if t := w.appendTicket.Load(); w.flushedTicket.Load() < t {
		if syncErr = w.f.Sync(); syncErr == nil {
			w.flushes.Add(1)
			w.creditFlushed(t)
		}
	}
	w.closed = true
	if err := w.f.Close(); err != nil {
		return err
	}
	return syncErr
}

// Seq returns the last sequence number written.
func (w *WAL) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// FlushedTotal reports how many fsyncs have completed — the
// fsdl_wal_flushed_total metric.
func (w *WAL) FlushedTotal() int64 { return w.flushes.Load() }

// Stats summarizes the journal for status surfaces.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := WALStats{Segments: len(w.sealed), Seq: w.seq, Flushes: w.flushes.Load()}
	if len(w.sealed) > 0 {
		st.OldestSealed = w.sealed[0].Sealed
	}
	if !w.closed {
		if fi, err := w.f.Stat(); err == nil {
			st.ActiveBytes = fi.Size()
		}
	}
	return st
}

// Path returns the active journal file's path.
func (w *WAL) Path() string { return w.path }
