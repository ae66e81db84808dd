// Package labelstore persists serialized labels: the deployment artifact
// of the paper's model, where a device (a phone with a map region, a
// router) downloads only the labels it needs and answers every distance
// query locally, offline, from those labels alone.
//
// A store file is one of two containers, both carriers of labels that
// read back to the same canonical record bytes (Label.Encode output), so
// repair pulls and Put interoperate across them, and a cluster
// frontend reads a factored file's records as stored (stored.go) beside
// any other container's canonical ones. "FSDL2" is a stream:
//
//	magic "FSDL2"
//	uvarint n            (vertex-id space of the graph)
//	uvarint count        (number of labels stored)
//	count × records:     uvarint vertex, uvarint bitLen, bytes ⌈bitLen/8⌉,
//	                     crc32 (IEEE, little-endian, over the record's
//	                     vertex+bitLen varints and payload bytes)
//
// "FSDL3" (format3.go, mmapstore.go) is the out-of-core sibling: a
// page-aligned random-access layout with the record index up front,
// served from an mmap of the file; every FSDL3 file written is factored
// (the level graphs once, each record its balls).
//
// There is one way in and one way out. Write (write.go) fills the
// container its record source picks — a scheme, a scheme spliced over a
// previous generation's store, or a factored store write factored FSDL3,
// any other store FSDL2. Open/OpenPartial sniff the
// container of a file and Load/LoadPartial read an FSDL2
// stream, each strict or salvaging: the checksums turn silent bit rot
// into detected corruption, which a strict read refuses loudly and a
// salvaging one routes around, keeping every intact record and
// reporting what was lost.
//
// Stores can hold all n labels (the full oracle) or any subset — e.g. a
// region bundle (the ids Region lists).
package labelstore

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"fsdl/internal/core"
	"fsdl/internal/lru"
)

var magicV2 = []byte("FSDL2")

// maxLabelBits rejects absurd bit-length fields before allocating.
const maxLabelBits = 1 << 40

// writeRecord emits one v2 record: the vertex and bit-length varints, the
// payload, then a CRC32-IEEE over all of the preceding record bytes. The
// varints and the checksum are built in bw's spare bytes
// (AvailableBuffer), which allocates only when fewer are left than they
// need: a local array handed to bw.Write would move to the heap.
func writeRecord(bw *bufio.Writer, v int, bits int, data []byte) error {
	head := binary.AppendUvarint(binary.AppendUvarint(bw.AvailableBuffer(), uint64(v)), uint64(bits))
	if _, err := bw.Write(head); err != nil {
		return err
	}
	if _, err := bw.Write(data); err != nil {
		return err
	}
	_, err := bw.Write(binary.LittleEndian.AppendUint32(bw.AvailableBuffer(), recordChecksum(v, bits, data)))
	return err
}

// readHeader consumes the FSDL2 magic and the n/count varints.
func readHeader(br *bufio.Reader) (n, count uint64, err error) {
	head := make([]byte, len(magicV2))
	if _, err = io.ReadFull(br, head); err != nil {
		return 0, 0, fmt.Errorf("labelstore: read magic: %w", err)
	}
	if string(head) != string(magicV2) {
		return 0, 0, fmt.Errorf("labelstore: bad magic %q", head)
	}
	if n, err = binary.ReadUvarint(br); err != nil {
		return 0, 0, fmt.Errorf("labelstore: read n: %w", err)
	}
	if count, err = binary.ReadUvarint(br); err != nil {
		return 0, 0, fmt.Errorf("labelstore: read count: %w", err)
	}
	if count > n {
		return 0, 0, fmt.Errorf("labelstore: count %d exceeds n %d", count, n)
	}
	return n, count, nil
}

// readRecord reads one record. A non-nil error means the stream framing
// itself is broken (truncation, or a corrupted length field that makes
// every later byte unreliable); crcOK=false means the framing held but
// the checksum did not match.
func readRecord(br *bufio.Reader, n uint64) (v uint64, rec record, crcOK bool, err error) {
	v, err = binary.ReadUvarint(br)
	if err != nil {
		return 0, record{}, false, fmt.Errorf("labelstore: read vertex: %w", err)
	}
	if v >= n {
		return 0, record{}, false, fmt.Errorf("labelstore: vertex %d out of range", v)
	}
	bits, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, record{}, false, fmt.Errorf("labelstore: read bit length: %w", err)
	}
	if bits > maxLabelBits {
		return 0, record{}, false, fmt.Errorf("labelstore: implausible label size %d bits", bits)
	}
	data, err := readPayload(br, int((bits+7)/8))
	if err != nil {
		return 0, record{}, false, fmt.Errorf("labelstore: read label bytes: %w", err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return 0, record{}, false, fmt.Errorf("labelstore: read checksum: %w", err)
	}
	crcOK = recordChecksum(int(v), int(bits), data) == binary.LittleEndian.Uint32(sum[:])
	return v, record{bits: int(bits), data: data}, crcOK, nil
}

// readPayload reads size payload bytes. Up to a mebibyte — any real
// label — it is one exact allocation; past that the buffer grows a
// mebibyte ahead of the bytes that actually arrive, so a damaged length
// field costs what the stream holds, not what the field claims.
func readPayload(br *bufio.Reader, size int) ([]byte, error) {
	const step = 1 << 20
	data := make([]byte, 0, min(size, step))
	for len(data) < size {
		k := min(size-len(data), step)
		data = slices.Grow(data, k)[:len(data)+k]
		if _, err := io.ReadFull(br, data[len(data)-k:]); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// recordChecksum is the per-record CRC32-IEEE the container format
// stores after each record: over the vertex varint, the bit-length
// varint and the payload. The varints' bytes are folded in through the
// table by hand, since a stack buffer handed to crc32.Update moves to
// the heap.
func recordChecksum(v int, bits int, data []byte) uint32 {
	var head [2 * binary.MaxVarintLen64]byte
	k := binary.PutUvarint(head[:], uint64(v))
	k += binary.PutUvarint(head[k:], uint64(bits))
	crc := ^uint32(0)
	for _, b := range head[:k] {
		crc = crc32.IEEETable[byte(crc)^b] ^ crc>>8
	}
	return crc32.Update(^crc, crc32.IEEETable, data)
}

// Store is a loaded label container. Labels are kept serialized and
// decoded on demand, so a Store costs what the file costs; a small
// sharded LRU keeps the hottest decoded labels (query endpoints, popular
// fault sets) from being re-decoded on every query.
//
// A Store is safe for concurrent use, including concurrent Put — the
// anti-entropy repair path installs records into a live shard's store
// while queries read it.
type Store struct {
	n int

	// labels is the heap overlay: everything an FSDL2 load parsed, plus
	// records Put installed (repair ingest). For an FSDL3-backed store it
	// shadows the on-disk copy — a healed record wins over a corrupt one.
	mu     sync.RWMutex
	labels map[int32]record

	// f3 is the FSDL3 backing (mmap'd bytes, a heap copy off unix), nil
	// otherwise.
	f3 *file3

	cache       *lru.Cache[int32, *core.Label]
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	// levels interns the level edge lists of every label Label parses from
	// canonical bytes (the heap overlay), as part of the parse: labels
	// whose balls hold the same net points share one list instead of each
	// holding a copy. It is sized by the
	// decoded LRU and emptied with it (DropCaches).
	levels *core.LevelTable
	// touched has one bit per vertex, set by the first Label decode of
	// that vertex. The decoded LRU admits a label only from its second
	// decode on: a vertex looked up once (a random query endpoint) costs
	// the cache nothing, one looked up again (a hot endpoint, a standing
	// fault, a pending patch) is resident from then on. nil — admit at
	// first touch — unless admit switched it on.
	touched []atomic.Uint64
	// incomplete is set when the store may lack records it should hold —
	// a salvaging open lost some, or NewEmpty made it for a bootstrap —
	// and cleared by Seal. While it is set, nothing the store lacks is
	// authoritatively absent.
	incomplete atomic.Bool
	// salvage is what a salvaging open reported; nil after a strict one.
	salvage *SalvageReport
}

type record struct {
	bits int
	data []byte
}

// DefaultDecodedCacheSize bounds the decoded-label LRU of a Store.
const DefaultDecodedCacheSize = 1024

// newStore returns an empty heap store over n vertices. count is a
// header's record count, as unchecked as n: it pre-sizes the overlay
// only as far as a small file could back it.
func newStore(n int, count uint64) *Store {
	return &Store{
		n:      n,
		labels: make(map[int32]record, min(count, 1<<16)),
		cache:  lru.New[int32, *core.Label](DefaultDecodedCacheSize, 8, func(k int32) uint64 { return lru.HashU32(uint32(k)) }),
		levels: core.NewLevelTable(DefaultDecodedCacheSize),
	}
}

// admit sets the decoded LRU's admission rule from what the store holds
// once its records are known (end of a load, open or merge; a resize of
// the LRU): second-touch when it holds more labels than the LRU has
// slots, first-touch when the LRU keeps every label anyway — nothing is
// ever evicted then, and the filter would only cost each label a decode.
// The filter is never larger than one word per held record: n comes
// from a file header nobody has checked, so a store sparser than that
// (a region bundle of a huge graph, a hostile header) admits at first
// touch too, and so does a store that Put fills after it was opened.
func (st *Store) admit(capacity int) {
	st.touched = nil
	words, held := (st.n+63)/64, st.NumLabels()
	if held > capacity && 0 < words && words <= held {
		st.touched = make([]atomic.Uint64, words)
	}
}

// touch marks v as decoded once, reporting whether it already was.
func (st *Store) touch(v int) bool {
	if st.touched == nil {
		return true
	}
	w, bit := &st.touched[v>>6], uint64(1)<<(v&63)
	for {
		old := w.Load()
		if old&bit != 0 {
			return true
		}
		if w.CompareAndSwap(old, old|bit) {
			return false
		}
	}
}

// LabelCacheStats reports the decoded-label cache's cumulative hit/miss
// counts.
func (st *Store) LabelCacheStats() (hits, misses int64) {
	return st.cacheHits.Load(), st.cacheMisses.Load()
}

// LevelTableStats reports how many level edge lists of parsed labels were
// replaced by a shared copy, and how many shared lists the store holds.
func (st *Store) LevelTableStats() (interned int64, lists int) {
	return st.levels.Stats()
}

// Load reads an FSDL2 stream. It is strict: any framing error or
// checksum mismatch fails the whole load. Use LoadPartial to salvage
// what survives from a damaged file.
func Load(r io.Reader) (*Store, error) {
	st, _, err := load(r, false)
	return st, err
}

// SalvageReport describes what LoadPartial recovered from a damaged
// store file.
type SalvageReport struct {
	// Version is the container version that was read (2 or 3).
	Version int
	// Total is the record count the header declared; Kept is how many
	// records survived intact.
	Total, Kept int
	// Corrupt lists the vertices of records that were skipped because
	// their checksum failed or their payload did not decode (ascending).
	// Vertex ids here come from possibly-damaged records and identify
	// where in the file the damage sat, not necessarily a real vertex.
	Corrupt []int32
	// Truncated is true when the record framing itself broke (short file
	// or corrupted length fields): everything from the break onward was
	// abandoned, and the unread records are not listed in Corrupt.
	Truncated bool
}

// Lost returns how many declared records were not salvaged.
func (sr *SalvageReport) Lost() int { return sr.Total - sr.Kept }

// LoadPartial reads as much of a (possibly damaged) store as possible:
// records whose checksum fails or whose payload does not decode are
// skipped, and a framing break abandons the remainder of the file. The
// error is non-nil only when the header itself is unreadable — a damaged
// body yields a usable Store plus a report of what was lost. A store
// that lost anything is incomplete: whatever it lacks is Unknown, not
// absent, until Seal. Queries needing a lost label can still be answered
// conservatively: core.ResolveQuery with demote set turns it into a
// degraded fault by id, and core.Decoder.Decode bounds the distance from
// above.
func LoadPartial(r io.Reader) (*Store, *SalvageReport, error) {
	return load(r, true)
}

// load is the one FSDL2 record loop. Strict, the first damaged record
// is an error; partial, it is skipped (checksum or decode failure) or
// ends the read (broken framing), and the report says which.
func load(r io.Reader, partial bool) (*Store, *SalvageReport, error) {
	br := bufio.NewReader(r)
	n, count, err := readHeader(br)
	if err != nil {
		return nil, nil, err
	}
	st := newStore(int(n), count)
	rep := &SalvageReport{Version: 2, Total: int(count)}
	for i := uint64(0); i < count; i++ {
		v, rec, crcOK, err := readRecord(br, n)
		if err != nil {
			if !partial {
				return nil, nil, fmt.Errorf("%w (record %d)", err, i)
			}
			rep.Truncated = true
			break
		}
		bad := !crcOK
		if partial && !bad {
			_, err := core.DecodeLabel(rec.data, rec.bits)
			bad = err != nil
		}
		if bad {
			if !partial {
				return nil, nil, fmt.Errorf("labelstore: checksum mismatch on record %d (vertex %d)", i, v)
			}
			rep.Corrupt = append(rep.Corrupt, int32(v))
			continue
		}
		st.labels[int32(v)] = rec
		rep.Kept++
	}
	slices.Sort(rep.Corrupt)
	st.incomplete.Store(rep.Lost() > 0 || rep.Truncated)
	if partial {
		st.salvage = rep
	}
	st.admit(DefaultDecodedCacheSize)
	return st, rep, nil
}

// Salvage returns the report of the LoadPartial or OpenPartial that
// produced st, nil for any other store; later Puts leave it as it was.
func (st *Store) Salvage() *SalvageReport { return st.salvage }

// NumVertices returns the vertex-id space of the underlying graph.
func (st *Store) NumVertices() int { return st.n }

// NumLabels returns how many servable labels the store holds: heap
// overlay records plus intact on-disk records (known-corrupt, unhealed
// FSDL3 records are not counted).
func (st *Store) NumLabels() int {
	st.mu.RLock()
	n := len(st.labels)
	st.mu.RUnlock()
	if st.f3 != nil {
		n += st.f3.idxCount - st.f3.corruptCount()
	}
	return n
}

// Has reports whether the label of v is present (in the heap overlay or
// the on-disk index) and not known corrupt: an on-disk record must pass
// its CRC check (memoized) and stay out of the corrupt set a failed
// read puts it in. It is the repair audit's test of what a shard can
// serve, and reads no payload past that check.
func (st *Store) Has(v int) bool {
	st.mu.RLock()
	_, ok := st.labels[int32(v)]
	st.mu.RUnlock()
	if ok || st.f3 == nil {
		return ok
	}
	e, slot, ok := st.f3.find(int32(v))
	return ok && st.f3.verify(e, slot)
}

// Unknown reports whether the store can neither serve v nor vouch for
// its absence: the store is incomplete, or v's indexed record is damaged
// and no Put has healed it. A shard answers such a v "unknown", so a
// frontend fails over to a replica instead of caching an absence.
func (st *Store) Unknown(v int) bool {
	return !st.Has(v) && (st.incomplete.Load() || st.f3 != nil && st.f3.corruptAt(int32(v)))
}

// Authoritative reports whether every absence the store answers is
// authoritative: it is complete (as opened, or sealed since) and holds no
// damaged record that a Put has not healed nor a Seal forgiven. A store
// with no known damage answers from two atomic loads.
func (st *Store) Authoritative() bool {
	if st.incomplete.Load() {
		return false
	}
	if st.f3 == nil || st.f3.ncorrupt.Load() == 0 {
		return true
	}
	st.f3.mu.RLock()
	damaged := make([]int32, 0, len(st.f3.corrupt))
	for v, forgiven := range st.f3.corrupt {
		if !forgiven {
			damaged = append(damaged, v)
		}
	}
	st.f3.mu.RUnlock()
	for _, v := range damaged {
		if !st.inOverlay(v) {
			return false
		}
	}
	return true
}

// Seal marks the store complete — the repairer has verified that it
// holds every record it should — so from now on what it lacks is
// authoritatively absent. The damage known at the seal is forgiven for
// Authoritative: it sits on records the store is not to hold (an index
// entry whose id is out of range, or another shard's vertex), which no
// Put will ever heal. A damaged vertex stays Unknown, and damage found
// after the seal counts against Authoritative again.
func (st *Store) Seal() {
	if f := st.f3; f != nil {
		f.mu.Lock()
		for v := range f.corrupt {
			f.corrupt[v] = true
		}
		f.mu.Unlock()
	}
	st.incomplete.Store(false)
}

// absent is the error of a lookup of v that the store cannot serve: it
// wraps core.ErrNoLabel only when the store can vouch for the absence.
func (st *Store) absent(v int32) error {
	if st.incomplete.Load() {
		return fmt.Errorf("labelstore: vertex %d is not held by an incomplete store", v)
	}
	return fmt.Errorf("labelstore: %w %d", core.ErrNoLabel, v)
}

// Vertices returns the sorted vertex ids whose labels the store holds —
// for a partition store, the ring slice it is responsible for.
func (st *Store) Vertices() []int {
	st.mu.RLock()
	ids := make([]int, 0, len(st.labels))
	for v := range st.labels {
		ids = append(ids, int(v))
	}
	st.mu.RUnlock()
	if st.f3 != nil {
		st.f3.mu.RLock()
		for i := 0; i < st.f3.idxCount; i++ {
			e := st.f3.entry(i)
			if _, bad := st.f3.corrupt[int32(e.vertex)]; !bad {
				ids = append(ids, int(e.vertex))
			}
		}
		st.f3.mu.RUnlock()
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// Raw returns the canonical serialized label record of v without
// decoding it — what a shard ships of every record a factored file does
// not hold as stored (Stored), leaving decoding to the frontend, and what
// a repair pull installs. An FSDL3 backing's ball records are
// transcoded to canonical form on every call. The returned bytes are
// shared and must not be mutated.
func (st *Store) Raw(v int) (bits int, data []byte, ok bool) {
	st.mu.RLock()
	rec, ok := st.labels[int32(v)]
	st.mu.RUnlock()
	if ok {
		return rec.bits, rec.data, true
	}
	if st.f3 == nil {
		return 0, nil, false
	}
	return st.rawFrom3(int32(v))
}

// SizeBits returns the total stored label payload in canonical bits
// (known-corrupt records excluded — their length fields are not
// trustworthy).
func (st *Store) SizeBits() int64 {
	var total int64
	st.mu.RLock()
	shadowed := make(map[int32]struct{}, len(st.labels))
	for v, rec := range st.labels {
		total += int64(rec.bits)
		shadowed[v] = struct{}{}
	}
	st.mu.RUnlock()
	if st.f3 != nil {
		st.f3.mu.RLock()
		for i := 0; i < st.f3.idxCount; i++ {
			e := st.f3.entry(i)
			if _, bad := st.f3.corrupt[int32(e.vertex)]; bad {
				continue
			}
			if _, dup := shadowed[int32(e.vertex)]; !dup {
				total += int64(e.bits)
			}
		}
		st.f3.mu.RUnlock()
	}
	return total
}

// Label decodes the label of v, serving repeated lookups from the
// decoded-label cache. The returned label is shared and must not be
// mutated — and neither may its level edge lists, which other labels of
// this store may share (core.LevelTable).
func (st *Store) Label(v int) (*core.Label, error) {
	if l, ok := st.cache.Get(int32(v)); ok {
		st.cacheHits.Add(1)
		return l, nil
	}
	var l *core.Label
	st.mu.RLock()
	rec, ok := st.labels[int32(v)]
	st.mu.RUnlock()
	if ok {
		var err error
		if l, err = st.levels.DecodeLabel(rec.data, rec.bits); err != nil {
			return nil, err
		}
	} else if st.f3 != nil {
		var err error
		if l, err = st.label3(int32(v)); err != nil {
			return nil, err
		}
	} else {
		return nil, st.absent(int32(v))
	}
	st.cacheMisses.Add(1)
	if st.touch(v) {
		st.cache.Put(int32(v), l)
	}
	return l, nil
}

// FirstEpsilon returns the ε of the first of vertices 0..n-1 whose label
// resolves, false when none does before ctx ends. Every label of one
// build carries the scheme's ε, so the first readable one speaks for the
// generation.
func FirstEpsilon(ctx context.Context, n int, label func(context.Context, int) (*core.Label, error)) (float64, bool) {
	for v := 0; v < n && ctx.Err() == nil; v++ {
		if l, err := label(ctx, v); err == nil {
			return l.Epsilon, true
		}
	}
	return 0, false
}

// NewEmpty returns a store over an n-vertex space holding no labels —
// the boot state of a replacement shard, which joins the ring empty and
// is filled by anti-entropy repair. It is incomplete until Seal.
func NewEmpty(n int) (*Store, error) {
	if n <= 0 {
		return nil, fmt.Errorf("labelstore: empty store needs a positive vertex space, got %d", n)
	}
	st := newStore(n, 0)
	st.incomplete.Store(true)
	return st, nil
}

// Put installs the serialized record of v — the repair-ingest path. The
// payload must decode as a label (a corrupt transfer is rejected here,
// before it can be served onward) and is copied. Re-putting an identical
// record is an idempotent no-op; a *different* record for a held vertex
// is rejected, because replicas of a vertex are byte-identical by
// construction (the partitioner serializes deterministically), so a
// conflict means corruption somewhere upstream, not a legitimate update.
func (st *Store) Put(v int, bits int, data []byte) error {
	if v < 0 || v >= st.n {
		return fmt.Errorf("labelstore: vertex %d out of range [0,%d)", v, st.n)
	}
	if bits < 0 || bits > maxLabelBits {
		return fmt.Errorf("labelstore: implausible label size %d bits for vertex %d", bits, v)
	}
	if want := (bits + 7) / 8; len(data) != want {
		return fmt.Errorf("labelstore: vertex %d record carries %d bytes, %d bits need %d", v, len(data), bits, want)
	}
	if _, err := core.DecodeLabel(data, bits); err != nil {
		return fmt.Errorf("labelstore: record for vertex %d does not decode: %w", v, err)
	}
	// An intact on-disk FSDL3 copy is authoritative: identical re-puts are
	// idempotent no-ops, different bytes are a conflict. A *corrupt*
	// on-disk copy is healable — the put lands in the heap overlay, which
	// shadows the damaged record from then on.
	if st.f3 != nil && !st.inOverlay(int32(v)) {
		if pbits, pdata, ok := st.rawFrom3(int32(v)); ok {
			if pbits == bits && bytes.Equal(pdata, data) {
				return nil
			}
			return fmt.Errorf("labelstore: conflicting record for vertex %d", v)
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if prev, ok := st.labels[int32(v)]; ok {
		if prev.bits == bits && bytes.Equal(prev.data, data) {
			return nil
		}
		return fmt.Errorf("labelstore: conflicting record for vertex %d", v)
	}
	st.labels[int32(v)] = record{bits: bits, data: slices.Clone(data)}
	return nil
}
