// Out-of-core store backing: an FSDL3 file opened here is not parsed
// into heap maps — the whole file is mmap'd (read into one flat heap
// slice where the platform has no mmap) and records are served by
// binary-searching the on-disk index directly in the mapping. The OS page cache does the
// tiering: hot index and record pages stay resident, cold ones are
// just disk, and store size is bounded by disk rather than RAM.
//
// Integrity is verified lazily: the header and index structure are
// checked at open (cheap, O(count) over index bytes), while each
// record's CRC is checked the first time it is accessed and the result
// memoized in a bitset. A record that fails its check is remembered in
// a corrupt set — lookups treat it as damaged (not absent), which the
// cluster shard surfaces as a non-authoritative Unknown so the
// frontend fails over to a healthy replica, and the anti-entropy
// repair path may later heal it by Putting an intact copy into the
// heap overlay, which shadows the damaged on-disk record.
package labelstore

import (
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"fsdl/internal/core"
	"fsdl/internal/lru"
)

// mmapRegion owns one read-only file mapping. Close unmaps it; a
// finalizer unmaps abandoned regions, so dropping the last reference to
// a Store (e.g. on a generation swap) cannot leak address space. Close
// must not race in-flight readers of the mapped bytes — serving paths
// rely on the finalizer (which only runs once no reader can exist)
// and explicit Close is reserved for CLI/test lifecycles.
type mmapRegion struct {
	mu    sync.Mutex
	data  []byte
	unmap func([]byte) error
}

// Close releases the mapping. Idempotent.
func (r *mmapRegion) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.data == nil {
		return nil
	}
	data := r.data
	r.data = nil
	return r.unmap(data)
}

// file3 is the FSDL3 backing of a Store: the raw file bytes (mapped, or
// a heap copy off unix), the parsed header, and lazy per-record
// verification state.
type file3 struct {
	data     []byte
	region   *mmapRegion // nil when data is a heap copy
	hdr      *format3Header
	index    []byte // the index section (may be clamped by salvage)
	payloads []byte // the data section (may be clamped by salvage)
	idxCount int    // readable index entries

	// levels and section are the file's level graphs and the bytes they
	// were decoded from; nil when a salvaging open found the section
	// damaged (every record of the file is then corrupt).
	levels  *Levels
	section []byte

	verified []atomic.Uint32 // per-slot CRC-checked-ok bitset
	ncorrupt atomic.Int64    // len(corrupt); gates the corrupt-set check in verify

	// corrupt holds the damaged records by vertex id, true once a Seal
	// has forgiven the damage (Store.Authoritative).
	mu      sync.RWMutex
	corrupt map[int32]bool
}

func newFile3(data []byte, region *mmapRegion, hdr *format3Header) *file3 {
	f := &file3{data: data, region: region, hdr: hdr, corrupt: make(map[int32]bool)}
	idxEnd := int64(format3Page) + int64(hdr.count)*format3EntryLen
	if idxEnd > int64(len(data)) {
		idxEnd = int64(len(data))
	}
	if idxEnd < format3Page {
		idxEnd = format3Page
	}
	if int64(len(data)) >= format3Page {
		f.index = data[format3Page:idxEnd]
	}
	f.idxCount = len(f.index) / format3EntryLen
	if int64(len(data)) > int64(hdr.dataOff) {
		end := int64(hdr.dataOff) + int64(hdr.dataLen)
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		f.payloads = data[hdr.dataOff:end]
	}
	f.verified = make([]atomic.Uint32, (f.idxCount+31)/32)
	return f
}

// loadLevelGraphs decodes the file's level-graphs section:
// inside the file, CRC intact, decodable (core.LoadLevelGraphs checks
// every row labels are induced from) and describing the store the header
// describes.
func (f *file3) loadLevelGraphs() error {
	h := f.hdr
	end := h.secOff + h.secLen
	if end > uint64(len(f.data)) {
		return fmt.Errorf("labelstore: level-graphs section [%d,+%d) outside the file (%d bytes)", h.secOff, h.secLen, len(f.data))
	}
	section := f.data[h.secOff:end:end]
	levels, err := LoadLevels(section, h.secCRC)
	if err != nil {
		return err
	}
	if lg := levels.lg; uint64(lg.NumVertices()) != h.n || (h.count > 0 && paramsOfScheme(lg.Params()) != h.prm) {
		return fmt.Errorf("labelstore: level-graphs section describes another store (n=%d, header n=%d)", lg.NumVertices(), h.n)
	}
	f.levels, f.section = levels, section
	return nil
}

// parse decodes the stored ball record of v into a label under the
// file's level graphs (Levels, the parser a cluster frontend shares).
func (f *file3) parse(payload []byte, v int32) (*core.Label, error) {
	if f.levels == nil {
		return nil, fmt.Errorf("labelstore: record for vertex %d needs the file's level graphs, which are damaged", v)
	}
	return f.levels.parse(payload, v)
}

// entry returns the parsed index slot i.
func (f *file3) entry(i int) index3Entry {
	return parseIndex3Entry(f.index[i*format3EntryLen:])
}

// find binary-searches the on-disk index for v.
func (f *file3) find(v int32) (index3Entry, int, bool) {
	lo, hi := 0, f.idxCount
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int32(f.entry(mid).vertex) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < f.idxCount {
		if e := f.entry(lo); int32(e.vertex) == v {
			return e, lo, true
		}
	}
	return index3Entry{}, 0, false
}

// payload returns the stored bytes of an entry, or nil when its window
// falls outside the (possibly truncated) data section.
func (f *file3) payload(e index3Entry) []byte {
	if e.off > uint64(len(f.payloads)) || uint64(e.length) > uint64(len(f.payloads))-e.off {
		return nil
	}
	return f.payloads[e.off : e.off+uint64(e.length) : e.off+uint64(e.length)]
}

// verify CRC-checks the record of slot i once, memoizing the verdict.
// The corrupt set overrides the memoized verified bit: a record can be
// condemned after its CRC passed (decode failure in the salvage scan or
// in Label, transcode failure or canonical-length mismatch in rawFrom3),
// and that verdict must stick. The ncorrupt gate keeps the common
// all-clean path down to two atomic loads with no lock.
func (f *file3) verify(e index3Entry, slot int) bool {
	if f.ncorrupt.Load() != 0 {
		f.mu.RLock()
		_, bad := f.corrupt[int32(e.vertex)]
		f.mu.RUnlock()
		if bad {
			return false
		}
	}
	if f.verified[slot/32].Load()&(1<<(slot%32)) != 0 {
		return true
	}
	p := f.payload(e)
	if p == nil || recordChecksum(int(e.vertex), int(e.bits), p) != e.crc {
		f.markCorrupt(int32(e.vertex))
		return false
	}
	word := &f.verified[slot/32]
	for {
		old := word.Load()
		if word.CompareAndSwap(old, old|1<<(slot%32)) {
			return true
		}
	}
}

func (f *file3) markCorrupt(v int32) {
	f.mu.Lock()
	if _, dup := f.corrupt[v]; !dup {
		f.corrupt[v] = false
		f.ncorrupt.Add(1)
	}
	f.mu.Unlock()
}

// storedPayload returns the verified on-disk ball record of v.
func (f *file3) storedPayload(v int32) (bits int, payload []byte, ok bool) {
	e, slot, ok := f.find(v)
	if !ok || !f.verify(e, slot) {
		return 0, nil, false
	}
	return int(e.bits), f.payload(e), true
}

// corruptAt reports whether v is present in the index but damaged.
func (f *file3) corruptAt(v int32) bool {
	e, slot, ok := f.find(v)
	return ok && !f.verify(e, slot)
}

func (f *file3) corruptCount() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.corrupt)
}

// Open opens a store file, auto-detecting the container version: FSDL3
// files are mmap'd and served out-of-core, FSDL2 files are read into
// heap exactly as Load would. It is strict about structure — a damaged
// header or index fails the open (use OpenPartial to salvage) — while
// FSDL3 record payloads are CRC-verified lazily on first access, with
// failures surfacing as corrupt-record lookups rather than errors.
func Open(path string) (*Store, error) {
	st, _, err := open(path, false)
	return st, err
}

// OpenPartial is Open with salvage semantics, the file-level analogue of
// LoadPartial: a damaged body yields a usable Store plus a report of
// what was lost. For FSDL3 every record is eagerly CRC-checked and
// decode-checked; damaged or unreachable records land in the corrupt
// set, a store that lost any is incomplete until Seal (lookups report
// what it lacks via Unknown), and the store stays mmap-backed so salvage
// does not force the file into heap.
func OpenPartial(path string) (*Store, *SalvageReport, error) {
	return open(path, true)
}

// open is the one sniff-and-dispatch every opener goes through; the
// report matters only to a partial open.
func open(path string, partial bool) (*Store, *SalvageReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	version, err := sniff(f)
	if err != nil {
		return nil, nil, err
	}
	if version == 3 {
		return open3(f, partial)
	}
	return load(f, partial)
}

// sniff reads the container magic at the head of f, then rewinds f for
// the reader proper.
func sniff(f *os.File) (version int, err error) {
	var head [5]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return 0, fmt.Errorf("labelstore: read magic: %w", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	switch string(head[:]) {
	case string(magicV2):
		return 2, nil
	case string(magicV3):
		return 3, nil
	}
	return 0, fmt.Errorf("labelstore: bad magic %q", head[:])
}

// Encoding describes the container backing a store: its version (2 or
// 3), whether it is factored (every FSDL3 file is), the CRC of the level
// graphs its records are induced from — what decides which bytes Write
// produces from it — and whether the records are served from an mmap of
// the file.
type Encoding struct {
	Version   int
	Factored  bool
	LevelsCRC uint32
	Mapped    bool
}

// Encoding returns the Encoding of the container backing this store; a
// heap store (an FSDL2 load, a store filled by Put) reports version 2.
func (st *Store) Encoding() Encoding {
	if st.f3 == nil {
		return Encoding{Version: 2}
	}
	return Encoding{Version: 3, Factored: true, LevelsCRC: st.f3.hdr.secCRC, Mapped: st.f3.region != nil}
}

func open3(f *os.File, partial bool) (*Store, *SalvageReport, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := fi.Size()
	if size < format3HeaderLen {
		return nil, nil, fmt.Errorf("labelstore: FSDL3 file truncated (%d bytes)", size)
	}
	data, region, err := mapFile(f, size)
	if err != nil {
		return nil, nil, err
	}
	hdr, err := parseFormat3Header(data)
	if err != nil {
		if region != nil {
			region.Close()
		}
		return nil, nil, err
	}
	f3 := newFile3(data, region, hdr)
	rep := &SalvageReport{Version: 3, Total: int(hdr.count)}
	need := int64(hdr.dataOff) + int64(hdr.dataLen)
	truncated := size < need || f3.idxCount < int(hdr.count)
	if truncated && !partial {
		if region != nil {
			region.Close()
		}
		return nil, nil, fmt.Errorf("labelstore: FSDL3 file truncated (%d bytes, need %d)", size, need)
	}
	rep.Truncated = truncated
	// No record means anything without the file's level graphs: a strict
	// open refuses the file, a salvaging one reports every record lost
	// (the structural pass below condemns each).
	if err := f3.loadLevelGraphs(); err != nil && !partial {
		if region != nil {
			region.Close()
		}
		return nil, nil, err
	}
	lost := f3.levels == nil
	// Structural pass over the index: strictly ascending vertices with
	// sane windows. Strict opens reject any violation; salvage marks the
	// offending entries corrupt (binary search may then miss records
	// shadowed by out-of-order junk — lost, never wrong, since every hit
	// is vertex- and CRC-checked before serving).
	lastV := int64(-1)
	for i := 0; i < f3.idxCount; i++ {
		e := f3.entry(i)
		bad := checkIndex3Entry(e, hdr) != nil || int64(e.vertex) <= lastV
		if !bad {
			lastV = int64(e.vertex)
		}
		if bad || lost {
			if !partial {
				if region != nil {
					region.Close()
				}
				err := checkIndex3Entry(e, hdr)
				if err == nil {
					err = fmt.Errorf("labelstore: index entry %d out of order", i)
				}
				return nil, nil, err
			}
			f3.markCorrupt(int32(e.vertex))
			continue
		}
		if partial {
			// Eager salvage scan: CRC plus a full decode check, exactly
			// what LoadPartial applies per record.
			if !f3.verify(e, i) {
				continue
			}
			if _, err := f3.parse(f3.payload(e), int32(e.vertex)); err != nil {
				f3.markCorrupt(int32(e.vertex))
			}
		}
	}
	st := newStore(int(hdr.n), 0)
	st.f3 = f3
	f3.mu.RLock()
	for v := range f3.corrupt {
		rep.Corrupt = append(rep.Corrupt, v)
	}
	f3.mu.RUnlock()
	slices.Sort(rep.Corrupt)
	rep.Kept = rep.Total - len(rep.Corrupt)
	if f3.idxCount < rep.Total {
		// Entries beyond the truncation point never made it into the
		// corrupt list (their ids are unreadable); they are lost too.
		rep.Kept = f3.idxCount - len(rep.Corrupt)
	}
	st.incomplete.Store(rep.Lost() > 0 || rep.Truncated)
	st.admit(DefaultDecodedCacheSize)
	return st, rep, nil
}

// Close releases resources held outside the heap (the FSDL3 mapping).
// A finalizer covers abandoned stores; Close is for deterministic
// teardown and must not race in-flight readers.
func (st *Store) Close() error {
	if st.f3 != nil && st.f3.region != nil {
		return st.f3.region.Close()
	}
	return nil
}

// SetDecodedCacheCapacity resizes the decoded-label LRU — memory-ceiling
// tuning for out-of-core serving, where cached decoded labels are the
// dominant heap cost. Must be called before the store is shared across
// goroutines (boot-time configuration).
func (st *Store) SetDecodedCacheCapacity(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	st.cache = lru.New[int32, *core.Label](capacity, 8, func(k int32) uint64 { return lru.HashU32(uint32(k)) })
	st.levels = core.NewLevelTable(capacity)
	st.admit(capacity)
}

// DropCaches empties the decoded-label LRU and its table of shared level
// lists, for a store that has been swapped out of service. Safe beside
// concurrent lookups: labels already handed out stay valid (they keep
// the lists they share), later lookups decode from the records again.
func (st *Store) DropCaches() {
	st.cache.Flush()
	st.levels.Reset()
}

// inOverlay reports whether v has a heap-overlay record (a Put-repaired
// or FSDL2-loaded label) shadowing any on-disk copy.
func (st *Store) inOverlay(v int32) bool {
	st.mu.RLock()
	_, ok := st.labels[v]
	st.mu.RUnlock()
	return ok
}

// rawFrom3 returns the canonical record bytes of v from the FSDL3
// backing, transcoding its ball record (a parse and a re-encode) on
// every call: repair pulls, the canonical splice and Put's conflict check
// each read a record once.
func (st *Store) rawFrom3(v int32) (int, []byte, bool) {
	bits, payload, ok := st.f3.storedPayload(v)
	if !ok {
		return 0, nil, false
	}
	l, err := st.f3.parse(payload, v)
	if err != nil {
		st.f3.markCorrupt(v)
		return 0, nil, false
	}
	buf, nbits := l.Encode()
	if nbits != bits {
		// The stored canonical length disagrees with the deterministic
		// re-encode: the index entry lies, treat the record as damaged.
		st.f3.markCorrupt(v)
		return 0, nil, false
	}
	return nbits, buf, true
}

// label3 decodes the label of v from the FSDL3 backing: its balls, and
// its edges induced from the file's level graphs.
func (st *Store) label3(v int32) (*core.Label, error) {
	_, payload, ok := st.f3.storedPayload(v)
	if !ok {
		if st.f3.corruptAt(v) {
			return nil, fmt.Errorf("labelstore: record for vertex %d is corrupt", v)
		}
		return nil, st.absent(v)
	}
	l, err := st.f3.parse(payload, v)
	if err != nil {
		st.f3.markCorrupt(v)
		return nil, err
	}
	return l, nil
}

// RecordInfo describes one stored record for introspection (fsdl stats).
type RecordInfo struct {
	Vertex      int32
	Bits        int  // canonical bit length
	StoredBytes int  // payload bytes on disk / in heap
	Corrupt     bool // known damaged and unhealed
}

// Records calls fn for every record the store knows about (heap overlay
// and FSDL3 backing), in ascending vertex order.
func (st *Store) Records(fn func(RecordInfo)) {
	st.mu.RLock()
	overlay := make(map[int32]record, len(st.labels))
	for v, rec := range st.labels {
		overlay[v] = rec
	}
	st.mu.RUnlock()
	seen := make(map[int32]struct{}, len(overlay))
	var infos []RecordInfo
	for v, rec := range overlay {
		seen[v] = struct{}{}
		infos = append(infos, RecordInfo{Vertex: v, Bits: rec.bits, StoredBytes: len(rec.data)})
	}
	if st.f3 != nil {
		for i := 0; i < st.f3.idxCount; i++ {
			e := st.f3.entry(i)
			if _, ok := seen[int32(e.vertex)]; ok {
				continue
			}
			infos = append(infos, RecordInfo{
				Vertex:      int32(e.vertex),
				Bits:        int(e.bits),
				StoredBytes: int(e.length),
				Corrupt:     st.f3.corruptAt(int32(e.vertex)),
			})
		}
	}
	slices.SortFunc(infos, func(a, b RecordInfo) int { return int(a.Vertex) - int(b.Vertex) })
	for _, info := range infos {
		fn(info)
	}
}

// LevelGraphsBytes returns the size of the level-graphs section of an
// FSDL3 store — what every record of the file shares — and 0 for an FSDL2
// or heap store.
func (st *Store) LevelGraphsBytes() int64 {
	if st.f3 == nil {
		return 0
	}
	return int64(st.f3.hdr.secLen)
}

// IndexOverheadBytes returns the container bytes that are neither record
// payload nor level graphs: for FSDL3 the header page, index and
// alignment padding; for heap-loaded FSDL2 the per-record varint framing
// and checksums plus the stream header.
func (st *Store) IndexOverheadBytes() int64 {
	if st.f3 != nil {
		return int64(st.f3.hdr.dataOff) - st.LevelGraphsBytes()
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	total := int64(len(magicV2)) + varintLen(uint64(st.n)) + varintLen(uint64(len(st.labels)))
	for v, rec := range st.labels {
		total += varintLen(uint64(v)) + varintLen(uint64(rec.bits)) + 4
	}
	return total
}

func varintLen(v uint64) int64 {
	n := int64(1)
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
