// FSDL3: the out-of-core container version. Where FSDL2 is a stream of
// varint-framed records that must be parsed front to back into heap maps,
// FSDL3 is a random-access, page-aligned layout built to be mmap'd and
// served straight from the OS page cache. It has one encoding, and it is
// the paper's label: H_ℓ(v) is the one level-ℓ net graph induced on
// B(v, r_ℓ), so a label is its balls plus graphs every label shares, and
// the file stores exactly those:
//
//	page 0 (4096 B):  magic "FSDL3", byte 5 = 0x07, n, count, data
//	                  offset/length, scheme parameters, header CRC32
//	                  (bytes 60..64, over bytes 0..60); then the
//	                  level-graphs section's offset, length and CRC32
//	                  (bytes 64..84) under a second header CRC32 (bytes
//	                  84..88, over bytes 0..84); zero-padded
//	index:            count × 24-byte entries at offset 4096, sorted by
//	                  vertex: u32 vertex, u32 canonical bit length,
//	                  u64 payload offset (relative to the data section),
//	                  u32 payload byte length, u32 record CRC
//	level graphs:     straight after the index — core.LevelGraphs.Encode,
//	                  the encoding SaveScheme writes — so a file cut short
//	                  loses tail records, not the section
//	data:             ball records packed back to back, section start
//	                  aligned to the next 4096-byte boundary
//
// Byte 5 is a flags byte by history: bits 0, 1 and 2 (compressed,
// factored, nested ball records) are the three steps by which the one
// encoding came about, and a reader refuses every other value — the
// three earlier payload encodings among them (docs/STORAGE.md says how
// to convert such a file).
//
// The per-entry CRC is recordChecksum(vertex, bits, payload) — the same
// integrity word FSDL2 stores, over the payload as stored.
//
// A record is the balls and no edges, each distance once (balls.go).
// Levels run from the top one down, and each is
//
//	2 bits   saturated | nested
//	δ        count of stored points   (unless saturated)
//	ids      δ(gap), δ(len−1) per run of consecutive ids, every gap but
//	         the first less one
//	γ        first distance           (any point stored)
//	1 bit    predictor                (two or more)
//	rest     0: γ(zigzag ΔD) each; 1: ΔΔD as γ(zeros) then sign,
//	         γ(|e|−1), a zero run that reaches the end closing the level
//
// Ids are indices into the level's own list of net points, as the file's
// level graphs hold it (LevelGraphs.NetPoints); saturated means the ball
// is that whole list. A nested level stores only the points that are not
// net points of the level above — its ids index that shorter list — and
// the reader takes the others from the ball above, every point of it
// within r_ℓ, at the distance written there. The writer costs flat
// against nested and one predictor against the other, keeps the
// cheapest, and nests a level only where that gives the ball back
// exactly. Sub-byte zero padding ends the record.
//
// Reading a record parses the balls and has core induce the edges
// (core.LevelGraphs.Label); a saturated level gets the file's one list,
// pointer-identical across every label of the store.
//
// The index records the *canonical* bit length of each label: canonical
// bytes are the currency of Put and repair pulls, so the store transcodes
// (parse + deterministic re-encode) where raw canonical bytes are
// demanded, and both containers interoperate record for record. A
// cluster label fetch takes a record as stored instead, and the length is
// what its reader checks the label against (stored.go).
package labelstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"fsdl/internal/bitio"
	"fsdl/internal/core"
)

var magicV3 = []byte("FSDL3")

const (
	format3Page     = 4096
	format3EntryLen = 24

	// format3Flags is header byte 5 of every FSDL3 file: bits 0–2
	// (compressed, factored, nested ball records). A reader refuses any
	// other value.
	format3Flags = 0x07

	// format3SectionAt is where page 0 describes the level-graphs section:
	// u64 offset, u64 length, u32 CRC32 of the section, u32 CRC32 of
	// header bytes [0, format3SectionAt+20).
	format3SectionAt = 64
	format3HeaderLen = format3SectionAt + 24 // used bytes of page 0; the rest is zero padding
)

// rec3Params are the scheme parameters hoisted out of every record into
// the FSDL3 store header; set marks a record that is already a ball
// record under them (write.go).
type rec3Params struct {
	epsQ     uint64
	c        int
	maxLevel int
	rShrink  int
	set      bool
}

func params3(epsilon float64, c, maxLevel, rShrink int) rec3Params {
	return rec3Params{epsQ: uint64(epsilon * 65536), c: c, maxLevel: maxLevel, rShrink: rShrink, set: true}
}

func paramsOfScheme(p core.Params) rec3Params {
	return params3(p.Epsilon, p.C, p.MaxLevel, p.RShrink)
}

func paramsOf(l *core.Label) rec3Params {
	return params3(l.Epsilon, l.C, l.MaxLevel, l.RShrink)
}

// checkPadding accepts the end of a record payload: records sit at byte
// offsets, so after the structure is consumed only sub-byte zero padding
// may remain.
func checkPadding(r *bitio.Reader) error {
	if r.Remaining() >= 8 {
		return fmt.Errorf("labelstore: %d trailing bits after record", r.Remaining())
	}
	if pad, _ := r.ReadBits(r.Remaining()); pad != 0 {
		return fmt.Errorf("labelstore: nonzero padding after record")
	}
	return nil
}

// format3Header is the parsed page-0 content of an FSDL3 file.
type format3Header struct {
	n       uint64
	count   uint64
	dataOff uint64
	dataLen uint64
	prm     rec3Params
	// The level-graphs section.
	secOff, secLen uint64
	secCRC         uint32
}

func encodeFormat3Header(h *format3Header) []byte {
	buf := make([]byte, format3Page)
	copy(buf, magicV3)
	buf[5] = format3Flags
	le := binary.LittleEndian
	le.PutUint64(buf[8:], h.n)
	le.PutUint64(buf[16:], h.count)
	le.PutUint64(buf[24:], h.dataOff)
	le.PutUint64(buf[32:], h.dataLen)
	le.PutUint64(buf[40:], h.prm.epsQ)
	le.PutUint32(buf[48:], uint32(h.prm.c))
	le.PutUint32(buf[52:], uint32(h.prm.maxLevel))
	le.PutUint32(buf[56:], uint32(h.prm.rShrink))
	le.PutUint32(buf[60:], crc32.ChecksumIEEE(buf[:60]))
	at := format3SectionAt
	le.PutUint64(buf[at:], h.secOff)
	le.PutUint64(buf[at+8:], h.secLen)
	le.PutUint32(buf[at+16:], h.secCRC)
	le.PutUint32(buf[at+20:], crc32.ChecksumIEEE(buf[:at+20]))
	return buf
}

func parseFormat3Header(buf []byte) (*format3Header, error) {
	if len(buf) < format3HeaderLen {
		return nil, fmt.Errorf("labelstore: FSDL3 header truncated (%d bytes)", len(buf))
	}
	if string(buf[:5]) != string(magicV3) {
		return nil, fmt.Errorf("labelstore: bad magic %q", buf[:5])
	}
	le := binary.LittleEndian
	if got, want := le.Uint32(buf[60:]), crc32.ChecksumIEEE(buf[:60]); got != want {
		return nil, fmt.Errorf("labelstore: FSDL3 header checksum mismatch")
	}
	h := &format3Header{
		n:       le.Uint64(buf[8:]),
		count:   le.Uint64(buf[16:]),
		dataOff: le.Uint64(buf[24:]),
		dataLen: le.Uint64(buf[32:]),
		prm: rec3Params{
			epsQ:     le.Uint64(buf[40:]),
			c:        int(le.Uint32(buf[48:])),
			maxLevel: int(le.Uint32(buf[52:])),
			rShrink:  int(le.Uint32(buf[56:])),
			set:      true,
		},
	}
	// Any other flags byte is another encoding of the payloads, or of
	// page 0: refuse the file instead of misreading it.
	if buf[5] != format3Flags {
		return nil, fmt.Errorf("labelstore: FSDL3 header byte 5 is %#02x; this version reads only %#02x (factored, nested ball records)", buf[5], format3Flags)
	}
	if h.count > h.n {
		return nil, fmt.Errorf("labelstore: count %d exceeds n %d", h.count, h.n)
	}
	if h.n > math.MaxInt32 {
		return nil, fmt.Errorf("labelstore: implausible n %d", h.n)
	}
	// The data section starts at the first page boundary after the index
	// and the level-graphs section that follows it directly. Lengths come
	// from the file: sums are checked for wrap-around before anything is
	// sliced by them.
	at := format3SectionAt
	if got, want := le.Uint32(buf[at+20:]), crc32.ChecksumIEEE(buf[:at+20]); got != want {
		return nil, fmt.Errorf("labelstore: FSDL3 level-graphs header checksum mismatch")
	}
	h.secOff, h.secLen, h.secCRC = le.Uint64(buf[at:]), le.Uint64(buf[at+8:]), le.Uint32(buf[at+16:])
	indexEnd := format3Page + int64(h.count)*format3EntryLen
	if int64(h.secOff) != indexEnd || h.secLen > math.MaxInt64-format3Page-h.secOff {
		return nil, fmt.Errorf("labelstore: level-graphs section [%d,+%d) does not follow the index (ends at %d)", h.secOff, h.secLen, indexEnd)
	}
	indexEnd += int64(h.secLen)
	if wantData := pageAlign(indexEnd); int64(h.dataOff) != wantData {
		return nil, fmt.Errorf("labelstore: data offset %d, want %d", h.dataOff, wantData)
	}
	if h.dataLen > math.MaxInt64-h.dataOff {
		return nil, fmt.Errorf("labelstore: implausible data section [%d,+%d)", h.dataOff, h.dataLen)
	}
	return h, nil
}

func pageAlign(off int64) int64 {
	return (off + format3Page - 1) &^ (format3Page - 1)
}

// index3Entry is one parsed index slot.
type index3Entry struct {
	vertex uint32
	bits   uint32 // canonical bit length
	off    uint64 // relative to the data section
	length uint32 // payload bytes
	crc    uint32 // recordChecksum(vertex, bits, payload)
}

func parseIndex3Entry(b []byte) index3Entry {
	le := binary.LittleEndian
	return index3Entry{
		vertex: le.Uint32(b),
		bits:   le.Uint32(b[4:]),
		off:    le.Uint64(b[8:]),
		length: le.Uint32(b[16:]),
		crc:    le.Uint32(b[20:]),
	}
}

// checkIndex3Entry verifies the structural invariants of an entry:
// in-range vertex, plausible bit length, payload window inside the data
// section.
func checkIndex3Entry(e index3Entry, h *format3Header) error {
	if uint64(e.vertex) >= h.n {
		return fmt.Errorf("labelstore: vertex %d out of range", e.vertex)
	}
	if uint64(e.bits) > maxLabelBits {
		return fmt.Errorf("labelstore: implausible label size %d bits", e.bits)
	}
	if e.off > h.dataLen || uint64(e.length) > h.dataLen-e.off {
		return fmt.Errorf("labelstore: record window [%d,+%d) outside data section", e.off, e.length)
	}
	return nil
}

// fileLike is what the FSDL3 writer needs from its output: *os.File
// satisfies it. The header and index are reserved up front and written
// last, once every payload offset is known.
type fileLike interface {
	io.Writer
	io.WriterAt
	io.Seeker
}

// format3Writer streams records into a factored FSDL3 file. Records must
// be added in strictly ascending vertex order (the index is
// binary-searched at read time); finish seals the file by writing the
// header page, the index and the level-graphs section behind it. The
// writer buffers only those in memory — payloads stream to the data
// section as they are added.
type format3Writer struct {
	f     fileLike
	n     int
	count int
	added int
	// balls codes every record under the level graphs whose encoding,
	// section, follows the index.
	balls   *ballCodec
	section []byte
	prm     rec3Params
	entries []byte
	dataOff int64
	pos     int64 // next payload offset, relative to dataOff
	lastV   int64
}

// newFormat3Writer positions f for an n-vertex store that will hold
// exactly count records, factored under lg (whose encoding is section).
func newFormat3Writer(f fileLike, n, count int, lg *core.LevelGraphs, section []byte) (*format3Writer, error) {
	if n <= 0 || count < 0 || count > n {
		return nil, fmt.Errorf("labelstore: bad FSDL3 shape n=%d count=%d", n, count)
	}
	if lg.NumVertices() != n {
		return nil, fmt.Errorf("labelstore: level graphs over %d vertices cannot factor a store over %d", lg.NumVertices(), n)
	}
	w := &format3Writer{
		f:       f,
		n:       n,
		count:   count,
		balls:   newBallCodec(lg),
		section: section,
		// A factored file states its parameters even when it holds no
		// record: they are the level graphs'.
		prm:     paramsOfScheme(lg.Params()),
		entries: make([]byte, 0, count*format3EntryLen),
		dataOff: pageAlign(format3Page + int64(count)*format3EntryLen + int64(len(section))),
		lastV:   -1,
	}
	if _, err := f.Seek(w.dataOff, io.SeekStart); err != nil {
		return nil, fmt.Errorf("labelstore: seek to data section: %w", err)
	}
	return w, nil
}

// encoder returns one worker's encode, with its own ball scratch: a
// ball record passes as it is, any other form becomes one.
func (w *format3Writer) encoder() func(int, rec) (rec, error) {
	balls := &BallEncoder{c: w.balls}
	return func(v int, r rec) (rec, error) {
		if r.prm.set {
			// Copied verbatim (incremental compaction, partitions): the
			// source vouches for these parameters and net points.
			if r.prm != w.prm {
				return rec{}, fmt.Errorf("labelstore: vertex %d parameters differ from the store's", v)
			}
			return r, nil
		}
		l := r.label
		if l == nil {
			// Canonical bytes: decoded (and thereby validated independently
			// of any CRC), then encoded below.
			var err error
			if l, err = core.DecodeLabel(r.data, r.bits); err != nil {
				return rec{}, fmt.Errorf("labelstore: record for vertex %d does not decode: %w", v, err)
			}
		}
		if paramsOf(l) != w.prm {
			return rec{}, fmt.Errorf("labelstore: vertex %d parameters differ from the store's", v)
		}
		payload, err := balls.Encode(l)
		if err != nil {
			return rec{}, err
		}
		return rec{bits: l.BitLen(), data: slices.Clone(payload)}, nil
	}
}

func (w *format3Writer) append(v int, r rec) error {
	bits, payload := r.bits, r.data
	if v < 0 || v >= w.n {
		return fmt.Errorf("labelstore: vertex %d out of range [0,%d)", v, w.n)
	}
	if int64(v) <= w.lastV {
		return fmt.Errorf("labelstore: vertex %d out of order (last %d)", v, w.lastV)
	}
	if w.added >= w.count {
		return fmt.Errorf("labelstore: more than %d records added", w.count)
	}
	if bits < 0 || bits > maxLabelBits {
		return fmt.Errorf("labelstore: implausible label size %d bits for vertex %d", bits, v)
	}
	var ent [format3EntryLen]byte
	le := binary.LittleEndian
	le.PutUint32(ent[0:], uint32(v))
	le.PutUint32(ent[4:], uint32(bits))
	le.PutUint64(ent[8:], uint64(w.pos))
	le.PutUint32(ent[16:], uint32(len(payload)))
	le.PutUint32(ent[20:], recordChecksum(v, bits, payload))
	w.entries = append(w.entries, ent[:]...)
	if _, err := w.f.Write(payload); err != nil {
		return fmt.Errorf("labelstore: write record for vertex %d: %w", v, err)
	}
	w.pos += int64(len(payload))
	w.lastV = int64(v)
	w.added++
	return nil
}

// finish writes the index and header page, sealing the file.
func (w *format3Writer) finish() error {
	if w.added != w.count {
		return fmt.Errorf("labelstore: %d records added, header promised %d", w.added, w.count)
	}
	// What sits between page 0 and the data section: the index, then the
	// level graphs.
	h := &format3Header{
		n:       uint64(w.n),
		count:   uint64(w.count),
		dataOff: uint64(w.dataOff),
		dataLen: uint64(w.pos),
		prm:     w.prm,
		secOff:  uint64(format3Page + len(w.entries)),
		secLen:  uint64(len(w.section)),
		secCRC:  crc32.ChecksumIEEE(w.section),
	}
	front := append(w.entries, w.section...)
	if _, err := w.f.WriteAt(front, format3Page); err != nil {
		return fmt.Errorf("labelstore: write index: %w", err)
	}
	// Zero-fill the alignment gap between index end and data start so the
	// file has no undefined bytes.
	gapStart := format3Page + int64(len(front))
	if gap := w.dataOff - gapStart; gap > 0 {
		if _, err := w.f.WriteAt(make([]byte, gap), gapStart); err != nil {
			return fmt.Errorf("labelstore: write index padding: %w", err)
		}
	}
	if _, err := w.f.WriteAt(encodeFormat3Header(h), 0); err != nil {
		return fmt.Errorf("labelstore: write header: %w", err)
	}
	return nil
}
