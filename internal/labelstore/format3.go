// FSDL3: the out-of-core container version. Where FSDL2 is a stream of
// varint-framed records that must be parsed front to back into heap maps,
// FSDL3 is a random-access, page-aligned layout built to be mmap'd and
// served straight from the OS page cache:
//
//	page 0 (4096 B):  magic "FSDL3", flags, n, count, data offset/length,
//	                  scheme parameters, header CRC32; zero-padded
//	index:            count × 24-byte entries at offset 4096, sorted by
//	                  vertex: u32 vertex, u32 canonical bit length,
//	                  u64 payload offset (relative to the data section),
//	                  u32 payload byte length, u32 record CRC
//	data:             payloads packed back to back, section start aligned
//	                  to the next 4096-byte boundary
//
// The per-entry CRC is recordChecksum(vertex, bits, payload) — the same
// integrity word FSDL2 stores and the anti-entropy digests fold, so the
// index doubles as a precomputed digest table for uncompressed stores.
//
// Payloads are either the canonical label encoding (Label.Encode bytes,
// identical to what FSDL2 frames) or, when the header's compressed flag
// is set, the FSDL3 compressed record encoding. The compressed encoding
// squeezes the canonical form by dropping everything a reader already
// knows and tightening the per-entry codes:
//
//   - no per-record header: the scheme parameters (ε, c, maxLevel,
//     rShrink) are identical across a store and live in the file header;
//     the vertex id comes from the index entry
//   - point distances: first point's d_G(v,x) in gamma, then
//     zigzag(ΔD) in gamma — distances of id-sorted ball points are
//     locally correlated, so deltas are small either way
//   - edge targets: within a run of equal XI, gamma(YI−prevYI−1); at a
//     run start, gamma(YI−XI−1) instead of an absolute YI (edges always
//     satisfy XI < YI, so the gap from XI is the tight base)
//   - edge lengths: omitted at the lowest level (unit edges, D = 1
//     always); at level ℓ stored as D−1 in exactly ℓ+1 fixed bits, the
//     information bound since 0 < D ≤ λ_ℓ = 2^(ℓ+1) — gamma coding these
//     was the single largest cost in the canonical form (~60% of all
//     label bits on grids)
//
// A compressed store is *factored* (flag bit 1, only together with bit 0)
// whenever its writer could supply the scheme's level graphs. H_ℓ(v) is
// the one level-ℓ net graph induced on B(v, r_ℓ), so the edges of a label
// are a function of its balls and of graphs every label shares:
//
//	level graphs:     one section per file, straight after the index (the
//	                  data section starts at the next page boundary
//	                  after it, so a file cut short loses tail records,
//	                  not the section) — core.LevelGraphs.Encode, the
//	                  encoding SaveScheme writes — with its offset,
//	                  length and CRC32 in page 0 (bytes 64..84) under a
//	                  second header CRC32 (bytes 84..88, over bytes 0..84)
//	records:          the balls and no edges, each distance once (flag
//	                  bit 2, only together with bit 1; balls.go). Levels
//	                  run from the top one down, and each is
//	                    2 bits   saturated | nested
//	                    δ        count of stored points   (unless saturated)
//	                    ids      δ(gap), δ(len−1) per run of consecutive
//	                             ids, every gap but the first less one
//	                    γ        first distance           (any point stored)
//	                    1 bit    predictor                (two or more)
//	                    rest     0: γ(zigzag ΔD) each; 1: ΔΔD as γ(zeros)
//	                             then sign, γ(|e|−1), a zero run that
//	                             reaches the end closing the level
//	                  Ids are indices into the level's own list of net
//	                  points, as the file's level graphs hold it
//	                  (LevelGraphs.NetPoints); saturated means the ball is
//	                  that whole list. A nested level stores only the
//	                  points that are not net points of the level above —
//	                  its ids index that shorter list — and the reader
//	                  takes the others from the ball above, every point of
//	                  it within r_ℓ, at the distance written there. The
//	                  writer costs flat against nested and one predictor
//	                  against the other, keeps the cheapest, and nests a
//	                  level only where that gives the ball back exactly.
//	                  Sub-byte zero padding ends the record.
//
// Reading a record parses the balls and has core induce the edges
// (core.LevelGraphs.Label); a saturated level gets the file's one list,
// pointer-identical across every label of the store. A factored file
// without bit 2 was written by PR 17–25: per level, bottom one first, a
// saturated bit and then the points as above under "point distances" —
// count and id gaps left out when the bit is set (parseFlatBalls). Such
// files keep reading; none is written any more. See docs/STORAGE.md.
//
// The index always records the *canonical* bit length, whatever the
// payload encoding: canonical bytes are the currency of the digests, Put
// and repair pulls, so a compressed store transcodes (decode +
// deterministic re-encode) where raw canonical bytes are demanded and
// both formats interoperate record for record. A cluster label fetch
// takes a factored record as stored instead, and the length is what its
// reader checks the label against (stored.go).
package labelstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"fsdl/internal/bitio"
	"fsdl/internal/core"
)

var magicV3 = []byte("FSDL3")

const (
	format3Page      = 4096
	format3HeaderLen = 64 // used bytes of page 0; the rest is zero padding
	format3EntryLen  = 24

	// flag bits (header byte 5); a reader refuses bits it does not know
	format3FlagCompressed = 1 << 0
	format3FlagFactored   = 1 << 1 // level-graphs section + ball records; needs bit 0
	format3FlagNested     = 1 << 2 // ball records in the balls.go coding; needs bit 1
	format3KnownFlags     = format3FlagCompressed | format3FlagFactored | format3FlagNested

	// format3SectionAt is where page 0 describes the level-graphs section
	// of a factored file: u64 offset, u64 length, u32 CRC32 of the
	// section, u32 CRC32 of header bytes [0, format3SectionAt+20).
	format3SectionAt      = format3HeaderLen
	format3FactoredHdrLen = format3SectionAt + 24
)

// rec3Params are the scheme parameters hoisted out of every record into
// the FSDL3 store header (compressed payloads cannot be decoded without
// them; uncompressed stores carry them per record and keep zeros here).
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

// edgeBitsMemo remembers, per level index, the canonical bit length of
// the edge section of the longest edge list seen there — by one Write, or
// by every reader of one Levels. The length depends on the (XI, YI, D)
// list alone, and the list many labels share — a saturated ball's, the
// whole level graph, one array handed to every such label
// (core.LevelGraphs) — is the longest its level has: it settles in its
// slot at first sight and every later label that carries it costs a
// pointer compare instead of a walk over its edges. A list is recognised
// by identity (same backing array, same length), the way the decoder's
// seenBefore does; the slot pins that one array, so the address cannot
// come to mean another list while the memo lives. Safe for concurrent
// use; walks run outside the lock.
type edgeBitsMemo struct {
	mu    sync.Mutex
	slots []edgeBitsSlot
}

type edgeBitsSlot struct {
	edges []core.EdgeEntry
	bits  int
}

func (m *edgeBitsMemo) edgeBits(k int, edges []core.EdgeEntry) int {
	m.mu.Lock()
	if k < len(m.slots) {
		if slot := m.slots[k]; len(edges) > 0 && len(slot.edges) == len(edges) && &slot.edges[0] == &edges[0] {
			m.mu.Unlock()
			return slot.bits
		}
	}
	m.mu.Unlock()
	n := edgeListBits(edges)
	m.mu.Lock()
	for len(m.slots) <= k {
		m.slots = append(m.slots, edgeBitsSlot{})
	}
	if slot := &m.slots[k]; len(edges) > len(slot.edges) {
		slot.edges, slot.bits = edges, n
	}
	m.mu.Unlock()
	return n
}

// edgeListBits is the canonical bit length of one level's edge section.
func edgeListBits(edges []core.EdgeEntry) int {
	n := bitio.DeltaLen(uint64(len(edges)))
	var prevXI, prevYI int64
	for _, e := range edges {
		dx := int64(e.XI) - prevXI
		n += bitio.GammaLen(uint64(dx))
		if dx != 0 {
			prevYI = 0
		}
		n += bitio.GammaLen(uint64(int64(e.YI) - prevYI))
		prevXI, prevYI = int64(e.XI), int64(e.YI)
		n += bitio.GammaLen(uint64(e.D))
	}
	return n
}

// canonicalBitLen returns the exact bit length Label.Encode would emit,
// without materializing the encoding — the index stores canonical bit
// lengths even for compressed payloads. A level the label leaves to its
// level graphs is induced into a pooled buffer and walked there; only the
// lists a label holds reach the memo.
func canonicalBitLen(l *core.Label, memo *edgeBitsMemo) int {
	n := bitio.UvarintLen(uint64(l.V)) +
		bitio.UvarintLen(uint64(l.Epsilon*65536)) +
		bitio.UvarintLen(uint64(l.C)) +
		bitio.UvarintLen(uint64(l.MaxLevel)) +
		bitio.UvarintLen(uint64(l.RShrink))
	var buf *[]core.EdgeEntry
	for k, lv := range l.Levels {
		n += bitio.DeltaLen(uint64(len(lv.Points)))
		prev := int64(-1)
		for _, pe := range lv.Points {
			n += bitio.DeltaLen(uint64(int64(pe.X) - prev - 1))
			prev = int64(pe.X)
			n += bitio.GammaLen(uint64(pe.D))
		}
		if l.HoldsEdges(k) {
			n += memo.edgeBits(k, lv.Edges)
			continue
		}
		if buf == nil {
			buf = edgeBufPool.Get().(*[]core.EdgeEntry)
			defer edgeBufPool.Put(buf)
		}
		n += edgeListBits(l.LevelEdges(k, buf))
	}
	return n
}

var edgeBufPool = sync.Pool{New: func() any { return new([]core.EdgeEntry) }}

// encodePoints appends one level's ball: with ids the point count and the
// gap-coded ids, then in either case the distances — the first in gamma,
// the rest as zigzag(ΔD) in gamma.
func encodePoints(w *bitio.Writer, pts []core.PointEntry, ids bool) {
	if ids {
		w.WriteDelta(uint64(len(pts)))
	}
	prev := int64(-1)
	prevD := int64(0)
	for i, pe := range pts {
		if ids {
			w.WriteDelta(uint64(int64(pe.X) - prev - 1))
			prev = int64(pe.X)
		}
		if i == 0 {
			w.WriteGamma(uint64(pe.D))
		} else {
			d := int64(pe.D) - prevD
			w.WriteGamma(zigzag(d))
		}
		prevD = int64(pe.D)
	}
}

// parsePoints reads one level's ball as encodePoints wrote it: with its
// count and ids, or — saturated — without, the ids being all of net.
func parsePoints(r *bitio.Reader, k int, saturated bool, net []int32) ([]core.PointEntry, error) {
	np := uint64(len(net))
	if !saturated {
		var err error
		if np, err = r.ReadDelta(); err != nil {
			return nil, fmt.Errorf("labelstore: decode level %d points: %w", k, err)
		}
	}
	// Each point costs at least 1 bit (2 with its id); reject counts
	// beyond the payload before allocating (same guard as
	// core.DecodeLabel).
	if np > uint64(r.Remaining()) {
		return nil, fmt.Errorf("labelstore: level %d point count %d exceeds payload", k, np)
	}
	pts := make([]core.PointEntry, np)
	prev := int64(-1)
	prevD := int64(0)
	for i := range pts {
		if saturated {
			prev = int64(net[i])
		} else {
			gap, err := r.ReadDelta()
			if err != nil {
				return nil, fmt.Errorf("labelstore: decode point gap: %w", err)
			}
			if gap > math.MaxInt32 {
				return nil, fmt.Errorf("labelstore: decode point out of range")
			}
			prev += int64(gap) + 1
		}
		zz, err := r.ReadGamma()
		if err != nil {
			return nil, fmt.Errorf("labelstore: decode point dist: %w", err)
		}
		var d int64
		if i == 0 {
			d = int64(zz)
		} else {
			d = prevD + unzigzag(zz)
		}
		if prev > math.MaxInt32 || d < 0 || d > math.MaxInt32 {
			return nil, fmt.Errorf("labelstore: decode point out of range")
		}
		pts[i] = core.PointEntry{X: int32(prev), D: int32(d)}
		prevD = d
	}
	return pts, nil
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

// parseFlatBalls reads the record payload of a factored file written
// before the nested coding (PR 17–25: no format3FlagNested) into its
// balls, one point list per level of lg, bottom level first: per level one
// saturated bit, then the points as parsePoints reads them. The ids are
// checked where they are used (core.LevelGraphs.Label).
func parseFlatBalls(payload []byte, lg *core.LevelGraphs) ([][]core.PointEntry, error) {
	r := bitio.NewReader(payload, 8*len(payload))
	balls := make([][]core.PointEntry, lg.Params().NumLevelRange())
	for k := range balls {
		saturated, err := r.ReadBits(1)
		if err != nil {
			return nil, fmt.Errorf("labelstore: decode level %d: %w", k, err)
		}
		if balls[k], err = parsePoints(r, k, saturated != 0, lg.NetPoints(k)); err != nil {
			return nil, err
		}
	}
	return balls, checkPadding(r)
}

// encodeRecord3 appends the compressed record encoding of l to w. The
// label must be structurally valid (Validate); the fixed-width edge
// length field in particular relies on D ≤ λ_ℓ.
func encodeRecord3(l *core.Label, w *bitio.Writer) error {
	var buf []core.EdgeEntry
	for k := range l.Levels {
		encodePoints(w, l.Levels[k].Points, true)
		edges := l.LevelEdges(k, &buf)
		w.WriteDelta(uint64(len(edges)))
		dBits := l.Level(k) + 1 // D−1 fits exactly: 0 < D ≤ λ_ℓ = 2^(ℓ+1)
		if k > 0 && len(edges) > 0 && dBits > 31 {
			return fmt.Errorf("labelstore: level %d edge width %d bits unencodable", l.Level(k), dBits)
		}
		var prevXI, prevYI int64
		for _, e := range edges {
			dx := int64(e.XI) - prevXI
			w.WriteGamma(uint64(dx))
			if dx != 0 {
				// run start: YI is gap-coded from XI (always YI > XI)
				w.WriteGamma(uint64(int64(e.YI) - int64(e.XI) - 1))
			} else {
				w.WriteGamma(uint64(int64(e.YI) - prevYI - 1))
			}
			prevXI, prevYI = int64(e.XI), int64(e.YI)
			if k > 0 {
				if e.D <= 0 || int64(e.D) > int64(1)<<uint(dBits) {
					return fmt.Errorf("labelstore: level %d edge length %d exceeds λ", l.Level(k), e.D)
				}
				w.WriteBits(uint64(e.D-1), dBits)
			}
		}
	}
	return nil
}

// decodeRecord3 parses a compressed (unfactored) record payload into a
// validated label.
func decodeRecord3(payload []byte, v int32, p rec3Params) (*core.Label, error) {
	return parseRecord3(payload, v, p, nil)
}

// parseRecord3 is decodeRecord3 taking each level's edge slice from alloc
// (nil: a fresh allocation) — see core.LevelTable.Parse.
func parseRecord3(payload []byte, v int32, p rec3Params, alloc func(n int) []core.EdgeEntry) (*core.Label, error) {
	if !p.set {
		return nil, fmt.Errorf("labelstore: compressed record without store parameters")
	}
	numLevels := p.maxLevel - p.c
	if numLevels < 0 || numLevels > 64 {
		return nil, fmt.Errorf("labelstore: implausible level count %d", numLevels)
	}
	r := bitio.NewReader(payload, 8*len(payload))
	l := &core.Label{
		V:        v,
		Epsilon:  float64(p.epsQ) / 65536,
		C:        p.c,
		MaxLevel: p.maxLevel,
		RShrink:  p.rShrink,
		Levels:   make([]core.LevelLabel, numLevels),
	}
	for k := range l.Levels {
		pts, err := parsePoints(r, k, false, nil)
		if err != nil {
			return nil, err
		}
		ne, err := r.ReadDelta()
		if err != nil {
			return nil, fmt.Errorf("labelstore: decode level %d edges: %w", k, err)
		}
		if ne > uint64(r.Remaining()) {
			return nil, fmt.Errorf("labelstore: level %d edge count %d exceeds payload", k, ne)
		}
		dBits := p.c + 1 + k + 1
		if k > 0 && ne > 0 && dBits > 31 {
			return nil, fmt.Errorf("labelstore: level %d edge width %d bits implausible", k, dBits)
		}
		var edges []core.EdgeEntry
		if alloc != nil {
			edges = alloc(int(ne))
		} else {
			edges = make([]core.EdgeEntry, ne)
		}
		var prevXI, prevYI int64
		for i := range edges {
			dx, err := r.ReadGamma()
			if err != nil {
				return nil, fmt.Errorf("labelstore: decode edge xi: %w", err)
			}
			xi := prevXI + int64(dx)
			g, err := r.ReadGamma()
			if err != nil {
				return nil, fmt.Errorf("labelstore: decode edge yi: %w", err)
			}
			var yi int64
			if dx != 0 {
				yi = xi + int64(g) + 1
			} else {
				yi = prevYI + int64(g) + 1
			}
			d := int64(1) // lowest level: original unit edges, length omitted
			if k > 0 {
				raw, err := r.ReadBits(dBits)
				if err != nil {
					return nil, fmt.Errorf("labelstore: decode edge dist: %w", err)
				}
				d = int64(raw) + 1
			}
			if xi >= int64(len(pts)) || yi >= int64(len(pts)) {
				return nil, fmt.Errorf("labelstore: decode edge index out of range")
			}
			edges[i] = core.EdgeEntry{XI: int32(xi), YI: int32(yi), D: int32(d)}
			prevXI, prevYI = xi, yi
		}
		l.Levels[k] = core.LevelLabel{Points: pts, Edges: edges}
	}
	if err := checkPadding(r); err != nil {
		return nil, err
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return l, nil
}

// format3Header is the parsed page-0 content of an FSDL3 file.
type format3Header struct {
	flags   byte
	n       uint64
	count   uint64
	dataOff uint64
	dataLen uint64
	prm     rec3Params
	// The level-graphs section of a factored file.
	secOff, secLen uint64
	secCRC         uint32
}

func (h *format3Header) compressed() bool { return h.flags&format3FlagCompressed != 0 }
func (h *format3Header) factored() bool   { return h.flags&format3FlagFactored != 0 }
func (h *format3Header) nested() bool     { return h.flags&format3FlagNested != 0 }

// current reports whether the file's compressed payloads are in an
// encoding a writer still writes — self-contained records, or nested
// ball records — and so may be copied into a new file verbatim. The ball
// records of PR 17–25 are read, never written.
func (h *format3Header) current() bool { return h.factored() == h.nested() }

func encodeFormat3Header(h *format3Header) []byte {
	buf := make([]byte, format3Page)
	copy(buf, magicV3)
	buf[5] = h.flags
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
	if h.factored() {
		at := format3SectionAt
		le.PutUint64(buf[at:], h.secOff)
		le.PutUint64(buf[at+8:], h.secLen)
		le.PutUint32(buf[at+16:], h.secCRC)
		le.PutUint32(buf[at+20:], crc32.ChecksumIEEE(buf[:at+20]))
	}
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
		flags:   buf[5],
		n:       le.Uint64(buf[8:]),
		count:   le.Uint64(buf[16:]),
		dataOff: le.Uint64(buf[24:]),
		dataLen: le.Uint64(buf[32:]),
		prm: rec3Params{
			epsQ:     le.Uint64(buf[40:]),
			c:        int(le.Uint32(buf[48:])),
			maxLevel: int(le.Uint32(buf[52:])),
			rShrink:  int(le.Uint32(buf[56:])),
		},
	}
	// A flag this reader does not know changes what the bytes mean: refuse
	// the file instead of misreading it.
	if unknown := h.flags &^ format3KnownFlags; unknown != 0 {
		return nil, fmt.Errorf("labelstore: FSDL3 file uses format flags %#02x this reader does not know (written by a newer version?)", unknown)
	}
	if h.factored() && !h.compressed() {
		return nil, fmt.Errorf("labelstore: FSDL3 factored flag without the compressed flag")
	}
	if h.nested() && !h.factored() {
		return nil, fmt.Errorf("labelstore: FSDL3 nested-balls flag without the factored flag")
	}
	h.prm.set = h.count > 0 && h.compressed()
	if h.count > h.n {
		return nil, fmt.Errorf("labelstore: count %d exceeds n %d", h.count, h.n)
	}
	if h.n > math.MaxInt32 {
		return nil, fmt.Errorf("labelstore: implausible n %d", h.n)
	}
	// The data section starts at the first page boundary after the index
	// and, in a factored file, the level-graphs section that follows it
	// directly. Lengths come from the file: sums are checked for
	// wrap-around before anything is sliced by them.
	indexEnd := format3Page + int64(h.count)*format3EntryLen
	if h.factored() {
		at := format3SectionAt
		if len(buf) < format3FactoredHdrLen {
			return nil, fmt.Errorf("labelstore: FSDL3 header truncated (%d bytes)", len(buf))
		}
		if got, want := le.Uint32(buf[at+20:]), crc32.ChecksumIEEE(buf[:at+20]); got != want {
			return nil, fmt.Errorf("labelstore: FSDL3 level-graphs header checksum mismatch")
		}
		h.secOff, h.secLen, h.secCRC = le.Uint64(buf[at:]), le.Uint64(buf[at+8:]), le.Uint32(buf[at+16:])
		if int64(h.secOff) != indexEnd || h.secLen > math.MaxInt64-format3Page-h.secOff {
			return nil, fmt.Errorf("labelstore: level-graphs section [%d,+%d) does not follow the index (ends at %d)", h.secOff, h.secLen, indexEnd)
		}
		indexEnd += int64(h.secLen)
	}
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
// section, and — for uncompressed stores — byte length implied by bits.
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
	if !h.compressed() && uint64(e.length) != (uint64(e.bits)+7)/8 {
		return fmt.Errorf("labelstore: record length %d, %d bits need %d", e.length, e.bits, (e.bits+7)/8)
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

// format3Writer streams records into an FSDL3 file. Records must be
// added in strictly ascending vertex order (the index is binary-searched
// at read time); finish seals the file by writing the header page, the
// index and, in a factored file, the level-graphs section behind it. The
// writer buffers only those in memory — payloads stream to the data
// section as they are added.
type format3Writer struct {
	f        fileLike
	n        int
	count    int
	added    int
	compress bool
	// balls and section, when set, make the file factored: records are
	// written as balls under the codec's level graphs, and section (their
	// encoding) follows the index.
	balls    *BallEncoder
	section  []byte
	prm      rec3Params
	entries  []byte
	dataOff  int64
	pos      int64 // next payload offset, relative to dataOff
	lastV    int64
	enc      bitio.Writer
	edgeBits edgeBitsMemo
}

// newFormat3Writer positions f for an n-vertex store that will hold
// exactly count records; with level graphs (and compress) the store is
// factored.
func newFormat3Writer(f fileLike, n, count int, compress bool, lg *core.LevelGraphs, section []byte) (*format3Writer, error) {
	if n <= 0 || count < 0 || count > n {
		return nil, fmt.Errorf("labelstore: bad FSDL3 shape n=%d count=%d", n, count)
	}
	if lg != nil && (!compress || lg.NumVertices() != n) {
		return nil, fmt.Errorf("labelstore: level graphs over %d vertices cannot factor this store (n=%d, compress=%v)", lg.NumVertices(), n, compress)
	}
	w := &format3Writer{
		f:        f,
		n:        n,
		count:    count,
		compress: compress,
		section:  section,
		entries:  make([]byte, 0, count*format3EntryLen),
		dataOff:  pageAlign(format3Page + int64(count)*format3EntryLen + int64(len(section))),
		lastV:    -1,
	}
	if lg != nil {
		// A factored file states its parameters even when it holds no
		// record: they are the level graphs'.
		w.balls = NewBallEncoder(lg)
		w.prm = paramsOfScheme(lg.Params())
	}
	if _, err := f.Seek(w.dataOff, io.SeekStart); err != nil {
		return nil, fmt.Errorf("labelstore: seek to data section: %w", err)
	}
	return w, nil
}

// add appends one record, converting whichever form the source supplied
// into this writer's payload encoding.
func (w *format3Writer) add(v int, r rec) error {
	switch {
	case r.prm.set:
		// Already a stored payload, copied verbatim — the
		// incremental-compaction and partition fast path. The source
		// vouches that it came from a store with these parameters and, for
		// balls, these net points; the encoding must be this writer's.
		if r.balls != (w.balls != nil) {
			return fmt.Errorf("labelstore: vertex %d payload encoding (balls=%v) is not this store's", v, r.balls)
		}
		if err := w.captureParams(r.prm, v); err != nil {
			return err
		}
		return w.append(v, r.bits, r.data)
	case r.label != nil:
		// A live label: encoded below.
	case !w.compress:
		return w.append(v, r.bits, r.data)
	default:
		// Canonical bytes into a compressing writer: decoded (and thereby
		// validated independently of any CRC), then re-encoded below.
		l, err := core.DecodeLabel(r.data, r.bits)
		if err != nil {
			return fmt.Errorf("labelstore: record for vertex %d does not decode: %w", v, err)
		}
		r.label = l
	}
	bits := canonicalBitLen(r.label, &w.edgeBits)
	if !w.compress {
		buf, nbits := r.label.Encode()
		if nbits != bits {
			return fmt.Errorf("labelstore: canonical length mismatch for vertex %d (%d vs %d bits)", v, nbits, bits)
		}
		return w.append(v, bits, buf[:(nbits+7)/8])
	}
	if err := w.captureParams(paramsOf(r.label), v); err != nil {
		return err
	}
	if w.balls != nil {
		payload, err := w.balls.Encode(r.label)
		if err != nil {
			return err
		}
		return w.append(v, bits, payload)
	}
	w.enc.Reset()
	if err := encodeRecord3(r.label, &w.enc); err != nil {
		return err
	}
	return w.append(v, bits, w.enc.Bytes())
}

func (w *format3Writer) captureParams(p rec3Params, v int) error {
	if !p.set {
		return fmt.Errorf("labelstore: vertex %d record carries no parameters", v)
	}
	if !w.prm.set {
		w.prm = p
		return nil
	}
	if w.prm != p {
		return fmt.Errorf("labelstore: vertex %d parameters differ from the store's", v)
	}
	return nil
}

func (w *format3Writer) append(v, bits int, payload []byte) error {
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
	h := &format3Header{
		n:       uint64(w.n),
		count:   uint64(w.count),
		dataOff: uint64(w.dataOff),
		dataLen: uint64(w.pos),
		prm:     w.prm,
	}
	if w.compress {
		h.flags |= format3FlagCompressed
	}
	// What sits between page 0 and the data section: the index, then the
	// level graphs of a factored file.
	front := w.entries
	if w.balls != nil {
		h.flags |= format3FlagFactored | format3FlagNested
		h.secOff, h.secLen, h.secCRC = uint64(format3Page+len(w.entries)), uint64(len(w.section)), crc32.ChecksumIEEE(w.section)
		front = append(front, w.section...)
	}
	if len(front) > 0 {
		if _, err := w.f.WriteAt(front, format3Page); err != nil {
			return fmt.Errorf("labelstore: write index: %w", err)
		}
		// Zero-fill the alignment gap between index end and data start so
		// the file has no undefined bytes.
		gapStart := format3Page + int64(len(front))
		if gap := w.dataOff - gapStart; gap > 0 {
			if _, err := w.f.WriteAt(make([]byte, gap), gapStart); err != nil {
				return fmt.Errorf("labelstore: write index padding: %w", err)
			}
		}
	}
	if _, err := w.f.WriteAt(encodeFormat3Header(h), 0); err != nil {
		return fmt.Errorf("labelstore: write header: %w", err)
	}
	return nil
}
