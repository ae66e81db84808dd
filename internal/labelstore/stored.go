// Records as stored: what a factored file's reader and a cluster
// frontend share. A factored record is a label's balls and nothing else
// (format3.go); with its file's level graphs it is the whole label, so
// it can leave the store as it sits on disk and be read wherever those
// level graphs are held — by this package's own reader (file3.parse) and
// by a cluster frontend that fetched the section once per generation.
package labelstore

import (
	"errors"
	"fmt"
	"hash/crc32"

	"fsdl/internal/core"
)

// Levels is a factored file's level-graphs section, decoded and checked,
// with what its ball records are read under: the one record parser a
// factored store and a cluster frontend share. Read-only once built and
// safe for concurrent use.
type Levels struct {
	lg    *core.LevelGraphs
	balls *ballCodec
	crc   uint32
}

// LoadLevels decodes a level-graphs section named by its CRC32. The
// checksum is checked before a byte of the section is parsed; then
// core.LoadLevelGraphs checks every row labels are induced from.
func LoadLevels(section []byte, crc uint32) (*Levels, error) {
	if crc32.ChecksumIEEE(section) != crc {
		return nil, fmt.Errorf("labelstore: level-graphs section checksum mismatch")
	}
	lg, err := core.LoadLevelGraphs(section)
	if err != nil {
		return nil, fmt.Errorf("labelstore: level-graphs section: %w", err)
	}
	return &Levels{lg: lg, balls: newBallCodec(lg), crc: crc}, nil
}

// LevelGraphs returns the decoded section.
func (lv *Levels) LevelGraphs() *core.LevelGraphs { return lv.lg }

// parse decodes the ball record of v into the label its balls are
// (core.LevelGraphs.Label): its points, the saturated levels' one shared
// edge list, and these level graphs for every other level's edges.
func (lv *Levels) parse(payload []byte, v int32) (*core.Label, error) {
	balls, err := lv.balls.parse(payload, nil)
	if err != nil {
		return nil, err
	}
	return lv.lg.Label(v, balls)
}

// StoredRecord is one record of a factored file as the file stores it:
// the payload verbatim, the canonical bit length and CRC of its index
// entry and the CRC of the level graphs it is induced from.
type StoredRecord struct {
	Bits      int    // canonical bit length
	CRC       uint32 // the index CRC over vertex, Bits and Data
	LevelsCRC uint32 // CRC32 of the level-graphs section
	Data      []byte
}

// Why Label refused a record.
var (
	ErrRecordCRC       = errors.New("labelstore: record checksum mismatch")
	ErrLevelsMismatch  = errors.New("labelstore: record names other level graphs")
	ErrCanonicalLength = errors.New("labelstore: record decodes to another canonical length")
)

// Label decodes the stored record r of v with everything the file's
// reader checks, end to end: the record must name these level graphs,
// its CRC must match, its balls must parse and pass
// core.LevelGraphs.Label, and the label must be as long in canonical bits
// as its index entry says — the check a transcode makes by re-encoding,
// made here without the encoding. Errors wrap ErrLevelsMismatch,
// ErrRecordCRC and ErrCanonicalLength; any other is a parse failure.
func (lv *Levels) Label(v int32, r StoredRecord) (*core.Label, error) {
	if r.LevelsCRC != lv.crc {
		return nil, fmt.Errorf("%w: vertex %d's record names %08x, these are %08x", ErrLevelsMismatch, v, r.LevelsCRC, lv.crc)
	}
	if recordChecksum(int(v), r.Bits, r.Data) != r.CRC {
		return nil, fmt.Errorf("%w: vertex %d", ErrRecordCRC, v)
	}
	l, err := lv.parse(r.Data, v)
	if err != nil {
		return nil, err
	}
	if bits := l.BitLen(); bits != r.Bits {
		return nil, fmt.Errorf("%w: vertex %d decodes to %d bits, its record says %d", ErrCanonicalLength, v, bits, r.Bits)
	}
	return l, nil
}

// Stored returns the record of v as its factored file stores it, CRC
// verified, for shipping as is. ok is false — and the record is to be
// had from Raw as canonical bytes — for every other record: one the
// heap overlay holds (an FSDL2 load, a Put), one whose file's level
// graphs are damaged, and one absent or corrupt. The payload aliases the file and
// must not be mutated.
func (st *Store) Stored(v int) (StoredRecord, bool) {
	f := st.f3
	if f == nil || f.levels == nil || st.inOverlay(int32(v)) {
		return StoredRecord{}, false
	}
	e, slot, ok := f.find(int32(v))
	if !ok || !f.verify(e, slot) {
		return StoredRecord{}, false
	}
	return StoredRecord{
		Bits:      int(e.bits),
		CRC:       e.crc,
		LevelsCRC: f.levels.crc,
		Data:      f.payload(e),
	}, true
}

// LevelsSection returns the level-graphs section of a factored store as
// its file holds it, with its CRC32 — what Stored records name and
// LoadLevels reads back; ok is false for any other store and for a
// factored one whose section is damaged.
func (st *Store) LevelsSection() (section []byte, crc uint32, ok bool) {
	if st.f3 == nil || st.f3.levels == nil {
		return nil, 0, false
	}
	return st.f3.section, st.f3.levels.crc, true
}
