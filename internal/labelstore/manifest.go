package labelstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// A generation is one immutable build of the label store: a directory
// named gen-<id> holding one or more .fsdl container files plus a
// MANIFEST describing them. The live-update compactor writes a new
// generation next to the old one, the manifest makes the swap target
// verifiable before any traffic moves, and the old directory stays on
// disk for rollback until an operator removes it.
//
// The MANIFEST is a small binary file with the same integrity
// discipline as the label container:
//
//	magic "FSDLM1"
//	uvarint generation   (monotone id, 1 is the initial offline build)
//	uvarint n            (vertex-id space every listed file must match)
//	uvarint seq          (mutation-WAL sequence baked into this build)
//	uvarint fileCount
//	fileCount × entries: uvarint nameLen, name bytes,
//	                     uvarint records,
//	                     records>0: uvarint firstVertex, uvarint lastVertex,
//	                     uint32 (IEEE CRC, little-endian, of the file bytes)
//	uint32               (IEEE CRC, little-endian, over everything
//	                     after the magic)
//
// Entries are written in ascending name order, so two manifests over
// the same build are byte-identical.

// ManifestName is the file name a generation's manifest is stored
// under inside its gen-<id> directory.
const ManifestName = "MANIFEST"

// GenerationLabelsFile is the full label store inside a generation
// directory; GenerationGraphFile is the snapshot graph the generation
// was built from (the next build's base, and the restart replay base).
const (
	GenerationLabelsFile = "labels.fsdl"
	GenerationGraphFile  = "graph.txt"
)

var magicManifest = []byte("FSDLM1")

// maxManifestFiles rejects absurd file counts before allocating.
const maxManifestFiles = 1 << 20

// ManifestFile describes one .fsdl container inside a generation.
type ManifestFile struct {
	// Name is the file's name relative to the generation directory.
	Name string
	// Records is how many label records the file holds.
	Records int
	// First and Last bound the vertex ids in the file (inclusive).
	// Both are -1 when the file holds no records.
	First, Last int
	// CRC is the IEEE CRC32 of the file's entire byte content.
	CRC uint32
}

// NewManifestFile describes a generation file with content checksum crc
// that holds one record for each of ids (none for a file that is not a
// label container).
func NewManifestFile(name string, crc uint32, ids []int) ManifestFile {
	f := ManifestFile{Name: name, Records: len(ids), First: -1, Last: -1, CRC: crc}
	if len(ids) > 0 {
		f.First, f.Last = slices.Min(ids), slices.Max(ids)
	}
	return f
}

// Manifest describes a label generation: which files make it up, the
// vertex space they serve, and the WAL sequence whose mutations the
// build has baked in.
type Manifest struct {
	Generation uint64
	N          int
	Seq        uint64
	Files      []ManifestFile
}

// File returns the entry for name, or nil when the manifest does not
// list it.
func (m *Manifest) File(name string) *ManifestFile {
	for i := range m.Files {
		if m.Files[i].Name == name {
			return &m.Files[i]
		}
	}
	return nil
}

// WriteManifest serializes m. Entries are sorted by name first, so the
// encoding is deterministic for a given build.
func WriteManifest(w io.Writer, m *Manifest) error {
	if len(m.Files) > maxManifestFiles {
		return fmt.Errorf("labelstore: manifest lists %d files, cap %d", len(m.Files), maxManifestFiles)
	}
	files := slices.Clone(m.Files)
	slices.SortFunc(files, func(a, b ManifestFile) int { return strings.Compare(a.Name, b.Name) })
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magicManifest); err != nil {
		return fmt.Errorf("labelstore: write manifest magic: %w", err)
	}
	h := crc32.NewIEEE()
	mw := io.MultiWriter(bw, h)
	var scratch [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		k := binary.PutUvarint(scratch[:], v)
		_, err := mw.Write(scratch[:k])
		return err
	}
	if err := writeUvarint(m.Generation); err != nil {
		return err
	}
	if err := writeUvarint(uint64(m.N)); err != nil {
		return err
	}
	if err := writeUvarint(m.Seq); err != nil {
		return err
	}
	if err := writeUvarint(uint64(len(files))); err != nil {
		return err
	}
	var word [4]byte
	for _, f := range files {
		if f.Name == "" || f.Name != filepath.Base(f.Name) {
			return fmt.Errorf("labelstore: manifest entry name %q is not a bare file name", f.Name)
		}
		if err := writeUvarint(uint64(len(f.Name))); err != nil {
			return err
		}
		if _, err := io.WriteString(mw, f.Name); err != nil {
			return err
		}
		if f.Records < 0 {
			return fmt.Errorf("labelstore: manifest entry %q has negative record count", f.Name)
		}
		if err := writeUvarint(uint64(f.Records)); err != nil {
			return err
		}
		if f.Records > 0 {
			if f.First < 0 || f.Last < f.First || f.Last >= m.N {
				return fmt.Errorf("labelstore: manifest entry %q has vertex range [%d,%d] outside [0,%d)", f.Name, f.First, f.Last, m.N)
			}
			if err := writeUvarint(uint64(f.First)); err != nil {
				return err
			}
			if err := writeUvarint(uint64(f.Last)); err != nil {
				return err
			}
		}
		binary.LittleEndian.PutUint32(word[:], f.CRC)
		if _, err := mw.Write(word[:]); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint32(word[:], h.Sum32())
	if _, err := bw.Write(word[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadManifest parses a manifest written by WriteManifest, verifying
// its trailing checksum.
func ReadManifest(r io.Reader) (*Manifest, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magicManifest))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("labelstore: read manifest magic: %w", err)
	}
	if string(head) != string(magicManifest) {
		return nil, fmt.Errorf("labelstore: bad manifest magic %q", head)
	}
	h := crc32.NewIEEE()
	tr := io.TeeReader(br, h)
	// binary.ReadUvarint needs a ByteReader; wrap the tee so checksummed
	// bytes are exactly the bytes parsed.
	cr := &byteReader{r: tr}
	readUvarint := func(what string) (uint64, error) {
		v, err := binary.ReadUvarint(cr)
		if err != nil {
			return 0, fmt.Errorf("labelstore: read manifest %s: %w", what, err)
		}
		return v, nil
	}
	m := &Manifest{}
	var err error
	if m.Generation, err = readUvarint("generation"); err != nil {
		return nil, err
	}
	n, err := readUvarint("n")
	if err != nil {
		return nil, err
	}
	m.N = int(n)
	if m.Seq, err = readUvarint("seq"); err != nil {
		return nil, err
	}
	count, err := readUvarint("file count")
	if err != nil {
		return nil, err
	}
	if count > maxManifestFiles {
		return nil, fmt.Errorf("labelstore: manifest lists %d files, cap %d", count, maxManifestFiles)
	}
	var word [4]byte
	for i := uint64(0); i < count; i++ {
		nameLen, err := readUvarint("name length")
		if err != nil {
			return nil, err
		}
		if nameLen == 0 || nameLen > 4096 {
			return nil, fmt.Errorf("labelstore: implausible manifest name length %d", nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(cr, name); err != nil {
			return nil, fmt.Errorf("labelstore: read manifest name: %w", err)
		}
		f := ManifestFile{Name: string(name), First: -1, Last: -1}
		records, err := readUvarint("record count")
		if err != nil {
			return nil, err
		}
		f.Records = int(records)
		if records > 0 {
			first, err := readUvarint("first vertex")
			if err != nil {
				return nil, err
			}
			last, err := readUvarint("last vertex")
			if err != nil {
				return nil, err
			}
			f.First, f.Last = int(first), int(last)
			if f.Last < f.First || f.Last >= m.N {
				return nil, fmt.Errorf("labelstore: manifest entry %q has vertex range [%d,%d] outside [0,%d)", f.Name, f.First, f.Last, m.N)
			}
		}
		if _, err := io.ReadFull(cr, word[:]); err != nil {
			return nil, fmt.Errorf("labelstore: read manifest file checksum: %w", err)
		}
		f.CRC = binary.LittleEndian.Uint32(word[:])
		m.Files = append(m.Files, f)
	}
	sum := h.Sum32()
	if _, err := io.ReadFull(br, word[:]); err != nil {
		return nil, fmt.Errorf("labelstore: read manifest checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(word[:]); got != sum {
		return nil, fmt.Errorf("labelstore: manifest checksum mismatch (file %08x, computed %08x)", got, sum)
	}
	return m, nil
}

type byteReader struct {
	r   io.Reader
	one [1]byte
}

func (b *byteReader) Read(p []byte) (int, error) { return b.r.Read(p) }

func (b *byteReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(b.r, b.one[:]); err != nil {
		return 0, err
	}
	return b.one[0], nil
}

// FileCRC computes the IEEE CRC32 of a file's bytes — the word a
// manifest entry records for it.
func FileCRC(path string) (uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	h := crc32.NewIEEE()
	if _, err := io.Copy(h, f); err != nil {
		return 0, fmt.Errorf("labelstore: checksum %s: %w", path, err)
	}
	return h.Sum32(), nil
}

// GenerationDirName returns the directory name a generation lives
// under: gen-<id> with the id zero-padded so lexical order is numeric
// order.
func GenerationDirName(gen uint64) string {
	return fmt.Sprintf("gen-%010d", gen)
}

// ParseGenerationDir extracts the generation id from a gen-<id>
// directory name; ok is false for anything else.
func ParseGenerationDir(name string) (gen uint64, ok bool) {
	rest, found := strings.CutPrefix(name, "gen-")
	if !found || rest == "" {
		return 0, false
	}
	gen, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// WriteManifestFile writes m to dir/MANIFEST through ReplaceFile, so a
// crash never leaves a torn manifest as the newest generation's
// descriptor, nor loses a "committed" one.
func WriteManifestFile(dir string, m *Manifest) error {
	return ReplaceFile(filepath.Join(dir, ManifestName), func(f *os.File) error { return WriteManifest(f, m) })
}

// ReadManifestDir reads and verifies dir/MANIFEST, then checks that
// every listed file is present with a matching checksum — the
// precondition a shard enforces before swapping a generation in.
func ReadManifestDir(dir string) (*Manifest, error) {
	f, err := os.Open(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	m, err := ReadManifest(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, dir)
	}
	for _, mf := range m.Files {
		crc, err := FileCRC(filepath.Join(dir, mf.Name))
		if err != nil {
			return nil, fmt.Errorf("labelstore: generation %d file %s: %w", m.Generation, mf.Name, err)
		}
		if crc != mf.CRC {
			return nil, fmt.Errorf("labelstore: generation %d file %s checksum mismatch (manifest %08x, file %08x)", m.Generation, mf.Name, mf.CRC, crc)
		}
	}
	return m, nil
}

// LatestGeneration scans root for gen-<id> directories with a readable,
// checksum-clean manifest and returns the newest one and its path. ok
// is false when no valid generation exists.
func LatestGeneration(root string) (m *Manifest, dir string, ok bool, err error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, "", false, err
	}
	best := uint64(0)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		gen, isGen := ParseGenerationDir(e.Name())
		if !isGen || (ok && gen <= best) {
			continue
		}
		cand, err := ReadManifestDir(filepath.Join(root, e.Name()))
		if err != nil {
			continue // a torn or half-written generation is not a candidate
		}
		best, ok = gen, true
		m, dir = cand, filepath.Join(root, e.Name())
	}
	return m, dir, ok, nil
}
