package bitio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadBits(t *testing.T) {
	var w Writer
	w.WriteBits(0b1011, 4)
	w.WriteBits(0, 3)
	w.WriteBits(0xffff, 16)
	if w.Len() != 23 {
		t.Fatalf("Len = %d, want 23", w.Len())
	}
	r := NewReader(w.Bytes(), w.Len())
	if v, _ := r.ReadBits(4); v != 0b1011 {
		t.Errorf("first field = %b, want 1011", v)
	}
	if v, _ := r.ReadBits(3); v != 0 {
		t.Errorf("second field = %b, want 0", v)
	}
	if v, _ := r.ReadBits(16); v != 0xffff {
		t.Errorf("third field = %x, want ffff", v)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", r.Remaining())
	}
}

func TestReadPastEnd(t *testing.T) {
	var w Writer
	w.WriteBits(5, 3)
	r := NewReader(w.Bytes(), w.Len())
	if _, err := r.ReadBits(4); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("err = %v, want ErrOutOfBounds", err)
	}
}

func TestZeroWidth(t *testing.T) {
	var w Writer
	w.WriteBits(123, 0)
	if w.Len() != 0 {
		t.Errorf("zero-width write emitted %d bits", w.Len())
	}
	r := NewReader(nil, 0)
	if v, err := r.ReadBits(0); err != nil || v != 0 {
		t.Errorf("zero-width read = (%d,%v), want (0,nil)", v, err)
	}
}

func TestGammaKnownValues(t *testing.T) {
	// gamma(v) encodes v+1: value 0 -> "1" (1 bit), value 1 -> "010",
	// value 2 -> "011", value 3 -> "00100".
	cases := []struct {
		v    uint64
		bits int
	}{{0, 1}, {1, 3}, {2, 3}, {3, 5}, {6, 5}, {7, 7}, {100, 13}}
	for _, c := range cases {
		var w Writer
		w.WriteGamma(c.v)
		if w.Len() != c.bits {
			t.Errorf("gamma(%d) used %d bits, want %d", c.v, w.Len(), c.bits)
		}
		if got := GammaLen(c.v); got != c.bits {
			t.Errorf("GammaLen(%d) = %d, want %d", c.v, got, c.bits)
		}
	}
}

func TestRoundTripAllCodes(t *testing.T) {
	values := []uint64{0, 1, 2, 3, 7, 8, 127, 128, 1 << 20, 1<<40 + 12345, 1<<63 - 1}
	var w Writer
	for _, v := range values {
		w.WriteUvarint(v)
		w.WriteGamma(v % (1 << 32)) // keep gamma prefixes sane
		w.WriteDelta(v)
	}
	r := NewReader(w.Bytes(), w.Len())
	for _, v := range values {
		if got, err := r.ReadUvarint(); err != nil || got != v {
			t.Fatalf("uvarint(%d) round trip = (%d,%v)", v, got, err)
		}
		if got, err := r.ReadGamma(); err != nil || got != v%(1<<32) {
			t.Fatalf("gamma(%d) round trip = (%d,%v)", v, got, err)
		}
		if got, err := r.ReadDelta(); err != nil || got != v {
			t.Fatalf("delta(%d) round trip = (%d,%v)", v, got, err)
		}
	}
}

func TestDeltaShorterThanGammaForLarge(t *testing.T) {
	for _, v := range []uint64{1 << 10, 1 << 20, 1 << 30} {
		if DeltaLen(v) >= GammaLen(v) {
			t.Errorf("delta(%d)=%d bits should beat gamma=%d bits",
				v, DeltaLen(v), GammaLen(v))
		}
	}
}

func TestLenFunctionsMatchWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		v := uint64(rng.Int63()) >> uint(rng.Intn(60))
		var wg, wd Writer
		wg.WriteGamma(v)
		wd.WriteDelta(v)
		if wg.Len() != GammaLen(v) {
			t.Fatalf("GammaLen(%d) = %d, writer used %d", v, GammaLen(v), wg.Len())
		}
		if wd.Len() != DeltaLen(v) {
			t.Fatalf("DeltaLen(%d) = %d, writer used %d", v, DeltaLen(v), wd.Len())
		}
		var wu Writer
		wu.WriteUvarint(v)
		if wu.Len() != UvarintLen(v) {
			t.Fatalf("UvarintLen(%d) = %d, writer used %d", v, UvarintLen(v), wu.Len())
		}
	}
}

// Property: any interleaved sequence of writes reads back identically.
func TestInterleavedRoundTripProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		type op struct {
			kind  int
			v     uint64
			width int
		}
		n := 1 + rng.Intn(60)
		ops := make([]op, n)
		var w Writer
		for i := range ops {
			o := op{kind: rng.Intn(4)}
			switch o.kind {
			case 0:
				o.width = rng.Intn(65)
				o.v = uint64(rng.Int63())
				if o.width < 64 {
					o.v &= (1 << uint(o.width)) - 1
				}
				w.WriteBits(o.v, o.width)
			case 1:
				o.v = uint64(rng.Int63()) >> uint(rng.Intn(63))
				w.WriteUvarint(o.v)
			case 2:
				o.v = uint64(rng.Intn(1 << 20))
				w.WriteGamma(o.v)
			case 3:
				o.v = uint64(rng.Int63()) >> uint(rng.Intn(63))
				w.WriteDelta(o.v)
			}
			ops[i] = o
		}
		r := NewReader(w.Bytes(), w.Len())
		for _, o := range ops {
			var got uint64
			var err error
			switch o.kind {
			case 0:
				got, err = r.ReadBits(o.width)
			case 1:
				got, err = r.ReadUvarint()
			case 2:
				got, err = r.ReadGamma()
			case 3:
				got, err = r.ReadDelta()
			}
			if err != nil || got != o.v {
				return false
			}
		}
		return r.Remaining() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReaderTruncatedBuffer(t *testing.T) {
	var w Writer
	w.WriteDelta(1 << 30)
	// Hand the reader fewer bits than written: must error, not loop.
	r := NewReader(w.Bytes(), w.Len()-5)
	if _, err := r.ReadDelta(); err == nil {
		t.Error("expected error reading truncated delta")
	}
}

// refWriter and refReader are the bit-at-a-time implementation this
// package shipped before the 64-bit-window rewrite, kept verbatim as the
// reference the differential tests compare against: every container,
// wire record and digest depends on the two producing the same bytes,
// values and errors.

type refWriter struct {
	buf  []byte
	nbit int
}

func (w *refWriter) Len() int      { return w.nbit }
func (w *refWriter) Bytes() []byte { return w.buf }

func (w *refWriter) WriteBit(b uint) {
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b != 0 {
		w.buf[w.nbit/8] |= 1 << (7 - uint(w.nbit%8))
	}
	w.nbit++
}

func (w *refWriter) WriteBits(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitio: invalid width %d", width))
	}
	for i := width - 1; i >= 0; i-- {
		w.WriteBit(uint(v>>uint(i)) & 1)
	}
}

func (w *refWriter) WriteUvarint(v uint64) {
	for {
		group := v & 0x7f
		v >>= 7
		if v == 0 {
			w.WriteBit(0)
			w.WriteBits(group, 7)
			return
		}
		w.WriteBit(1)
		w.WriteBits(group, 7)
	}
}

func (w *refWriter) WriteGamma(v uint64) {
	x := v + 1
	nb := bits.Len64(x)
	for i := 0; i < nb-1; i++ {
		w.WriteBit(0)
	}
	w.WriteBits(x, nb)
}

func (w *refWriter) WriteDelta(v uint64) {
	x := v + 1
	nb := bits.Len64(x)
	w.WriteGamma(uint64(nb - 1))
	w.WriteBits(x&((1<<uint(nb-1))-1), nb-1)
}

type refReader struct {
	buf  []byte
	pos  int
	nbit int
}

func newRefReader(buf []byte, nbits int) *refReader {
	if nbits > 8*len(buf) {
		nbits = 8 * len(buf)
	}
	return &refReader{buf: buf, nbit: nbits}
}

func (r *refReader) Remaining() int { return r.nbit - r.pos }

func (r *refReader) ReadBit() (uint, error) {
	if r.pos >= r.nbit {
		return 0, ErrOutOfBounds
	}
	b := (r.buf[r.pos/8] >> (7 - uint(r.pos%8))) & 1
	r.pos++
	return uint(b), nil
}

func (r *refReader) ReadBits(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("bitio: invalid width %d", width)
	}
	var v uint64
	for i := 0; i < width; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}

func (r *refReader) ReadUvarint() (uint64, error) {
	var v uint64
	for shift := uint(0); ; shift += 7 {
		if shift > 63 {
			return 0, errors.New("bitio: varint overflows uint64")
		}
		cont, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		group, err := r.ReadBits(7)
		if err != nil {
			return 0, err
		}
		v |= group << shift
		if cont == 0 {
			return v, nil
		}
	}
}

func (r *refReader) ReadGamma() (uint64, error) {
	zeros := 0
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		zeros++
		if zeros > 63 {
			return 0, errors.New("bitio: gamma prefix too long")
		}
	}
	rest, err := r.ReadBits(zeros)
	if err != nil {
		return 0, err
	}
	return (1<<uint(zeros) | rest) - 1, nil
}

func (r *refReader) ReadDelta() (uint64, error) {
	nbMinus1, err := r.ReadGamma()
	if err != nil {
		return 0, err
	}
	if nbMinus1 > 63 {
		return 0, errors.New("bitio: delta length too long")
	}
	low, err := r.ReadBits(int(nbMinus1))
	if err != nil {
		return 0, err
	}
	return (1<<nbMinus1 | low) - 1, nil
}

// Differential driver. A program is a byte string read as a sequence of
// 10-byte ops (opcode, parameter, 8 value bytes; a short tail is
// zero-filled). The same ops are applied to the reference and to the
// implementation as writes, then replayed as reads over several framings
// of the produced stream, and finally run as reads over the program's
// own bytes, which is where malformed codes come from.

const (
	opBit = iota
	opBits
	opUvarint
	opGamma
	opDelta
	opReset // writer only; a ReadBits(-1/65) on the read side
	opWords // WriteWords of a writer holding wordsOf(op); a ReadBits(width) on the read side
	numOps
)

type diffOp struct {
	kind  int
	width int
	v     uint64
}

func parseProgram(prog []byte) []diffOp {
	var ops []diffOp
	for len(prog) > 0 {
		var raw [10]byte
		prog = prog[copy(raw[:], prog):]
		o := diffOp{kind: int(raw[0]) % numOps}
		// Widths 0..64, with the window-straddling 56..64 over-weighted.
		if p := int(raw[1]) % 80; p <= 64 {
			o.width = p
		} else {
			o.width = 56 + (p-65)%9
		}
		// The parameter's high bits pick the magnitude, so values of
		// every bit length — including >= 2^32, whose gamma prefixes
		// outgrow half a window — are as likely as small ones.
		o.v = binary.BigEndian.Uint64(raw[2:]) >> (uint(raw[1]) >> 2)
		if raw[1] == 0xff {
			o.v = math.MaxUint64 // gamma writes nothing for it
		}
		if o.kind == opDelta && o.v == math.MaxUint64 {
			o.v-- // WriteDelta(MaxUint64) panics (width -1) in both
		}
		ops = append(ops, o)
	}
	return ops
}

func runDifferential(t *testing.T, prog []byte) {
	t.Helper()
	ops := parseProgram(prog)

	var ref refWriter
	var w Writer
	for i, o := range ops {
		switch o.kind {
		case opBit:
			ref.WriteBit(uint(o.v & 3))
			w.WriteBit(uint(o.v & 3))
		case opBits:
			ref.WriteBits(o.v, o.width)
			w.WriteBits(o.v, o.width)
		case opUvarint:
			ref.WriteUvarint(o.v)
			w.WriteUvarint(o.v)
		case opGamma:
			ref.WriteGamma(o.v)
			w.WriteGamma(o.v)
		case opDelta:
			ref.WriteDelta(o.v)
			w.WriteDelta(o.v)
		case opReset:
			if o.width%8 != 0 { // mostly not: keep streams long
				continue
			}
			ref = refWriter{}
			w.Reset()
		case opWords:
			words, nbits := wordsOf(o)
			var src Writer
			for i := 0; i < nbits; i++ {
				bit := uint(words[i/64] >> uint(63-i%64) & 1)
				ref.WriteBit(bit)
				src.WriteBit(bit)
			}
			w.WriteWords(&src)
		}
		if w.Len() != ref.Len() {
			t.Fatalf("write op %d %+v: Len %d, reference %d", i, o, w.Len(), ref.Len())
		}
		// Bytes is checked mid-stream too: it must not disturb the
		// pending word.
		if got, want := w.Bytes(), ref.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("write op %d %+v: bytes %x, reference %x", i, o, got, want)
		}
	}

	stream, nbits := ref.Bytes(), ref.Len()
	framings := []int{nbits, 8 * len(stream), nbits - 1, nbits - int(uint(len(prog))%13), nbits / 2, 0}
	for _, n := range framings {
		if n >= 0 {
			compareReads(t, stream, n, ops)
		}
	}
	compareReads(t, prog, 8*len(prog), ops)
	compareReads(t, prog, 8*len(prog)-int(uint(len(prog))%7), ops)
}

// compareReads replays ops as reads on both readers and requires the
// same value, error and cursor after every one of them, failed reads
// included.
func compareReads(t *testing.T, stream []byte, nbits int, ops []diffOp) {
	t.Helper()
	ref := newRefReader(stream, nbits)
	r := NewReader(stream, nbits)
	if r.Remaining() != ref.Remaining() {
		t.Fatalf("new reader over %d bits: Remaining %d, reference %d", nbits, r.Remaining(), ref.Remaining())
	}
	for i, o := range ops {
		var got, want uint64
		var gotErr, wantErr error
		switch o.kind {
		case opBit:
			var g, w uint
			g, gotErr = r.ReadBit()
			w, wantErr = ref.ReadBit()
			got, want = uint64(g), uint64(w)
		case opBits, opWords:
			got, gotErr = r.ReadBits(o.width)
			want, wantErr = ref.ReadBits(o.width)
		case opUvarint:
			got, gotErr = r.ReadUvarint()
			want, wantErr = ref.ReadUvarint()
		case opGamma:
			got, gotErr = r.ReadGamma()
			want, wantErr = ref.ReadGamma()
		case opDelta:
			got, gotErr = r.ReadDelta()
			want, wantErr = ref.ReadDelta()
		case opReset:
			bad := 65
			if o.width%2 == 0 {
				bad = -1
			}
			got, gotErr = r.ReadBits(bad)
			want, wantErr = ref.ReadBits(bad)
		}
		where := fmt.Sprintf("%d-bit stream %x, read op %d %+v", nbits, stream, i, o)
		if (gotErr == nil) != (wantErr == nil) ||
			gotErr != nil && (gotErr.Error() != wantErr.Error() ||
				errors.Is(gotErr, ErrOutOfBounds) != errors.Is(wantErr, ErrOutOfBounds)) {
			t.Fatalf("%s: err %v, reference %v", where, gotErr, wantErr)
		}
		if got != want {
			t.Fatalf("%s: value %d, reference %d", where, got, want)
		}
		if r.Remaining() != ref.Remaining() {
			t.Fatalf("%s: Remaining %d, reference %d", where, r.Remaining(), ref.Remaining())
		}
	}
}

// wordsOf is the bit string an opWords op appends: 0 to 3 words drawn
// from its value, cut at width plus a whole number of words, so every
// tail length meets every alignment.
func wordsOf(o diffOp) ([]uint64, int) {
	words := []uint64{o.v, ^o.v, bits.RotateLeft64(o.v, 17)}
	return words, min(o.width+64*int(o.v%3), 64*len(words))
}

// op assembles one program op by hand.
func op(kind, param int, v uint64) []byte {
	b := []byte{byte(kind), byte(param)}
	return binary.BigEndian.AppendUint64(b, v)
}

func TestBitioMatchesReference(t *testing.T) {
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	edge := map[string][]byte{
		"empty":          nil,
		"one bit":        op(opBit, 0, 1),
		"short stream":   cat(op(opBits, 3, 5), op(opGamma, 0, 6), op(opBits, 1, 1)),
		"zero widths":    cat(op(opBits, 0, 99), op(opBit, 0, 1), op(opBits, 0, 1), op(opGamma, 0, 0)),
		"width 64":       cat(op(opBits, 64, math.MaxUint64), op(opBits, 64, 1<<63|1)),
		"unaligned wide": cat(op(opBits, 3, 5), op(opBits, 64, 0xdeadbeefcafef00d), op(opBits, 61, 1<<60|7), op(opBits, 57, 1)),
		"gamma 2^32":     cat(op(opBit, 0, 1), op(opGamma, 0, 1<<32), op(opGamma, 0, 1<<32-2), op(opGamma, 0, 1<<32-1)),
		"gamma 63 zeros": cat(op(opBits, 5, 1), op(opGamma, 0, math.MaxUint64-1), op(opGamma, 0, 1<<63-1)),
		"gamma wraps":    cat(op(opGamma, 0xff, 0), op(opBit, 0, 1)),
		"delta wide":     cat(op(opDelta, 0, math.MaxUint64-1), op(opDelta, 0, 1<<53), op(opDelta, 0, 1<<54-2), op(opDelta, 0, 1<<55)),
		"uvarint wide":   cat(op(opBits, 1, 1), op(opUvarint, 0, math.MaxUint64), op(opUvarint, 0, 1<<56), op(opUvarint, 0, 1<<49-1)),
		"reset":          cat(op(opGamma, 0, 77), op(opReset, 0, 0), op(opBits, 9, 0x155), op(opReset, 8, 0), op(opDelta, 0, 3)),
		// Raw streams the read side must reject exactly as before.
		"64 zero bits":   make([]byte, 10),
		"zeros then one": append(make([]byte, 9), 0x01),
		"all ones":       bytes.Repeat([]byte{0xff}, 30),
		"delta too long": {opDelta, 0, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, // length code 127
	}
	for name, prog := range edge {
		t.Run(name, func(t *testing.T) { runDifferential(t, prog) })
	}
	t.Run("words at every alignment", func(t *testing.T) {
		for at := 0; at < 64; at++ {
			for _, width := range []int{0, 1, 7, 63, 64} {
				for v := uint64(0); v < 3; v++ { // 0, 1 or 2 whole words ahead of the tail
					runDifferential(t, cat(op(opBits, at, 0x5a5a5a5a5a5a5a5a), op(opWords, width, 0x8badf00d<<2|v), op(opGamma, 0, 9), op(opWords, width, 1<<63|v)))
				}
			}
		}
	})
	// WriteWords against bit-at-a-time writes: every destination
	// alignment, word-aligned (the plain copy) included, behind an empty
	// and a two-word destination, and sources of every kind of length —
	// no words, a tail alone, whole words alone, both, and a long one.
	t.Run("words of every length at every alignment", func(t *testing.T) {
		rng := rand.New(rand.NewSource(48))
		for at := 0; at < 64; at++ {
			for _, ahead := range []int{at, 128 + at} {
				for _, n := range []int{0, 1, 63, 64, 65, 128, 64*37 + 19} {
					var ref refWriter
					var w, src Writer
					for i := 0; i < ahead+n; i++ {
						bit := uint(rng.Intn(2))
						ref.WriteBit(bit)
						if i < ahead {
							w.WriteBit(bit)
						} else {
							src.WriteBit(bit)
						}
					}
					w.WriteWords(&src)
					ref.WriteBits(0x5b, 7)
					w.WriteBits(0x5b, 7) // the next write lands behind the tail
					if got, want := w.Bytes(), ref.Bytes(); w.Len() != ref.Len() || !bytes.Equal(got, want) {
						t.Fatalf("%d bits behind %d: %d bits %x, reference %d bits %x", n, ahead, w.Len(), got, ref.Len(), want)
					}
				}
			}
		}
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		for i := 0; i < 3000; i++ {
			prog := make([]byte, rng.Intn(400))
			rng.Read(prog)
			// Thin the bytes out every so often: long zero runs are what
			// drives the prefix decoders into their slow paths.
			if i%3 == 0 {
				for j := range prog {
					if rng.Intn(4) != 0 {
						prog[j] = 0
					}
				}
			}
			runDifferential(t, prog)
		}
	})
}

func FuzzBitioDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 40))
	f.Add(bytes.Repeat([]byte{0xff}, 25))
	f.Add(bytes.Join([][]byte{op(opBits, 3, 5), op(opGamma, 0, 1<<40), op(opDelta, 0, 1<<60), op(opUvarint, 0, 1<<62)}, nil))
	f.Add(bytes.Join([][]byte{op(opBits, 5, 3), op(opWords, 37, 1<<50|2), op(opGamma, 0, 6), op(opWords, 64, 1)}, nil))
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		runDifferential(t, prog)
	})
}
