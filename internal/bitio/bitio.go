// Package bitio implements bit-granular encoding used to serialize vertex
// labels, so that the label-length accounting of the experiments is exact in
// bits rather than rounded to machine words. It provides a bit writer and
// reader with fixed-width fields, LEB-style varints, and Elias gamma/delta
// universal codes for small nonnegative integers.
package bitio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrOutOfBounds is returned when a read runs past the end of the stream.
var ErrOutOfBounds = errors.New("bitio: read past end of stream")

// Writer accumulates bits most-significant-first into a byte buffer.
// The zero value is ready to use.
//
// Bits collect in a 64-bit word that is appended to the buffer, big
// endian, each time it fills; Bytes lays the pending bits out behind the
// flushed words, so the byte image is exactly the MSB-first bit string,
// zero-padded to a byte.
type Writer struct {
	buf  []byte // whole words flushed so far; len(buf) == 8*(nbit/64)
	acc  uint64 // the nbit%64 pending bits, right-aligned; upper bits zero
	nbit int    // total bits written
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.nbit }

// Reset empties the writer for reuse, keeping the buffer's capacity.
// Slices returned by Bytes before the call are overwritten by later
// writes.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.acc = 0
	w.nbit = 0
}

// Bytes returns the encoded bytes, (Len()+7)/8 of them; the final
// partial byte (if any) is zero-padded. The returned slice aliases
// internal storage.
func (w *Writer) Bytes() []byte {
	pending := w.nbit & 63
	if pending == 0 {
		return w.buf
	}
	// The pending bits go into the spare capacity behind the flushed
	// words without becoming part of buf: the next flush rewrites the
	// same bytes with the same leading bits.
	n := len(w.buf)
	out := binary.BigEndian.AppendUint64(w.buf, w.acc<<uint(64-pending))
	w.buf = out[:n]
	return out[:n+(pending+7)/8]
}

// WriteBit appends a single bit (0 or 1).
func (w *Writer) WriteBit(b uint) {
	if b != 0 {
		b = 1
	}
	w.WriteBits(uint64(b), 1)
}

// WriteBits appends the low `width` bits of v, most significant first.
// width must be in [0, 64].
func (w *Writer) WriteBits(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitio: invalid width %d", width))
	}
	if width < 64 {
		v &= 1<<uint(width) - 1
	}
	free := 64 - w.nbit&63 // room left in acc, 1..64
	w.nbit += width
	if width < free {
		w.acc = w.acc<<uint(width) | v
		return
	}
	// v fills the word: its top `free` bits complete acc, the low `rest`
	// bits start the next one. (free == 64 means acc is empty, and the
	// shift by 64 correctly contributes nothing.)
	rest := width - free
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc<<uint(free)|v>>uint(rest))
	w.acc = v & (1<<uint(rest) - 1)
}

// WriteWords appends every bit written to src — its flushed words, then
// the pending tail — at any alignment: a bit string coded once and
// appended wherever it recurs. src is only read, so many writers may
// append one src at once as long as nothing writes to it (Bytes
// included).
func (w *Writer) WriteWords(src *Writer) {
	// src's words are copied behind w's in one append: as they stand
	// when w is word-aligned, else shifted in place, each taking the
	// previous word's last `pending` bits ahead of its own.
	n := len(w.buf)
	w.buf = append(w.buf, src.buf...)
	if pending := uint(w.nbit & 63); pending != 0 {
		acc := w.acc
		for i := n; i < len(w.buf); i += 8 {
			x := binary.BigEndian.Uint64(w.buf[i:])
			binary.BigEndian.PutUint64(w.buf[i:], acc<<(64-pending)|x>>pending)
			acc = x & (1<<pending - 1)
		}
		w.acc = acc
	}
	w.nbit += 8 * len(src.buf)
	w.WriteBits(src.acc, src.nbit&63)
}

// WriteUvarint appends v in a 7-bits-per-group varint (bit-granular LEB128).
// Each group is prefixed by a continuation bit.
func (w *Writer) WriteUvarint(v uint64) {
	// Groups are emitted least significant first; up to eight of them
	// (continuation bit + 7 payload bits each) are batched per WriteBits.
	var word uint64
	n := 0
	for {
		group := v & 0x7f
		v >>= 7
		if v != 0 {
			group |= 0x80
		}
		word = word<<8 | group
		n += 8
		if v == 0 {
			break
		}
		if n == 64 {
			w.WriteBits(word, 64)
			word, n = 0, 0
		}
	}
	w.WriteBits(word, n)
}

// WriteGamma appends v >= 0 in Elias gamma code (encodes v+1 so zero is
// representable). Gamma uses 2*floor(log2(v+1))+1 bits.
func (w *Writer) WriteGamma(v uint64) {
	x := v + 1
	nb := bits.Len64(x) // number of significant bits
	switch {
	case nb == 0:
		// v+1 wrapped to zero: no significant bits, nothing is emitted.
	case nb <= 32:
		// The nb-1 zeros of the prefix are x's own leading zeros at
		// width 2nb-1.
		w.WriteBits(x, 2*nb-1)
	default:
		w.WriteBits(0, nb-1)
		w.WriteBits(x, nb)
	}
}

// WriteDelta appends v >= 0 in Elias delta code (encodes v+1). Delta is
// asymptotically shorter than gamma for large values.
func (w *Writer) WriteDelta(v uint64) {
	x := v + 1
	nb := bits.Len64(x)
	// gamma(nb-1) is nb itself at width 2*Len(nb)-1 <= 13 bits; the nb-1
	// low bits of x follow (the leading 1 is implied by the length).
	glen := 2*bits.Len64(uint64(nb)) - 1
	if nb >= 1 && glen+nb-1 <= 64 {
		w.WriteBits(uint64(nb)<<uint(nb-1)|x&(1<<uint(nb-1)-1), glen+nb-1)
		return
	}
	w.WriteGamma(uint64(nb - 1))
	w.WriteBits(x&((1<<uint(nb-1))-1), nb-1)
}

// Reader consumes bits most-significant-first from a byte buffer.
//
// Every multi-bit read works on a window: the up to eight bytes at the
// cursor loaded big endian into one word, in which a fixed-width field is
// a shift and a unary prefix a leading-zero count. A code that does not
// fit the window (a gamma prefix beyond 28 zeros, a stream that ends
// mid-code) takes the bit-at-a-time path, which is also where every
// error is produced.
type Reader struct {
	buf  []byte
	pos  int // bit cursor
	nbit int // total readable bits
}

// NewReader returns a reader over the first nbits bits of buf. Pass
// 8*len(buf) to read everything; nbits is clamped to [0, 8*len(buf)].
func NewReader(buf []byte, nbits int) *Reader {
	nbits = max(0, min(nbits, 8*len(buf)))
	return &Reader{buf: buf, nbit: nbits}
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.nbit - r.pos }

// window returns the bits at the cursor left-aligned in a word (bit 63
// is the next unread bit) and how many of them, from the top, are
// readable stream bits: min(Remaining(), 64 - pos%8), so at least 57
// until the stream's last bytes. Bits below that count are unspecified.
func (r *Reader) window() (uint64, int) {
	tail := r.buf[r.pos>>3:]
	skip := r.pos & 7
	avail := min(r.nbit-r.pos, 64-skip)
	if len(tail) >= 8 {
		return binary.BigEndian.Uint64(tail) << uint(skip), avail
	}
	return tailWord(tail) << uint(skip), avail
}

// tailWord loads the fewer-than-eight bytes that end a buffer as the
// top bytes of a big-endian word.
func tailWord(b []byte) uint64 {
	var w uint64
	for j, c := range b {
		w |= uint64(c) << uint(56-8*j)
	}
	return w
}

// ReadBit reads one bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.pos >= r.nbit {
		return 0, ErrOutOfBounds
	}
	b := (r.buf[r.pos/8] >> (7 - uint(r.pos%8))) & 1
	r.pos++
	return uint(b), nil
}

// ReadBits reads a width-bit unsigned value, most significant bit first.
func (r *Reader) ReadBits(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("bitio: invalid width %d", width)
	}
	w, avail := r.window()
	if width <= avail {
		r.pos += width
		return w >> uint(64-width), nil
	}
	if width > r.nbit-r.pos {
		r.pos = r.nbit // the bits before the end count as consumed
		return 0, ErrOutOfBounds
	}
	// 58..64 bits from an unaligned cursor: two windows.
	r.pos += avail
	lo, _ := r.window()
	r.pos += width - avail
	return w>>uint(64-avail)<<uint(width-avail) | lo>>uint(64-width+avail), nil
}

// ReadUvarint reads a value written by WriteUvarint.
func (r *Reader) ReadUvarint() (uint64, error) {
	w, avail := r.window()
	var v uint64
	for used, shift := 8, uint(0); used <= avail; used, shift = used+8, shift+7 {
		group := w >> 56
		w <<= 8
		v |= (group & 0x7f) << shift
		if group&0x80 == 0 {
			r.pos += used
			return v, nil
		}
	}
	return r.readUvarintSlow()
}

// readUvarintSlow decodes from the cursor one bit at a time: varints of
// more than seven groups, and those the stream cuts short.
func (r *Reader) readUvarintSlow() (uint64, error) {
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

// ReadGamma reads a value written by WriteGamma.
func (r *Reader) ReadGamma() (uint64, error) {
	w, avail := r.window()
	zeros := bits.LeadingZeros64(w)
	if n := 2*zeros + 1; n <= avail {
		r.pos += n
		return w>>uint(64-n) - 1, nil
	}
	return r.readGammaSlow()
}

// readGammaSlow decodes from the cursor one bit at a time: prefixes
// longer than the window, and codes the stream cuts short.
func (r *Reader) readGammaSlow() (uint64, error) {
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

// ReadDelta reads a value written by WriteDelta.
func (r *Reader) ReadDelta() (uint64, error) {
	w, avail := r.window()
	zeros := bits.LeadingZeros64(w)
	if glen := 2*zeros + 1; glen <= avail {
		nbMinus1 := int(w>>uint(64-glen)) - 1
		// A length above 63 cannot fit the window with its low bits, so
		// the slow path is the one to reject it.
		if n := glen + nbMinus1; n <= avail {
			low := w << uint(glen) >> uint(64-nbMinus1)
			r.pos += n
			return (1<<uint(nbMinus1) | low) - 1, nil
		}
	}
	return r.readDeltaSlow()
}

// readDeltaSlow decodes length and low bits as two reads: values of
// more than 50-odd bits, overlong lengths, and codes the stream cuts
// short.
func (r *Reader) readDeltaSlow() (uint64, error) {
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

// UvarintLen returns the number of bits WriteUvarint(v) emits: 8 per
// 7-bit group (continuation bit + payload).
func UvarintLen(v uint64) int {
	nb := bits.Len64(v)
	if nb == 0 {
		nb = 1
	}
	return 8 * ((nb + 6) / 7)
}

// GammaLen returns the number of bits WriteGamma(v) emits.
func GammaLen(v uint64) int {
	nb := bits.Len64(v + 1)
	return 2*nb - 1
}

// DeltaLen returns the number of bits WriteDelta(v) emits.
func DeltaLen(v uint64) int {
	nb := bits.Len64(v + 1)
	return GammaLen(uint64(nb-1)) + nb - 1
}
