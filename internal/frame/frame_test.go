package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {0x42}, bytes.Repeat([]byte{0xab}, 4096)}
	for _, p := range payloads {
		var buf bytes.Buffer
		if err := Write(&buf, 1, p); err != nil {
			t.Fatalf("Write: %v", err)
		}
		op, got, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		if op != 1 || !bytes.Equal(got, p) {
			t.Fatalf("round trip mismatch: op=%d len=%d want len=%d", op, len(got), len(p))
		}
		// Decode agrees with Read on the same bytes.
		enc := Append(nil, 4, p)
		op2, got2, rest, err := Decode(enc)
		if err != nil || op2 != 4 || !bytes.Equal(got2, p) || len(rest) != 0 {
			t.Fatalf("Decode mismatch: op=%d err=%v rest=%d", op2, err, len(rest))
		}
	}
}

func TestStream(t *testing.T) {
	// Several frames back to back decode in order from one stream.
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		if err := Write(&buf, byte(i+1), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		op, p, err := Read(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if op != byte(i+1) || len(p) != 1 || p[0] != byte(i) {
			t.Fatalf("frame %d: op=%d payload=%v", i, op, p)
		}
	}
	if _, _, err := Read(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("want clean EOF at stream end, got %v", err)
	}
}

func TestCorruption(t *testing.T) {
	base := Append(nil, 2, []byte("hello label bytes"))
	// Flip every single byte in turn: every corruption must be detected
	// (bad magic, bad version, bad length, or CRC mismatch) — none may
	// decode successfully, and none may panic.
	for i := range base {
		mut := append([]byte(nil), base...)
		mut[i] ^= 0x40
		if _, _, _, err := Decode(mut); err == nil {
			t.Fatalf("flipping byte %d went undetected", i)
		}
		if _, _, err := Read(bytes.NewReader(mut)); err == nil {
			t.Fatalf("Read: flipping byte %d went undetected", i)
		}
	}
	// Truncation at every byte is detected too; by Read as anything but
	// a clean EOF, which is reserved for a stream that ends between
	// frames.
	for i := 0; i < len(base); i++ {
		if _, _, _, err := Decode(base[:i]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", i)
		}
		if _, _, err := Read(bytes.NewReader(base[:i])); err == nil || (err == io.EOF) != (i == 0) {
			t.Fatalf("Read: truncation to %d bytes returned %v", i, err)
		}
	}
}

// TestSentinelErrors: each way a header can be wrong has its own error,
// from Read and Decode alike.
func TestSentinelErrors(t *testing.T) {
	good := Append(nil, 2, []byte("payload"))
	for _, tc := range []struct {
		name string
		at   int
		want error
	}{
		{"magic0", 0, ErrBadMagic},
		{"magic1", 1, ErrBadMagic},
		{"version", 2, ErrBadVersion},
		{"op", 3, ErrCRC},
		{"payload", HeaderLen, ErrCRC},
		{"crc", len(good) - 1, ErrCRC},
	} {
		mut := append([]byte(nil), good...)
		mut[tc.at] ^= 0x01
		if _, _, _, err := Decode(mut); !errors.Is(err, tc.want) {
			t.Errorf("%s: Decode returned %v, want %v", tc.name, err, tc.want)
		}
		if _, _, err := Read(bytes.NewReader(mut)); !errors.Is(err, tc.want) {
			t.Errorf("%s: Read returned %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestLengthBound(t *testing.T) {
	// A frame whose length field claims more than MaxPayload is rejected
	// from the header alone — no allocation, no read attempt.
	head := func(size uint32) []byte {
		return binary.LittleEndian.AppendUint32([]byte{magic0, magic1, version, 2}, size)
	}
	for _, size := range []uint32{MaxPayload + 1, 0xffffffff} {
		if _, _, err := Read(bytes.NewReader(head(size))); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("length %d: want ErrTooLarge, got %v", size, err)
		}
		if _, _, _, err := Decode(append(head(size), make([]byte, 64)...)); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("Decode, length %d: want ErrTooLarge, got %v", size, err)
		}
	}
	// MaxPayload itself is a legal length: the header passes and the
	// frame is merely short.
	if _, _, err := Read(bytes.NewReader(head(MaxPayload))); err == nil || errors.Is(err, ErrTooLarge) {
		t.Fatalf("length MaxPayload: got %v, want a truncated-body error", err)
	}
	// Both bounds for real: a MaxPayload frame round-trips, and Append
	// refuses one byte more (a caller bug, so a panic).
	big := make([]byte, MaxPayload+1)
	enc := Append(nil, 2, big[:MaxPayload])
	if _, p, rest, err := Decode(enc); err != nil || len(p) != MaxPayload || len(rest) != 0 {
		t.Fatalf("MaxPayload frame: %d payload bytes, err %v", len(p), err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Append accepted a payload of MaxPayload+1 bytes")
		}
	}()
	Append(nil, 2, big)
}

// FuzzDecode throws arbitrary bytes at the frame decoder — both the
// cluster wire and the mutation WAL parse these straight off a socket or
// a possibly torn file — which must never panic, never allocate from an
// attacker-chosen length field, and round-trip everything it accepts.
func FuzzDecode(f *testing.F) {
	f.Add(Append(nil, 3, nil))
	f.Add(Append(nil, 1, []byte{0, 5, 99}))
	// Two frames back to back (rest must parse too).
	f.Add(Append(Append(nil, 3, nil), 4, []byte{9, 9, 0, 2}))
	// Degenerate and adversarial seeds.
	f.Add([]byte{})
	f.Add([]byte{magic0, magic1, version, 2, 0xff, 0xff, 0xff, 0xff})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		op, payload, rest, err := Decode(data)
		if err != nil {
			return
		}
		if len(payload) > len(data) || len(rest) > len(data) {
			t.Fatalf("decoded slices exceed input: payload=%d rest=%d from %d bytes",
				len(payload), len(rest), len(data))
		}
		// An accepted frame re-encodes byte-identically.
		enc := Append(nil, op, payload)
		if !bytes.Equal(enc, data[:len(data)-len(rest)]) {
			t.Fatalf("frame does not round-trip: %d vs %d bytes", len(enc), len(data)-len(rest))
		}
		// Read agrees with Decode on the same bytes.
		rop, rpayload, rerr := Read(bytes.NewReader(data))
		if rerr != nil || rop != op || !bytes.Equal(rpayload, payload) {
			t.Fatalf("Read disagrees with Decode: op %d vs %d, err %v", rop, op, rerr)
		}
	})
}
