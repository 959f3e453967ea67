package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"

	"gridvine/internal/codec"
	"gridvine/internal/triple"
)

// FuzzWireDecode throws arbitrary bytes at both frame decoders (the
// byte-slice parser and the io.Reader path) and asserts the protocol's
// robustness contract: truncated, corrupt, or oversized frames yield a
// classified error — never a panic, never an allocation beyond the bytes
// received, and never a frame that failed its checksum — and a payload
// that decodes re-encodes to the same bytes.
func FuzzWireDecode(f *testing.F) {
	pat := triple.Pattern{S: triple.Var("s"), P: triple.Const("p"), O: triple.Var("o")}
	seeds := [][]byte{
		{},
		{0},
		{byte(TQuery)},
		bytes.Repeat([]byte{0xff}, codec.FrameHeader),
	}
	if fr, err := EncodeFrame(TQuery, &Query{ID: 7, Pattern: &pat}); err == nil {
		seeds = append(seeds, fr, fr[:len(fr)-2], fr[codec.FrameHeader:])
		corrupt := append([]byte(nil), fr...)
		corrupt[len(corrupt)-1] ^= 0x40
		seeds = append(seeds, corrupt)
		// Two frames back to back: the loop must consume both.
		if fr2, err := EncodeFrame(TCancel, &Cancel{ID: 9}); err == nil {
			seeds = append(seeds, append(append([]byte(nil), fr...), fr2...))
		}
	}
	// A header claiming an oversized payload must be rejected before
	// any allocation happens.
	huge := make([]byte, codec.FrameHeader)
	huge[0] = byte(TRowChunk)
	binary.LittleEndian.PutUint32(huge[1:5], codec.MaxPayload+1)
	seeds = append(seeds, huge)
	// Well-framed lies: a count of 2^40 rows, a string length past the
	// payload's end. The checksum holds, so they reach the message decoder.
	for _, h := range hostilePayloads[:2] {
		fr := make([]byte, codec.FrameHeader, codec.FrameHeader+len(h.payload))
		fr[0] = byte(h.t)
		binary.LittleEndian.PutUint32(fr[1:5], uint32(len(h.payload)))
		binary.LittleEndian.PutUint32(fr[5:9], crc32.Checksum(h.payload, crc32.MakeTable(crc32.Castagnoli)))
		seeds = append(seeds, append(fr, h.payload...))
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		for len(rest) > 0 {
			typ, payload, n, err := DecodeFrame(rest)
			if err != nil {
				if !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrShortFrame) {
					t.Fatalf("unclassified decode error: %v", err)
				}
				break
			}
			if n <= codec.FrameHeader-1 || n > len(rest) {
				t.Fatalf("consumed %d of %d bytes", n, len(rest))
			}
			if len(payload) != n-codec.FrameHeader {
				t.Fatalf("payload %d bytes for frame of %d", len(payload), n)
			}
			checkPayload(t, typ, payload)
			rest = rest[n:]
		}

		// The checksum keeps most mutated frames away from the message
		// decoder: hand it the bytes as a payload too, of the type the
		// first byte picks.
		if len(data) > 0 {
			checkPayload(t, Type(data[0])%maxType+1, data[1:])
		}

		// The io.Reader path must classify identically and never panic.
		if _, _, err := ReadFrame(bytes.NewReader(data)); err != nil {
			if !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrShortFrame) && !errors.Is(err, io.EOF) {
				t.Fatalf("unclassified ReadFrame error: %v", err)
			}
		}
	})
}

// checkPayload decodes a payload that passed its checksum. It may still
// not be a message (validly-framed garbage) and must then fail classified,
// without panicking. The layout is canonical: a payload that does decode
// is the only spelling of its message, so re-encoding returns it.
func checkPayload(t *testing.T, typ Type, payload []byte) {
	msg, err := DecodeMessage(typ, payload)
	if err != nil {
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("unclassified message error: %v", err)
		}
		return
	}
	refr, err := EncodeFrame(typ, msg)
	if err != nil {
		t.Fatalf("re-encode of decoded %T: %v", msg, err)
	}
	if !bytes.Equal(refr[codec.FrameHeader:], payload) {
		t.Fatalf("decoded %T re-encodes differently:\n got %x\nfrom %x", msg, refr[codec.FrameHeader:], payload)
	}
}

// TestDecodeFrameOversizedLength pins the allocation guard: a header
// claiming more than codec.MaxPayload is rejected as a bad frame even though
// the bytes "after" it are absent, and the reader path refuses it too.
func TestDecodeFrameOversizedLength(t *testing.T) {
	hdr := make([]byte, codec.FrameHeader)
	hdr[0] = byte(TRowChunk)
	binary.LittleEndian.PutUint32(hdr[1:5], codec.MaxPayload+1)
	if _, _, _, err := DecodeFrame(hdr); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized claim: got %v, want ErrBadFrame", err)
	}
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized claim via reader: got %v, want ErrBadFrame", err)
	}
}

// TestReadFrameTruncatedPayload pins the short-read classification: a
// valid header whose payload never arrives is a truncated frame.
func TestReadFrameTruncatedPayload(t *testing.T) {
	fr, err := EncodeFrame(TCancel, &Cancel{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(fr); cut++ {
		if _, _, err := ReadFrame(bytes.NewReader(fr[:cut])); !errors.Is(err, ErrShortFrame) {
			t.Fatalf("cut at %d: got %v, want ErrShortFrame", cut, err)
		}
	}
}
