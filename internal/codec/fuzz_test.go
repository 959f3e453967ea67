package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"

	"gridvine/internal/simnet"
)

// frameOf wraps payload in a valid frame of type t.
func frameOf(t byte, payload []byte) []byte {
	fr := make([]byte, FrameHeader, FrameHeader+len(payload))
	fr[0] = t
	binary.LittleEndian.PutUint32(fr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(fr[5:9], crc32.Checksum(payload, crcTable))
	return append(fr, payload...)
}

// FuzzOverlayDecode throws arbitrary bytes at the overlay's frame parser,
// its io.Reader twin and the envelope decoder, and asserts the same
// contract FuzzWireDecode does for the client protocol: truncated,
// corrupt, oversized or over-nested input yields a classified error —
// never a panic, never an allocation for a count the payload cannot hold
// (TestOverlayRefusesHostilePayloads measures that on these seeds) — and a
// payload that decodes re-encodes to the same bytes.
func FuzzOverlayDecode(f *testing.F) {
	seeds := [][]byte{{}, {0}, {FrameOverlay}, bytes.Repeat([]byte{0xff}, FrameHeader)}
	for _, g := range goldenFrames {
		fr, err := EncodeOverlay(&g.env)
		if err != nil {
			f.Fatal(err)
		}
		corrupt := append([]byte(nil), fr...)
		corrupt[len(corrupt)-1] ^= 0x40
		seeds = append(seeds, fr, fr[:len(fr)-2], fr[FrameHeader:], corrupt)
	}
	for _, zero := range tagged()[1:] {
		fr, err := EncodeOverlay(&Envelope{Msg: simnet.Message{Payload: filled(f, zero)}})
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, fr)
	}
	huge := make([]byte, FrameHeader)
	huge[0] = FrameOverlay
	binary.LittleEndian.PutUint32(huge[1:5], MaxPayload+1)
	seeds = append(seeds, huge)
	for _, h := range hostilePayloads {
		seeds = append(seeds, frameOf(FrameOverlay, h.payload))
	}
	// What a peer built before tags 23 and 24 were retired sends under
	// them: a sync request for path 01, an empty sync response. These old
	// frames still carry the message type string (empty here) after the
	// sender.
	seeds = append(seeds, frameOf(FrameOverlay, uv(0, 0, 23, 2, "01", 0)), frameOf(FrameOverlay, uv(0, 0, 24, 0, 0, 0)))
	// And under tags 27 and 28, before the recursive reformulation messages
	// were retired: a step for (?x, <A#org>, "v") with TTL 5 and confidence
	// 1, an empty aggregated answer.
	seeds = append(seeds,
		frameOf(FrameOverlay, uv(0, 0, 27, 1, 1, "x", 0, 5, "A#org", 0, 1, "v", 10, 1, 5, "A#org", 0,
			"\x00\x00\x00\x00\x00\x00\xf0\x3f", "\x00\x00\x00\x00\x00\x00\x00\x00", 2, 0, 0)),
		frameOf(FrameOverlay, uv(0, 0, 28, 0, 0, 0, 0, 0)))
	// And under tags 5 and 6, before a pattern request carried a list of
	// patterns and was answered by one triple list: a key group of
	// (?x, <A#org>, "v") and (?x, <B#name>, "v") filtered to x = s1, and its
	// answer of one row for the first pattern and none for the second.
	seeds = append(seeds,
		frameOf(FrameOverlay, uv(0, 0, 5, 2, 1, 1, "x", 0, 5, "A#org", 0, 1, "v", 1, 1, "x", 0, 6, "B#name", 0, 1, "v", 1, 1, "x", 1, 2, "s1", 0, 0)),
		frameOf(FrameOverlay, uv(0, 0, 6, 2, 1, 4, "s001", 5, "A#org", 12, "species-rare", 0, 0)))
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		for len(rest) > 0 {
			_, payload, n, err := ParseFrame(rest, FrameOverlay)
			if err != nil {
				if !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrShortFrame) {
					t.Fatalf("unclassified frame error: %v", err)
				}
				break
			}
			if n < FrameHeader || n > len(rest) || len(payload) != n-FrameHeader {
				t.Fatalf("consumed %d of %d bytes for a %d-byte payload", n, len(rest), len(payload))
			}
			checkEnvelope(t, payload)
			rest = rest[n:]
		}
		// The checksum keeps most mutated frames away from the envelope
		// decoder: hand it the bytes as a payload too.
		checkEnvelope(t, data)
		if _, _, err := ReadFrame(bytes.NewReader(data), FrameOverlay); err != nil {
			if !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrShortFrame) && !errors.Is(err, io.EOF) {
				t.Fatalf("unclassified ReadFrame error: %v", err)
			}
		}
	})
}

// checkEnvelope decodes a payload that passed its checksum. It may still
// not be an envelope and must then fail classified; one that decodes is the
// only spelling of its message, so re-encoding returns it.
func checkEnvelope(t *testing.T, payload []byte) {
	env, err := DecodeOverlay(payload)
	if err != nil {
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("unclassified envelope error: %v", err)
		}
		return
	}
	again, err := EncodeOverlay(&env)
	if err != nil {
		t.Fatalf("re-encode of decoded %T: %v", env.Msg.Payload, err)
	}
	if !bytes.Equal(again[FrameHeader:], payload) {
		t.Fatalf("decoded %T re-encodes differently:\n got %x\nfrom %x", env.Msg.Payload, again[FrameHeader:], payload)
	}
}
