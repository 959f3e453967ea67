package store

import (
	"bytes"
	"testing"

	"gridvine/internal/triple"
)

// buildValidLog frames a few realistic records the way Append would.
func buildValidLog(tb testing.TB) []byte {
	var buf bytes.Buffer
	for seq := uint64(1); seq <= 3; seq++ {
		rec := Record{Seq: seq, Entries: []Entry{
			{Op: OpInsert, Key: "0101", Value: triple.Triple{Subject: "urn:s", Predicate: "urn:p", Object: "o"}},
			{Op: OpDelete, Key: "1100", Value: triple.Triple{Subject: "urn:s2", Predicate: "urn:p", Object: "o2"}},
		}}
		b, err := encodeRecord(nil, rec)
		if err != nil {
			tb.Fatal(err)
		}
		buf.Write(b)
	}
	return buf.Bytes()
}

// FuzzWALDecode feeds the record decoder arbitrary bytes — including
// truncated and bit-flipped variants of a valid log — and asserts it
// never panics, never reports an offset outside the input, and never
// returns a record region that fails re-verification: decoding the
// reported good prefix must yield exactly the same records, cleanly.
func FuzzWALDecode(f *testing.F) {
	valid := buildValidLog(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)-3])                       // torn tail
	f.Add(valid[:frameHeader-2])                      // torn header
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}) // implausible length
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40 // checksum corruption mid-log
	f.Add(flipped)
	f.Add(append(append([]byte(nil), valid...), 0xde, 0xad, 0xbe)) // garbage tail

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, goodLen, err := DecodeRecords(data)
		if goodLen < 0 || goodLen > len(data) {
			t.Fatalf("goodLen %d outside input of %d bytes", goodLen, len(data))
		}
		if err == nil && goodLen != len(data) {
			t.Fatalf("clean decode but goodLen %d != %d", goodLen, len(data))
		}
		// The good prefix must re-decode to the identical records with
		// no error: what DecodeRecords vouches for is stable and every
		// vouched record sits in a checksum-valid frame.
		recs2, goodLen2, err2 := DecodeRecords(data[:goodLen])
		if err2 != nil {
			t.Fatalf("good prefix failed to re-decode: %v", err2)
		}
		if goodLen2 != goodLen || len(recs2) != len(recs) {
			t.Fatalf("re-decode diverged: %d/%d records, %d/%d bytes",
				len(recs2), len(recs), goodLen2, goodLen)
		}
		for i := range recs {
			if recs[i].Seq != recs2[i].Seq || len(recs[i].Entries) != len(recs2[i].Entries) {
				t.Fatalf("record %d diverged between decodes", i)
			}
		}
	})
}
