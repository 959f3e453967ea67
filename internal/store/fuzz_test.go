package store_test

import (
	"path/filepath"
	"testing"

	"gridvine/internal/store"
)

// buildValidLog journals a few records holding every stored kind through
// the Log and returns the WAL file.
func buildValidLog(tb testing.TB) []byte {
	fs := store.NewMemFS()
	l, _, err := store.Open(fs, "d", store.Options{SnapshotEvery: -1})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(everyKind(i)); err != nil {
			tb.Fatal(err)
		}
	}
	l.Close()
	data, err := fs.ReadFile(filepath.Join("d", "wal.log"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzWALDecode feeds the journal-file decoder arbitrary bytes —
// including truncated and bit-flipped variants of a valid log — and
// asserts it never panics, never reports an offset outside the input, and
// never returns a record region that fails re-verification: decoding the
// reported good prefix must yield exactly the same records, cleanly.
func FuzzWALDecode(f *testing.F) {
	valid := buildValidLog(f)
	head := len(store.FileHeader)
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)-3])                                                 // torn tail
	f.Add(valid[:head+6])                                                       // torn record header
	f.Add(valid[:head-2])                                                       // cut inside the file header
	f.Add(append([]byte(store.FileHeader), 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0)) // implausible length
	f.Add(valid[head:])                                                         // records without the file header
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40 // checksum corruption mid-log
	f.Add(flipped)
	f.Add(append(append([]byte(nil), valid...), 0xde, 0xad, 0xbe)) // garbage tail

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, goodLen, err := store.DecodeRecords(data)
		if goodLen < 0 || goodLen > len(data) {
			t.Fatalf("goodLen %d outside input of %d bytes", goodLen, len(data))
		}
		if err == nil && goodLen != len(data) {
			t.Fatalf("clean decode but goodLen %d != %d", goodLen, len(data))
		}
		// The good prefix must re-decode to the identical records with
		// no error: what DecodeRecords vouches for is stable and every
		// vouched record sits in a checksum-valid frame.
		recs2, goodLen2, err2 := store.DecodeRecords(data[:goodLen])
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
