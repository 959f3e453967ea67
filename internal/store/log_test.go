package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gridvine/internal/triple"
)

func entryN(i int) []Entry {
	return []Entry{{Op: OpInsert, Key: "01", Value: triple.Triple{
		Subject: "urn:s", Predicate: "urn:p", Object: string(rune('a' + i)),
	}}}
}

// TestLogSnapshotTruncatesWAL proves the snapshot/truncate protocol:
// after a snapshot the WAL is reset, and recovery replays snapshot
// state plus only post-snapshot records.
func TestLogSnapshotTruncatesWAL(t *testing.T) {
	fs := NewMemFS()
	l, rec, err := Open(fs, "d", Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 0 || rec.LastSeq != 0 {
		t.Fatalf("fresh open recovered %+v", rec)
	}
	var state []Entry
	l.SetSnapshotSource(func() ([]Entry, []Entry) { return state, nil })
	for i := 0; i < 5; i++ {
		if err := l.Append(entryN(i)); err != nil {
			t.Fatal(err)
		}
		state = append(state, entryN(i)...)
	}
	preSnap, _ := fs.ReadFile(filepath.Join("d", walFile))
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	postSnap, _ := fs.ReadFile(filepath.Join("d", walFile))
	if string(postSnap) != fileHeader || len(preSnap) <= len(fileHeader) {
		t.Fatalf("snapshot did not reset the WAL to its header: %d -> %d bytes", len(preSnap), len(postSnap))
	}
	if err := l.Append(entryN(5)); err != nil {
		t.Fatal(err)
	}
	state = append(state, entryN(5)...)
	l.Close()

	_, rec2, err := Open(fs, "d", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.SnapshotItems) != 5 || rec2.Records != 1 || rec2.LastSeq != 6 {
		t.Fatalf("recovery = %d snapshot items, %d records, seq %d; want 5, 1, 6",
			len(rec2.SnapshotItems), rec2.Records, rec2.LastSeq)
	}
}

// TestLogCorruptTailTruncated proves a checksum-corrupt tail (as a
// torn write or external corruption would leave) is detected, counted,
// and cut — and that the records before it survive intact.
func TestLogCorruptTailTruncated(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(fs, "d", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(entryN(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Smash garbage onto the tail, as an in-flight record at power
	// loss would.
	walPath := filepath.Join("d", walFile)
	f, err := fs.Append(walPath)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{9, 0, 0, 0, 0xba, 0xad, 0xf0, 0x0d, 1, 2, 3})
	f.Close()

	_, rec, err := Open(fs, "d", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 3 || rec.TruncatedBytes == 0 {
		t.Fatalf("recovery = %d records, %d truncated bytes; want 3 records and a truncation",
			rec.Records, rec.TruncatedBytes)
	}
	// The truncation is persistent: a second open finds a clean log.
	_, rec2, err := Open(fs, "d", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec2.TruncatedBytes != 0 || rec2.Records != 3 {
		t.Fatalf("second recovery = %+v; want clean 3-record log", rec2)
	}
}

// TestLogSequenceGapCut proves the monotonic-sequence insurance: a
// record whose Seq skips ahead (tampering or undetected reordering) is
// cut along with everything after it.
func TestLogSequenceGapCut(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(fs, "d", Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(entryN(0))
	l.Append(entryN(1))
	l.Close()
	// Forge a seq-9 record onto the tail.
	forged, err := encodeRecord(nil, Record{Seq: 9, Entries: entryN(2)})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Append(filepath.Join("d", walFile))
	f.Write(forged)
	f.Close()

	_, rec, err := Open(fs, "d", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 2 || rec.LastSeq != 2 || rec.TruncatedBytes == 0 {
		t.Fatalf("recovery = %+v; want 2 records ending at seq 2 with the forged tail cut", rec)
	}
}

// TestLogOsFS round-trips the full append/snapshot/recover cycle on
// the real filesystem, including the directory-sync path.
func TestLogOsFS(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "peer")
	l, _, err := Open(OsFS{}, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var state []Entry
	l.SetSnapshotSource(func() ([]Entry, []Entry) { return state, nil })
	for i := 0; i < 4; i++ {
		if err := l.Append(entryN(i)); err != nil {
			t.Fatal(err)
		}
		state = append(state, entryN(i)...)
	}
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(entryN(4)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(OsFS{}, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.SnapshotItems) != 4 || rec.Records != 1 || rec.LastSeq != 5 {
		t.Fatalf("OsFS recovery = %d items, %d records, seq %d", len(rec.SnapshotItems), rec.Records, rec.LastSeq)
	}
}

// TestLogStickyError proves the log refuses appends after a durability
// failure instead of silently diverging from disk: every later Append
// returns the sticky error and the acked watermark does not advance.
func TestLogStickyError(t *testing.T) {
	fs := NewFaultFS(3)
	l, _, err := Open(fs, "d", Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(entryN(0)); err != nil {
		t.Fatalf("first append: %v", err)
	}
	fs.CrashAt(1, false)
	failed := l.Append(entryN(1))
	if failed == nil {
		t.Fatal("append across the crash must fail")
	}
	if l.Err() == nil {
		t.Fatal("Err must report the durability failure")
	}
	for i := 2; i < 5; i++ {
		if err := l.Append(entryN(i)); !errors.Is(err, failed) {
			t.Fatalf("append %d after failure returned %v, want the sticky %v", i, err, failed)
		}
	}
	if got := l.Seq(); got != 1 {
		t.Fatalf("acked watermark advanced past the durable state: Seq=%d, want 1", got)
	}
}

// TestLogMatchesMemory is the journal-equivalence property test: over
// random interleavings of insert batches, delete batches, forced
// snapshots and close/reopen cycles, what the log recovers stays
// identical to an in-memory DB fed the same operations.
func TestLogMatchesMemory(t *testing.T) {
	opts := Options{SnapshotEvery: 5}
	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			fs := NewMemFS()
			m, _, err := openModel(fs, "db", opts)
			if err != nil {
				t.Fatal(err)
			}
			mem := triple.NewDB()
			for step := 0; step < 160; step++ {
				switch op := rng.Intn(8); op {
				case 6: // forced snapshot
					if err := m.log.Snapshot(); err != nil {
						t.Fatalf("step %d: snapshot: %v", step, err)
					}
				case 7: // close and reopen
					if err := m.log.Close(); err != nil {
						t.Fatalf("step %d: close: %v", step, err)
					}
					if m, _, err = openModel(fs, "db", opts); err != nil {
						t.Fatalf("step %d: reopen: %v", step, err)
					}
				default: // batch insert, or batch delete of random (often absent) values
					b := crashBatch{del: op >= 4, ts: make([]triple.Triple, 1+rng.Intn(5))}
					for i := range b.ts {
						b.ts[i] = triple.Triple{
							Subject:   fmt.Sprintf("urn:s%d", rng.Intn(30)),
							Predicate: fmt.Sprintf("urn:p%d", rng.Intn(5)),
							Object:    fmt.Sprintf("o%d", rng.Intn(50)),
						}
						if b.del {
							mem.Delete(b.ts[i])
						} else {
							mem.Insert(b.ts[i])
						}
					}
					if !m.write(b) {
						t.Fatalf("step %d: write: %v", step, m.log.Err())
					}
				}
				if !reflect.DeepEqual(m.db.AllSorted(), mem.AllSorted()) {
					t.Fatalf("step %d: journaled store diverged from memory", step)
				}
			}
		})
	}
}

// failingTempFS fails the snapshot temp file's Write, or its Sync, and
// records whether the handle was closed.
type failingTempFS struct {
	FS
	failSync bool
	closed   bool
}

var errDiskFull = errors.New("disk full")

func (f *failingTempFS) Create(name string) (File, error) {
	h, err := f.FS.Create(name)
	if err != nil || filepath.Base(name) != tmpFile {
		return h, err
	}
	return &failingTemp{File: h, fs: f}, nil
}

type failingTemp struct {
	File
	fs *failingTempFS
}

func (h *failingTemp) Write(p []byte) (int, error) {
	if !h.fs.failSync {
		return 0, errDiskFull
	}
	return h.File.Write(p)
}

func (h *failingTemp) Sync() error { return errDiskFull }

func (h *failingTemp) Close() error {
	h.fs.closed = true
	return h.File.Close()
}

// TestSnapshotClosesTempOnFailure: a snapshot whose temp file cannot be
// written or synced (a full disk, say) reports the failure and still
// closes the temp file, so a failing snapshot leaks no descriptor.
func TestSnapshotClosesTempOnFailure(t *testing.T) {
	for _, failSync := range []bool{false, true} {
		fs := &failingTempFS{FS: NewMemFS(), failSync: failSync}
		l, _, err := Open(fs, "d", Options{SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		l.SetSnapshotSource(func() ([]Entry, []Entry) { return entryN(0), nil })
		if err := l.Append(entryN(0)); err != nil {
			t.Fatal(err)
		}
		if err := l.Snapshot(); !errors.Is(err, errDiskFull) {
			t.Errorf("failSync=%v: Snapshot = %v, want the temp file's %v", failSync, err, errDiskFull)
		}
		if !fs.closed {
			t.Errorf("failSync=%v: the snapshot temp file was left open", failSync)
		}
	}
}

// TestOpenWithoutCodec: with no record codec registered, Open fails
// instead of guessing at a layout.
func TestOpenWithoutCodec(t *testing.T) {
	defer RegisterCodec(recordCodec)
	RegisterCodec(nil)
	if _, _, err := Open(NewMemFS(), "d", Options{}); !errors.Is(err, errNoCodec) {
		t.Fatalf("Open with no codec = %v, want %v", err, errNoCodec)
	}
}

// TestWALCutInsideHeaderRecoversEmpty: a WAL no longer than the file
// header — created and never written, or cut (and torn) by a crash while
// its header was being written — holds no record: it recovers as empty,
// next to its snapshot, and is started afresh.
func TestWALCutInsideHeaderRecoversEmpty(t *testing.T) {
	for _, wal := range []string{"", "GV", fileHeader[:3] + "\x00", fileHeader} {
		fs := NewMemFS()
		l, _, err := Open(fs, "d", Options{SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		l.SetSnapshotSource(func() ([]Entry, []Entry) { return entryN(0), nil })
		if err := l.Append(entryN(0)); err != nil {
			t.Fatal(err)
		}
		if err := l.Snapshot(); err != nil {
			t.Fatal(err)
		}
		l.Close()
		walPath := filepath.Join("d", walFile)
		f, _ := fs.Create(walPath)
		f.Write([]byte(wal))
		f.Close()

		l, rec, err := Open(fs, "d", Options{})
		if err != nil {
			t.Fatalf("WAL %q: %v", wal, err)
		}
		if len(rec.SnapshotItems) != 1 || rec.Records != 0 || rec.LastSeq != 1 {
			t.Fatalf("WAL %q recovered %+v, want the snapshot alone", wal, rec)
		}
		if err := l.Append(entryN(1)); err != nil {
			t.Fatal(err)
		}
		l.Close()
		if _, rec, err := Open(fs, "d", Options{}); err != nil || rec.Records != 1 || rec.LastSeq != 2 {
			t.Fatalf("WAL %q restarted: %v, %+v; want one record after the snapshot", wal, err, rec)
		}
	}
}

// TestTornFirstRecordSparesHeader: power loss while the first record of a
// fresh WAL is written or synced cuts and may flip bits of that record
// only — the header was synced on its own — so recovery always opens.
func TestTornFirstRecordSparesHeader(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		for op := 1; op <= 2; op++ {
			fs := NewFaultFS(seed)
			l, _, err := Open(fs, "d", Options{})
			if err != nil {
				t.Fatal(err)
			}
			fs.CrashAt(op, true)
			if l.Append(entryN(0)) == nil {
				t.Fatalf("seed %d op %d: append across the crash succeeded", seed, op)
			}
			if _, rec, err := Open(fs.CrashedView(), "d", Options{}); err != nil || rec.Records != 0 {
				t.Fatalf("seed %d op %d: recovery = %v, %+v; want an empty log", seed, op, err, rec)
			}
		}
	}
}

// TestOpenRefusesUndecodableRecord: a whole record whose checksum holds but
// whose payload does not decode is no torn tail — a good, acked record
// follows it here — so Open refuses the WAL, naming it, and leaves its
// bytes as they are instead of truncating both records away.
func TestOpenRefusesUndecodableRecord(t *testing.T) {
	fs := NewMemFS()
	l, _, err := Open(fs, "d", Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(entryN(0)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	garbage := []byte{0xff, 0xfe, 0xfd, 0xfc, 0xfb}
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(garbage)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(garbage, crcTable))
	frame = append(frame, garbage...)
	good, err := encodeRecord(nil, Record{Seq: 2, Entries: entryN(1)})
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join("d", walFile)
	f, err := fs.Append(walPath)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(append(frame, good...))
	f.Close()
	before, _ := fs.ReadFile(walPath)

	if _, _, err := Open(fs, "d", Options{}); !errors.Is(err, errUndecodable) || !strings.Contains(err.Error(), walPath) {
		t.Fatalf("Open = %v, want an undecodable-record error naming %s", err, walPath)
	}
	if after, err := fs.ReadFile(walPath); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("refused Open changed the WAL: %d -> %d bytes (err %v)", len(before), len(after), err)
	}
}
