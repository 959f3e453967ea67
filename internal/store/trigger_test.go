package store

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"gridvine/internal/triple"
)

// countingFS counts the bytes written to each file, by base name.
type countingFS struct {
	FS
	written map[string]*int64
}

type countingFile struct {
	File
	n *int64
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	*f.n += int64(n)
	return n, err
}

func (c *countingFS) counted(name string, f File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	base := filepath.Base(name)
	if c.written[base] == nil {
		c.written[base] = new(int64)
	}
	return countingFile{File: f, n: c.written[base]}, nil
}

func (c *countingFS) Create(name string) (File, error) {
	f, err := c.FS.Create(name)
	return c.counted(name, f, err)
}

func (c *countingFS) Append(name string) (File, error) {
	f, err := c.FS.Append(name)
	return c.counted(name, f, err)
}

// sizedLog is a Log over a growing insert-only state, fed records of a few
// small entries each: the shape of a peer's journal under a write load.
type sizedLog struct {
	t     testing.TB
	log   *Log
	state []Entry
	next  int
}

func openSized(t testing.TB, fsys FS, dir string, opts Options) *sizedLog {
	t.Helper()
	l, rec, err := Open(fsys, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := &sizedLog{t: t, log: l, state: append(rec.SnapshotItems, rec.WAL...)}
	s.next = len(s.state)
	l.SetSnapshotSource(func() ([]Entry, []Entry) { return s.state, nil })
	return s
}

// append journals one record of n entries, applies it, and runs the
// trigger; it reports whether a snapshot was taken.
func (s *sizedLog) append(n int) bool {
	s.t.Helper()
	rec := make([]Entry, n)
	for i := range rec {
		rec[i] = Entry{Op: OpInsert, Key: "0101", Value: triple.Triple{
			Subject: fmt.Sprintf("urn:s%d", s.next), Predicate: "urn:p", Object: "o",
		}}
		s.next++
	}
	if err := s.log.Append(rec); err != nil {
		s.t.Fatal(err)
	}
	s.state = append(s.state, rec...)
	before := s.log.Stats().Snapshots
	if err := s.log.MaybeSnapshot(); err != nil {
		s.t.Fatal(err)
	}
	return s.log.Stats().Snapshots > before
}

// TestDefaultSnapshotTriggerIsSizeProportional pins the default trigger:
// a snapshot is due exactly when the WAL holds at least 256 records and at
// least as many bytes as the snapshot it would replace; reopening the log
// moves the trigger point by nothing; and over a long run the snapshot
// bytes written stay within a constant factor of what was journaled.
func TestDefaultSnapshotTriggerIsSizeProportional(t *testing.T) {
	// A large snapshot under default options: 4000 entries, taken by hand.
	seed := func() *FaultFS {
		fs := NewMemFS()
		s := openSized(t, fs, "d", Options{SnapshotEvery: -1})
		for i := 0; i < 10; i++ {
			s.append(400)
		}
		if err := s.log.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if err := s.log.Close(); err != nil {
			t.Fatal(err)
		}
		return fs
	}

	// firstSnapshot feeds one-entry records until the trigger fires and
	// returns how many that took, reopening the log after reopenAt
	// records (never, when negative). Every step is checked against the
	// rule stated on the log's own counters.
	firstSnapshot := func(reopenAt int) int {
		fs := seed()
		s := openSized(t, fs, "d", Options{})
		snap := s.log.Stats().SnapshotBytes
		if snap == 0 || s.log.Stats().WALBytes != 0 {
			t.Fatalf("recovered stats %+v, want the snapshot's length and an empty WAL", s.log.Stats())
		}
		for n := 1; ; n++ {
			if n > 100000 {
				t.Fatal("trigger starved: no snapshot after 100000 records")
			}
			took := s.append(1)
			st := s.log.Stats()
			if took {
				if n < defaultSnapshotEvery || st.WALBytes != 0 || st.SnapshotBytes <= snap {
					t.Fatalf("snapshot at record %d left %+v (replaced snapshot: %d bytes)", n, st, snap)
				}
				return n
			}
			if n >= defaultSnapshotEvery && st.WALBytes >= snap {
				t.Fatalf("record %d: WAL %d bytes >= snapshot %d bytes and no snapshot was taken", n, st.WALBytes, snap)
			}
			if n == reopenAt {
				if err := s.log.Close(); err != nil {
					t.Fatal(err)
				}
				s = openSized(t, fs, "d", Options{})
				if got := s.log.Stats(); got.WALBytes != st.WALBytes || got.SnapshotBytes != snap {
					t.Fatalf("reopen changed the trigger's inputs: %+v, had WAL %d snapshot %d", got, st.WALBytes, snap)
				}
			}
		}
	}
	straight := firstSnapshot(-1)
	if straight <= defaultSnapshotEvery {
		t.Fatalf("snapshot after %d small records over a large snapshot: the record floor alone fired it", straight)
	}
	for _, at := range []int{1, defaultSnapshotEvery, straight - 1} {
		if got := firstSnapshot(at); got != straight {
			t.Errorf("reopened after %d records: snapshot at record %d, uninterrupted run at %d", at, got, straight)
		}
	}

	// Write amplification over a long run from empty: every snapshot was
	// paid for by a WAL at least as long as its predecessor, so the total
	// stays within a small multiple of the journal itself.
	fs := &countingFS{FS: NewMemFS(), written: map[string]*int64{}}
	s := openSized(t, fs, "d", Options{})
	snapshots := 0
	for i := 0; i < 5000; i++ {
		if s.append(4) {
			snapshots++
		}
	}
	snapBytes, walBytes := *fs.written[tmpFile], *fs.written[walFile]
	final := s.log.Stats().SnapshotBytes
	if snapshots < 3 {
		t.Fatalf("only %d snapshots in 5000 appends: the trigger starves", snapshots)
	}
	if snapBytes > 3*(final+walBytes) {
		t.Fatalf("%d snapshots wrote %d bytes for %d WAL bytes and a final snapshot of %d: not amortised", snapshots, snapBytes, walBytes, final)
	}
	t.Logf("5000 appends: %d snapshots, %d snapshot bytes, %d WAL bytes, final snapshot %d bytes", snapshots, snapBytes, walBytes, final)
}

// TestCrashMatrixSizeTriggeredSnapshots is the crash matrix under default
// Options: a workload just long enough for the size rule to fire twice,
// killed clean and torn at every I/O boundary of each snapshot and at a
// stride of the appends between them, with TestCrashMatrix's oracle.
func TestCrashMatrixSizeTriggeredSnapshots(t *testing.T) {
	batches := crashWorkload(7, 2*defaultSnapshotEvery+8)
	refs := referenceStates(batches)
	feed := func(fsys FS, eachWrite func(m *model)) (acked uint64) {
		m, _, err := openModel(fsys, "peer", Options{})
		if err != nil {
			return 0
		}
		for _, b := range batches {
			ok := m.write(b)
			if eachWrite != nil {
				eachWrite(m)
			}
			if !ok {
				break
			}
		}
		return m.log.Seq()
	}

	// Clean run: find the op ranges the snapshots span.
	clean := NewFaultFS(1)
	var points []int
	var snaps int64
	lastOp := 0
	acked := feed(clean, func(m *model) {
		if n := m.log.Stats().Snapshots; n > snaps {
			snaps = n
			for op := lastOp + 1; op <= clean.Ops(); op++ {
				points = append(points, op)
			}
		} else if clean.Ops()%61 == 0 {
			points = append(points, clean.Ops())
		}
		lastOp = clean.Ops()
	})
	if acked != uint64(len(batches)) || snaps < 2 {
		t.Fatalf("clean run acked %d of %d batches with %d snapshots, want all and at least 2", acked, len(batches), snaps)
	}

	for _, torn := range []bool{false, true} {
		for _, op := range points {
			name := fmt.Sprintf("torn=%v/op=%d", torn, op)
			fs := NewFaultFS(int64(1000*op) + 7)
			fs.CrashAt(op, torn)
			acked := feed(fs, nil)
			if !fs.Crashed() {
				t.Fatalf("%s: crash never fired", name)
			}
			view := fs.CrashedView()
			d, rec, err := openModel(view, "peer", Options{})
			if err != nil {
				t.Fatalf("%s: recovery failed: %v", name, err)
			}
			if rec.LastSeq < acked || rec.LastSeq > uint64(len(batches)) {
				t.Fatalf("%s: recovered seq %d, acked %d, fed %d", name, rec.LastSeq, acked, len(batches))
			}
			if got, want := d.db.AllSorted(), refs[rec.LastSeq]; !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: recovered content != reference prefix (seq %d): %d vs %d triples", name, rec.LastSeq, len(got), len(want))
			}
			// Writable after recovery, to the full reference state.
			for _, b := range batches[rec.LastSeq:] {
				d.write(b)
			}
			if err := d.log.Err(); err != nil {
				t.Fatalf("%s: resumed writes failed: %v", name, err)
			}
			if !reflect.DeepEqual(d.db.AllSorted(), refs[len(batches)]) {
				t.Fatalf("%s: resumed store != full reference", name)
			}
			d.log.Close()

			d2, rec2, err := openModel(view, "peer", Options{})
			if err != nil || rec2.TruncatedBytes != 0 || !reflect.DeepEqual(d2.db.AllSorted(), refs[len(batches)]) {
				t.Fatalf("%s: re-recovery after resume: err %v, %d bytes truncated", name, err, rec2.TruncatedBytes)
			}
			d2.log.Close()
		}
	}
	t.Logf("%d snapshots, %d crash points x 2 modes", snaps, len(points))
}

// BenchmarkAppendOnLoadedLog appends 4-entry records, default Options, to a
// log recovered with an 8k-entry snapshot: what a write costs a loaded
// peer's journal, snapshots included (disk-B/op counts every byte written).
func BenchmarkAppendOnLoadedLog(b *testing.B) {
	dir := b.TempDir()
	fs := &countingFS{FS: OsFS{}, written: map[string]*int64{}}
	s := openSized(b, fs, dir, Options{SnapshotEvery: -1})
	for i := 0; i < 20; i++ {
		s.append(400)
	}
	if err := s.log.Snapshot(); err != nil {
		b.Fatal(err)
	}
	s.log.Close()
	s = openSized(b, fs, dir, Options{})
	defer s.log.Close()
	disk := func() (n int64) {
		for _, w := range fs.written {
			n += *w
		}
		return n
	}
	before := disk()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.append(4)
	}
	b.StopTimer()
	b.ReportMetric(float64(disk()-before)/float64(b.N), "disk-B/op")
}
