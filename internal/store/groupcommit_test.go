package store

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"gridvine/internal/triple"
)

// gateFS wraps another FS and blocks the first WAL fsync until released,
// so a deterministic number of concurrent appends can stage behind the
// in-flight flush leader.
type gateFS struct {
	FS
	once    sync.Once
	gate    chan struct{}
	blocked chan struct{} // closed when the first sync is waiting
}

func newGateFS(base FS) *gateFS {
	return &gateFS{FS: base, gate: make(chan struct{}), blocked: make(chan struct{})}
}

func (g *gateFS) Append(name string) (File, error) {
	f, err := g.FS.Append(name)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, g: g}, nil
}

type gateFile struct {
	File
	g *gateFS
}

func (f *gateFile) Sync() error {
	f.g.once.Do(func() {
		close(f.g.blocked)
		<-f.g.gate
	})
	return f.File.Sync()
}

// TestGroupCommitCoalesces holds the first fsync open, stages a crowd
// of concurrent appends behind it, and proves the crowd shares a
// single follow-up fsync instead of paying one each.
func TestGroupCommitCoalesces(t *testing.T) {
	const followers = 16
	fs := newGateFS(NewMemFS())
	l, _, err := Open(fs, "d", Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := l.Append(entryN(0)); err != nil {
			t.Errorf("leader append: %v", err)
		}
	}()
	<-fs.blocked // leader is inside its fsync, lock released

	wg.Add(followers)
	for i := 0; i < followers; i++ {
		go func(i int) {
			defer wg.Done()
			if err := l.Append(entryN(1 + i)); err != nil {
				t.Errorf("follower append: %v", err)
			}
		}(i)
	}
	// Wait until every follower has staged its record; staging happens
	// before any follower can block on the leader's fsync.
	for l.StagedSeq() != followers+1 {
		runtime.Gosched()
	}
	close(fs.gate)
	wg.Wait()

	if got := l.Syncs(); got != 2 {
		t.Fatalf("syncs = %d, want 2 (leader + one group for %d followers)", got, followers)
	}
	l.Close()

	_, rec, err := Open(fs.FS, "d", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != followers+1 || rec.LastSeq != followers+1 {
		t.Fatalf("recovered %d records, last seq %d; want %d", rec.Records, rec.LastSeq, followers+1)
	}
}

// TestGroupCommitRecoversAllRecords hammers the log from many
// goroutines and proves every acked record is recovered in a
// contiguous sequence with no loss and no duplication.
func TestGroupCommitRecoversAllRecords(t *testing.T) {
	const goroutines, perG = 16, 50
	fs := NewMemFS()
	l, _, err := Open(fs, "d", Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				e := []Entry{{Op: OpInsert, Key: "k", Value: triple.Triple{
					Subject: fmt.Sprintf("urn:s%d-%d", g, i), Predicate: "urn:p", Object: "o",
				}}}
				if err := l.Append(e); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec, err := Open(fs, "d", Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := goroutines * perG
	if rec.Records != want || rec.LastSeq != uint64(want) || len(rec.WAL) != want {
		t.Fatalf("recovered records=%d lastSeq=%d entries=%d; want %d", rec.Records, rec.LastSeq, len(rec.WAL), want)
	}
	subjects := make([]string, 0, want)
	for _, e := range rec.WAL {
		subjects = append(subjects, e.Value.(triple.Triple).Subject)
	}
	sort.Strings(subjects)
	for i := 1; i < len(subjects); i++ {
		if subjects[i] == subjects[i-1] {
			t.Fatalf("duplicate recovered record %q", subjects[i])
		}
	}
	if l.Syncs() > int64(want) {
		t.Fatalf("syncs = %d exceeds appends = %d", l.Syncs(), want)
	}
}

// TestSnapshotAbsorbsPendingAppends proves an append staged behind a
// flush can be acked by a concurrent snapshot instead: the snapshot's
// Seq covers it, and recovery sees the snapshot state.
func TestSnapshotAbsorbsPendingAppends(t *testing.T) {
	fs := newGateFS(NewMemFS())
	l, _, err := Open(fs, "d", Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var state []Entry
	l.SetSnapshotSource(func() ([]Entry, []Entry) {
		mu.Lock()
		defer mu.Unlock()
		return append([]Entry(nil), state...), nil
	})
	add := func(i int) {
		mu.Lock()
		state = append(state, entryN(i)...)
		mu.Unlock()
		if err := l.Append(entryN(i)); err != nil {
			t.Errorf("append %d: %v", i, err)
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); add(0) }()
	<-fs.blocked // leader parked in fsync

	wg.Add(1)
	go func() { defer wg.Done(); add(1) }() // stages as pending
	for l.StagedSeq() != 2 {
		runtime.Gosched()
	}
	// Snapshot must wait for the in-flight flush, then absorb the
	// pending record: after it, the WAL is empty but both appends are
	// acked and recovered from the snapshot.
	done := make(chan error, 1)
	go func() { done <- l.Snapshot() }()
	close(fs.gate)
	if err := <-done; err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	wg.Wait()
	l.Close()

	_, rec, err := Open(fs.FS, "d", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.SnapshotItems) != 2 || rec.Records != 0 || rec.LastSeq != 2 {
		t.Fatalf("recovery = %d snapshot items, %d WAL records, seq %d; want 2, 0, 2",
			len(rec.SnapshotItems), rec.Records, rec.LastSeq)
	}
}

// BenchmarkWALAppendGroupCommit appends from concurrent writers. Run on
// a real disk to see the fsync amortisation; syncs/op is reported either
// way.
func BenchmarkWALAppendGroupCommit(b *testing.B) {
	l, _, err := Open(OsFS{}, b.TempDir(), Options{SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	var i atomic.Int64
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := i.Add(1)
			e := []Entry{{Op: OpInsert, Key: "k", Value: triple.Triple{
				Subject: fmt.Sprintf("urn:s%d", n), Predicate: "urn:p", Object: "o",
			}}}
			if err := l.Append(e); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	if n := i.Load(); n > 0 {
		b.ReportMetric(float64(l.Syncs())/float64(n), "syncs/op")
	}
}
