package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gridvine/internal/triple"
)

// crashBatch is one workload step: a batch insert or batch delete.
type crashBatch struct {
	del bool
	ts  []triple.Triple
}

// crashWorkload builds a deterministic mixed batch sequence: mostly
// inserts, with deletes of previously inserted triples sprinkled in so
// recovery has to respect op order, sized to cross several snapshot
// thresholds.
func crashWorkload(seed int64, batches int) []crashBatch {
	rng := rand.New(rand.NewSource(seed))
	var out []crashBatch
	var live []triple.Triple
	for b := 0; b < batches; b++ {
		if b >= 3 && rng.Intn(4) == 0 && len(live) >= 2 {
			k := 1 + rng.Intn(2)
			var del []triple.Triple
			for i := 0; i < k; i++ {
				j := rng.Intn(len(live))
				del = append(del, live[j])
				live = append(live[:j], live[j+1:]...)
			}
			out = append(out, crashBatch{del: true, ts: del})
			continue
		}
		n := 2 + rng.Intn(4)
		ts := make([]triple.Triple, n)
		for i := range ts {
			ts[i] = triple.Triple{
				Subject:   fmt.Sprintf("urn:s%d", rng.Intn(40)),
				Predicate: fmt.Sprintf("urn:p%d", rng.Intn(6)),
				Object:    fmt.Sprintf("o%d-%d", b, i),
			}
		}
		live = append(live, ts...)
		out = append(out, crashBatch{ts: ts})
	}
	return out
}

// model is the test-local store the crash matrix journals: a triple.DB
// written WAL-ahead (Append, then apply, then MaybeSnapshot) that doubles
// as the Log's snapshot source, rebuilt on open by replaying the recovery
// into a fresh DB.
type model struct {
	db  *triple.DB
	log *Log
}

func openModel(fsys FS, dir string, opts Options) (*model, *Recovery, error) {
	l, rec, err := Open(fsys, dir, opts)
	if err != nil {
		return nil, nil, err
	}
	m := &model{db: triple.NewDB(), log: l}
	m.apply(rec.SnapshotItems)
	m.apply(rec.WAL)
	l.SetSnapshotSource(func() (items, tombs []Entry) {
		for _, t := range m.db.AllSorted() {
			items = append(items, Entry{Op: OpInsert, Value: t})
		}
		return items, nil
	})
	return m, rec, nil
}

func (m *model) apply(entries []Entry) {
	for _, e := range entries {
		if t := e.Value.(triple.Triple); e.Op == OpDelete {
			m.db.Delete(t)
		} else {
			m.db.Insert(t)
		}
	}
}

// write journals one batch as one record and applies it once acked; it
// reports false on a durability failure (sticky in the log).
func (m *model) write(b crashBatch) bool {
	op := OpInsert
	if b.del {
		op = OpDelete
	}
	entries := make([]Entry, len(b.ts))
	for i, t := range b.ts {
		entries[i] = Entry{Op: op, Value: t}
	}
	if m.log.Append(entries) != nil {
		return false
	}
	m.apply(entries)
	return m.log.MaybeSnapshot() == nil
}

// referenceStates returns state[i] = the sorted content of an in-memory
// store that applied exactly the first i batches.
func referenceStates(batches []crashBatch) [][]triple.Triple {
	ref := triple.NewDB()
	out := [][]triple.Triple{ref.AllSorted()}
	for _, b := range batches {
		for _, t := range b.ts {
			if b.del {
				ref.Delete(t)
			} else {
				ref.Insert(t)
			}
		}
		out = append(out, ref.AllSorted())
	}
	return out
}

var crashOpts = Options{SnapshotEvery: 3}

// feedUntilFailure runs the workload against a model on fsys until the
// first durability failure (or completion) and returns the number of
// batches durably acked — appends whose write+fsync returned nil.
func feedUntilFailure(fsys FS, batches []crashBatch) (acked uint64) {
	m, _, err := openModel(fsys, "peer", crashOpts)
	if err != nil {
		return 0
	}
	for _, b := range batches {
		if !m.write(b) {
			break
		}
	}
	return m.log.Seq()
}

// TestCrashMatrix kills the store at EVERY write/fsync/rename boundary
// of the workload, in both crash modes, then runs recovery on the
// post-crash disk image and asserts the core durability invariants:
//
//  1. recovery always succeeds (a crash can never wedge the store);
//  2. the recovered content is identical to a reference store that
//     applied exactly the prefix of batches recovery reports (no
//     partial batch is ever visible);
//  3. that prefix covers at least every acked batch (fsync'd data is
//     never lost) and at most what was fed;
//  4. recovery is idempotent — reopening again yields the same state.
//
// Torn mode additionally proves checksum-corrupt tails are truncated,
// never absorbed: the matrix must hit at least one truncation.
func TestCrashMatrix(t *testing.T) {
	const nBatches = 14
	batches := crashWorkload(42, nBatches)
	refs := referenceStates(batches)

	// Clean run: counts the op universe and sanity-checks the workload.
	clean := NewFaultFS(1)
	if acked := feedUntilFailure(clean, batches); acked != uint64(len(batches)) {
		t.Fatalf("clean run acked %d of %d batches", acked, len(batches))
	}
	totalOps := clean.Ops()
	if totalOps < 2*nBatches {
		t.Fatalf("implausibly few ops in clean run: %d", totalOps)
	}

	for _, torn := range []bool{false, true} {
		truncations := 0
		for op := 1; op <= totalOps; op++ {
			name := fmt.Sprintf("torn=%v/op=%d", torn, op)
			fs := NewFaultFS(int64(1000*op) + 7)
			fs.CrashAt(op, torn)
			acked := feedUntilFailure(fs, batches)
			if !fs.Crashed() {
				t.Fatalf("%s: crash never fired", name)
			}

			view := fs.CrashedView()
			d, rec, err := openModel(view, "peer", crashOpts)
			if err != nil {
				t.Fatalf("%s: recovery failed: %v", name, err)
			}
			if rec.TruncatedBytes > 0 {
				truncations++
			}
			if rec.LastSeq < acked {
				t.Fatalf("%s: recovered seq %d < acked %d — fsync'd batch lost", name, rec.LastSeq, acked)
			}
			if rec.LastSeq > uint64(len(batches)) {
				t.Fatalf("%s: recovered seq %d > fed %d", name, rec.LastSeq, len(batches))
			}
			if got, want := d.db.AllSorted(), refs[rec.LastSeq]; !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: recovered content %v != reference prefix %v (seq %d)",
					name, got, want, rec.LastSeq)
			}
			if err := d.log.Close(); err != nil {
				t.Fatalf("%s: close: %v", name, err)
			}

			// Recovery must be idempotent: a second open (e.g. a crash
			// during the first recovery's restart) sees the same state.
			d2, rec2, err := openModel(view, "peer", crashOpts)
			if err != nil {
				t.Fatalf("%s: re-recovery failed: %v", name, err)
			}
			if rec2.LastSeq != rec.LastSeq || !reflect.DeepEqual(d2.db.AllSorted(), refs[rec.LastSeq]) {
				t.Fatalf("%s: re-recovery diverged (seq %d vs %d)", name, rec2.LastSeq, rec.LastSeq)
			}
			if rec2.TruncatedBytes != 0 {
				t.Fatalf("%s: first recovery left a corrupt tail behind (%d bytes)", name, rec2.TruncatedBytes)
			}
			d2.log.Close()
		}
		if torn && truncations == 0 {
			t.Fatalf("torn matrix never exercised tail truncation (%d crash points)", totalOps)
		}
	}
}

// TestCrashMatrixWriteResume verifies the store is writable after
// recovery: crash mid-workload, recover, feed the remaining batches,
// and land on the full reference state.
func TestCrashMatrixWriteResume(t *testing.T) {
	batches := crashWorkload(42, 14)
	refs := referenceStates(batches)
	clean := NewFaultFS(1)
	feedUntilFailure(clean, batches)
	totalOps := clean.Ops()

	// A sparse sample of crash points keeps this additive check cheap.
	for op := 1; op <= totalOps; op += 5 {
		fs := NewFaultFS(int64(op))
		fs.CrashAt(op, true)
		feedUntilFailure(fs, batches)
		view := fs.CrashedView()
		d, rec, err := openModel(view, "peer", crashOpts)
		if err != nil {
			t.Fatalf("op %d: recovery: %v", op, err)
		}
		for _, b := range batches[rec.LastSeq:] {
			d.write(b)
		}
		if err := d.log.Err(); err != nil {
			t.Fatalf("op %d: resumed writes failed: %v", op, err)
		}
		if got, want := d.db.AllSorted(), refs[len(batches)]; !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d: resumed store %v != full reference %v", op, got, want)
		}
		d.log.Close()
	}
}
