package triple

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func batchTriples(n int, seed int64) []Triple {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Triple, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Triple{
			Subject:   fmt.Sprintf("acc:%04d", rng.Intn(n)),
			Predicate: fmt.Sprintf("S%d#attr", rng.Intn(5)),
			Object:    fmt.Sprintf("v%d", rng.Intn(20)),
		})
	}
	return out
}

// TestInsertBatchMatchesSerial: the one-lock batch insert must
// produce the same database and the same new-triple count as the
// per-triple loop, duplicates included.
func TestInsertBatchMatchesSerial(t *testing.T) {
	ts := batchTriples(500, 1)

	serial, batched := NewDB(), NewDB()
	serialNew := 0
	for _, tr := range ts {
		if serial.Insert(tr) {
			serialNew++
		}
	}
	if got := batched.InsertBatch(ts); got != serialNew {
		t.Errorf("InsertBatch reported %d new, serial %d", got, serialNew)
	}
	if !reflect.DeepEqual(batched.AllSorted(), serial.AllSorted()) {
		t.Error("batched and serial databases diverged")
	}
	if batched.Len() != serial.Len() {
		t.Errorf("Len: batched %d, serial %d", batched.Len(), serial.Len())
	}
	// Indexes must agree too: spot-check a predicate-constrained select.
	q := Pattern{S: Var("s"), P: Const("S1#attr"), O: Var("o")}
	if !reflect.DeepEqual(batched.SelectSorted(q), serial.SelectSorted(q)) {
		t.Error("index-driven selects diverged")
	}
}

// TestInsertBatchConcurrent: concurrent batch writers sharing a predicate
// and an object must neither race nor lose triples.
func TestInsertBatchConcurrent(t *testing.T) {
	db := NewDB()
	var wg sync.WaitGroup
	const writers = 8
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ts := make([]Triple, 0, 200)
			for i := 0; i < 200; i++ {
				ts = append(ts, Triple{
					Subject:   fmt.Sprintf("acc:%d-%d", w, i),
					Predicate: "S#attr",
					Object:    "v",
				})
			}
			if got := db.InsertBatch(ts); got != 200 {
				t.Errorf("writer %d inserted %d of 200", w, got)
			}
		}(w)
	}
	wg.Wait()
	if db.Len() != writers*200 {
		t.Errorf("Len = %d, want %d", db.Len(), writers*200)
	}
}

// BenchmarkInsertBatch compares the per-triple loop against the one-lock
// batch on a bulk-load shaped workload.
func BenchmarkInsertBatch(b *testing.B) {
	ts := batchTriples(20000, 4)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db := NewDB()
			for _, tr := range ts {
				db.Insert(tr)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NewDB().InsertBatch(ts)
		}
	})
}
