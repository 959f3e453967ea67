package triple

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// legacyDB reimplements the seed's store — one RWMutex, one triple map,
// fixed subject>object>predicate index preference, unconditional sort — as
// the baseline BenchmarkSelect compares the store against.
type legacyDB struct {
	mu          sync.RWMutex
	triples     map[Triple]struct{}
	bySubject   map[string]map[Triple]struct{}
	byPredicate map[string]map[Triple]struct{}
	byObject    map[string]map[Triple]struct{}
}

func newLegacyDB() *legacyDB {
	return &legacyDB{
		triples:     make(map[Triple]struct{}),
		bySubject:   make(map[string]map[Triple]struct{}),
		byPredicate: make(map[string]map[Triple]struct{}),
		byObject:    make(map[string]map[Triple]struct{}),
	}
}

func (db *legacyDB) insert(t Triple) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.triples[t]; ok {
		return
	}
	db.triples[t] = struct{}{}
	legacyAdd(db.bySubject, t.Subject, t)
	legacyAdd(db.byPredicate, t.Predicate, t)
	legacyAdd(db.byObject, t.Object, t)
}

// legacyAdd is the seed's addIndex: one inner map per index key.
func legacyAdd(idx map[string]map[Triple]struct{}, key string, t Triple) {
	m, ok := idx[key]
	if !ok {
		m = make(map[Triple]struct{})
		idx[key] = m
	}
	m[t] = struct{}{}
}

func (db *legacyDB) selectPattern(q Pattern) []Triple {
	db.mu.RLock()
	var candidates map[Triple]struct{}
	switch {
	case q.S.Kind == Constant:
		candidates = db.bySubject[q.S.Value]
	case q.O.Kind == Constant:
		candidates = db.byObject[q.O.Value]
	case q.P.Kind == Constant:
		candidates = db.byPredicate[q.P.Value]
	default:
		candidates = db.triples
	}
	out := make([]Triple, 0, len(candidates))
	for t := range candidates {
		if q.Matches(t) {
			out = append(out, t)
		}
	}
	db.mu.RUnlock()
	SortTriples(out)
	return out
}

// benchTriples is a 20k-triple skewed workload: one hot subject carrying
// half the store, the rest spread over distinct subjects; a few objects are
// rare.
func benchTriples() []Triple {
	out := make([]Triple, 0, 20000)
	for i := 0; i < 10000; i++ {
		out = append(out, Triple{"hot-subject", fmt.Sprintf("p%d", i%50), fmt.Sprintf("bulk-%d", i)})
	}
	for i := 0; i < 10000; i++ {
		obj := fmt.Sprintf("o%d", i%100)
		if i%1000 == 0 {
			obj = "rare-object"
		}
		out = append(out, Triple{fmt.Sprintf("s%d", i), fmt.Sprintf("p%d", i%50), obj})
	}
	return out
}

// BenchmarkSelect compares the selectivity-aware store against the seed's
// baseline on a 20k-triple skewed workload. Both take one read lock per
// select; they differ in the posting they scan and in what a posting is.
//
// skewed: the pattern constrains both the hot subject (10k candidates) and
// a rare object (~10 candidates). The legacy store scans the 10k-entry
// subject index and sorts; the store picks the object index.
//
// parallel: the same select from many goroutines, which share the read
// lock.
func BenchmarkSelect(b *testing.B) {
	data := benchTriples()
	skewed := Pattern{S: Const("hot-subject"), P: Var("p"), O: Const("rare-object")}
	byPred := Pattern{S: Var("x"), P: Const("p7"), O: Var("o")}

	b.Run("skewed/legacy", func(b *testing.B) {
		db := newLegacyDB()
		for _, t := range data {
			db.insert(t)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			db.selectPattern(skewed)
		}
	})
	b.Run("skewed/db", func(b *testing.B) {
		db := NewDB()
		for _, t := range data {
			db.Insert(t)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			db.Select(skewed)
		}
	})
	b.Run("parallel/legacy", func(b *testing.B) {
		db := newLegacyDB()
		for _, t := range data {
			db.insert(t)
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				db.selectPattern(skewed)
			}
		})
	})
	b.Run("parallel/db", func(b *testing.B) {
		db := NewDB()
		for _, t := range data {
			db.Insert(t)
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				db.Select(skewed)
			}
		})
	})
	b.Run("bypredicate/db", func(b *testing.B) {
		db := NewDB()
		for _, t := range data {
			db.Insert(t)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			db.Select(byPred)
		}
	})
	// The same selection in canonical order: what a peer answering a
	// pattern query pays, SortTriples included.
	b.Run("bypredicate/sorted", func(b *testing.B) {
		db := NewDB()
		for _, t := range data {
			db.Insert(t)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			db.SelectSorted(byPred)
		}
	})
}

// BenchmarkInsert compares write throughput under concurrent load, where
// both stores serialize inserts on one write lock.
func BenchmarkInsert(b *testing.B) {
	b.Run("parallel/legacy", func(b *testing.B) {
		db := newLegacyDB()
		var n atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := n.Add(1)
				db.insert(Triple{fmt.Sprintf("s%d", i), fmt.Sprintf("p%d", i%50), fmt.Sprintf("o%d", i%100)})
			}
		})
	})
	b.Run("parallel/db", func(b *testing.B) {
		db := NewDB()
		var n atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := n.Add(1)
				db.Insert(Triple{fmt.Sprintf("s%d", i), fmt.Sprintf("p%d", i%50), fmt.Sprintf("o%d", i%100)})
			}
		})
	})
	// unique-objects: every object value is filed under its own index key
	// (the shape of a corpus of identifiers and sequences), so the cost of
	// a one-triple posting decides what a stored triple retains.
	b.Run("unique-objects", func(b *testing.B) {
		const load = 50000
		data := make([]Triple, load)
		for i := range data {
			data[i] = Triple{fmt.Sprintf("s%d", i/4), fmt.Sprintf("p%d", i%50), fmt.Sprintf("value-%d", i)}
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		db := NewDB()
		db.InsertBatch(data)
		runtime.GC()
		runtime.ReadMemStats(&after)
		retained := float64(after.HeapAlloc-before.HeapAlloc) / load
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			db.Insert(Triple{fmt.Sprintf("t%d", i/4), fmt.Sprintf("p%d", i%50), fmt.Sprintf("more-%d", i)})
		}
		b.ReportMetric(retained, "retained-B/triple")
		runtime.KeepAlive(data)
	})
}

// BenchmarkDeleteUnderHotPredicate prices the one linear step of the store:
// taking a row out of a 10k-row predicate posting out of (subject, object)
// order, a slice searched for the row's pointer. Each iteration deletes one
// triple and inserts it back, so the posting stays at 10k rows while the
// victims walk it.
func BenchmarkDeleteUnderHotPredicate(b *testing.B) {
	const rows = 10000
	data := make([]Triple, rows)
	for i := range data {
		data[i] = Triple{fmt.Sprintf("s%d", i), "hot", fmt.Sprintf("o%d", i)}
	}
	db := NewDB()
	db.InsertBatch(data)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := data[i*7919%rows]
		db.Delete(t)
		db.Insert(t)
	}
}

// BenchmarkInsertUnderHotPredicate prices the predicate posting's lazy PSO
// order: a triple filed under a predicate that already holds 1k or 10k rows
// in (subject, object) order is appended and then deleted. in-order appends
// sort after every held row, so the posting stays in order and the delete
// binary-searches its row; out-of-order appends sort before the last row,
// so the posting is marked out of order and the delete looks for its row
// from the front and swaps it out.
func BenchmarkInsertUnderHotPredicate(b *testing.B) {
	for _, held := range []int{1000, 10000} {
		for _, order := range []string{"in-order", "out-of-order"} {
			b.Run(fmt.Sprintf("held=%d/%s", held, order), func(b *testing.B) {
				data := make([]Triple, held)
				for i := range data {
					data[i] = Triple{fmt.Sprintf("s%06d", i), "hot", fmt.Sprint("o", i%64)}
				}
				first := "z" // after every held subject
				if order == "out-of-order" {
					first = "n" // before them
				}
				rng := rand.New(rand.NewSource(1))
				victims := make([]Triple, 1024)
				for i := range victims {
					victims[i] = Triple{fmt.Sprintf("%s%06d", first, rng.Intn(held)), "hot", "v"}
				}
				db := NewDB()
				db.InsertBatch(data)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t := victims[i%len(victims)]
					db.Insert(t)
					db.Delete(t)
				}
			})
		}
	}
}

// BenchmarkInsertUnderHotObject prices the object posting's OPS order: a
// triple filed under an object that already holds 1k or 10k rows, in random
// (predicate, subject) order, binary-searches its slot and moves the tail
// to insert, then binary-searches its row and moves the tail back to
// delete. Each iteration is one such insert and delete, so the posting
// stays at its size — the mirror of BenchmarkDeleteUnderHotPredicate.
func BenchmarkInsertUnderHotObject(b *testing.B) {
	for _, held := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("held=%d", held), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			data := make([]Triple, held)
			for i, j := range rng.Perm(held) {
				data[i] = Triple{fmt.Sprintf("s%d", j), fmt.Sprintf("p%d", rng.Intn(64)), "hot"}
			}
			victims := make([]Triple, 1024)
			for i := range victims {
				victims[i] = Triple{fmt.Sprintf("n%d", rng.Intn(held)), fmt.Sprintf("p%d", rng.Intn(64)), "hot"}
			}
			db := NewDB()
			db.InsertBatch(data)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := victims[i%len(victims)]
				db.Insert(t)
				db.Delete(t)
			}
		})
	}
}

// BenchmarkInsertUnderHotSubject prices the subject posting's SPO order the
// same way: a triple of a subject that already carries 1k or 10k rows, in
// random (predicate, object) order, binary-searches its slot and moves the
// tail to insert, then binary-searches its row and moves the tail back to
// delete.
func BenchmarkInsertUnderHotSubject(b *testing.B) {
	for _, held := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("held=%d", held), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			data := make([]Triple, held)
			for i, j := range rng.Perm(held) {
				data[i] = Triple{"hot", fmt.Sprintf("p%d", rng.Intn(64)), fmt.Sprintf("o%d", j)}
			}
			victims := make([]Triple, 1024)
			for i := range victims {
				victims[i] = Triple{"hot", fmt.Sprintf("p%d", rng.Intn(64)), fmt.Sprintf("n%d", rng.Intn(held))}
			}
			db := NewDB()
			db.InsertBatch(data)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := victims[i%len(victims)]
				db.Insert(t)
				db.Delete(t)
			}
		})
	}
}
