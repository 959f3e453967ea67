package triple

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// skewedDB builds a store where the "hot" subject and predicate have huge
// candidate sets while a handful of objects are rare: the worst case for a
// fixed subject>object>predicate index preference.
func skewedDB(hot, rare int) *DB {
	db := NewDB()
	for i := 0; i < hot; i++ {
		db.Insert(Triple{"hot-subject", "Common#attr", fmt.Sprintf("bulk-%d", i)})
	}
	for i := 0; i < rare; i++ {
		db.Insert(Triple{"hot-subject", "Common#attr", "rare-object"})
		// Distinct subjects: the rare object's posting is not the hot subject's.
		db.Insert(Triple{fmt.Sprintf("s%d", i), "Rare#attr", "rare-object"})
	}
	return db
}

// Regression for the "most selective available equality index" contract:
// with both a constant subject (10k candidates) and a constant object (a
// handful), the scan must drive off the object index — the seed
// implementation always preferred the subject index regardless of
// cardinality.
func TestSelectPicksSmallestIndex(t *testing.T) {
	db := skewedDB(10000, 3)

	q := Pattern{S: Const("hot-subject"), P: Var("p"), O: Const("rare-object")}
	rows, examined, ordered := db.matching(nil, q)
	if examined > 6 || !ordered {
		t.Fatalf("examined %d rows (in SPO order: %v), want the object posting's ≤6, in order with S constant", examined, ordered)
	}
	if len(rows) != 1 || rows[0].Subject != "hot-subject" {
		t.Fatalf("matching = %v", rows)
	}

	// Constant predicate vs much rarer constant object: object must win too.
	q = Pattern{S: Var("x"), P: Const("Common#attr"), O: Const("rare-object")}
	if rows, examined, ordered := db.matching(nil, q); examined > 6 || len(rows) != 1 || !ordered {
		t.Fatalf("examined %d rows for %d matches (in order: %v), want the object posting's P-range of ≤6, in order", examined, len(rows), ordered)
	}

	// And the other way around: rare subject beats a common object.
	db.Insert(Triple{"lone-subject", "Common#attr", "bulk-1"})
	q = Pattern{S: Const("lone-subject"), P: Var("p"), O: Const("bulk-1")}
	if rows, examined, ordered := db.matching(nil, q); examined != 1 || len(rows) != 1 || !ordered {
		t.Fatalf("examined %d rows for %d matches (in order: %v), want the subject posting's 1", examined, len(rows), ordered)
	}
}

// With S and P constant and a predicate posting shorter than the subject
// posting, the scan reads the predicate posting, which was filed out of
// (subject, object) order: SelectSorted must put it in order, and agree
// with the model.
func TestSelectSortedSortsPredicateScan(t *testing.T) {
	db, model := NewDB(), modelDB{}
	insert := func(tr Triple) {
		db.Insert(tr)
		model[tr] = struct{}{}
	}
	for i := 0; i < 40; i++ {
		insert(Triple{"hot", fmt.Sprintf("q%d", i), "x"})
	}
	for i := 4; i > 0; i-- {
		insert(Triple{"hot", "p", fmt.Sprint("o", i)})
		insert(Triple{fmt.Sprint("s", i), "p", "o"})
	}
	q := Pattern{S: Const("hot"), P: Const("p"), O: Var("o")}
	rows, examined, ordered := db.matching(nil, q)
	if examined != 8 || len(rows) != 4 || ordered {
		t.Fatalf("examined %d rows for %d matches (in order: %v), want the predicate posting's 8, unordered", examined, len(rows), ordered)
	}
	if got, want := db.SelectSorted(q), model.select_(q); !equalTriples(got, want) {
		t.Fatalf("SelectSorted(%v) = %v, model %v", q, got, want)
	}
	if _, _, ordered := db.matching(nil, q); !ordered {
		t.Fatal("the predicate posting SelectSorted read is still out of order")
	}
}

func TestSelectPlanFullScan(t *testing.T) {
	db := sampleDB()
	rows, examined, ordered := db.matching(nil, Pattern{S: Var("x"), P: Var("p"), O: LikeTerm("%a%")})
	if examined != db.Len() || ordered {
		t.Fatalf("full scan examined %d rows, want %d, and reported them in order: %v", examined, db.Len(), ordered)
	}
	if len(rows) == 0 || len(rows) > examined {
		t.Fatalf("full scan matched %d of %d rows", len(rows), examined)
	}
}

// modelDB is the seed's single-map reference semantics: one set of triples,
// selection by brute-force filter.
type modelDB map[Triple]struct{}

func (m modelDB) select_(q Pattern) []Triple {
	var out []Triple
	for t := range m {
		if q.Matches(t) {
			out = append(out, t)
		}
	}
	SortTriples(out)
	return out
}

// stats is the model's digest, built the obvious way: per predicate, the
// triples, the distinct subjects and objects, and a sketch of each.
func (m modelDB) stats() Stats {
	type sets struct {
		subjects, objects map[string]bool
		ps                PredicateStats
	}
	per := map[string]*sets{}
	for t := range m {
		s := per[t.Predicate]
		if s == nil {
			s = &sets{map[string]bool{}, map[string]bool{}, PredicateStats{Predicate: t.Predicate, SubjectSketch: &HLL{}, ObjectSketch: &HLL{}}}
			per[t.Predicate] = s
		}
		s.ps.Triples++
		s.subjects[t.Subject], s.objects[t.Object] = true, true
		s.ps.SubjectSketch.Add(t.Subject)
		s.ps.ObjectSketch.Add(t.Object)
	}
	out := Stats{Triples: len(m), Predicates: []PredicateStats{}}
	for _, s := range per {
		s.ps.DistinctSubjects, s.ps.DistinctObjects = len(s.subjects), len(s.objects)
		out.Predicates = append(out.Predicates, s.ps)
	}
	sort.Slice(out.Predicates, func(i, j int) bool { return out.Predicates[i].Predicate < out.Predicates[j].Predicate })
	return out
}

// Property: the store's Select, All and Stats agree with the single-map
// model under a random stream of inserts and deletes, for every pattern
// shape — over a wide alphabet whose postings stay short, and over a narrow
// one whose predicate and object postings run to hundreds of rows while
// deletes of stored triples keep swapping rows out of them.
func TestDBMatchesModelProperty(t *testing.T) {
	for _, shape := range []struct {
		name                          string
		subjects, predicates, objects int
	}{
		{"short-postings", 40, 8, 15},
		{"long-postings", 600, 3, 12},
	} {
		t.Run(shape.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			db := NewDB()
			model := modelDB{}
			randTriple := func() Triple {
				return Triple{
					Subject:   fmt.Sprintf("s%d", rng.Intn(shape.subjects)),
					Predicate: fmt.Sprintf("p%d", rng.Intn(shape.predicates)),
					Object:    fmt.Sprintf("o%d", rng.Intn(shape.objects)),
				}
			}
			term := func(prefix string, n int) Term {
				switch rng.Intn(3) {
				case 0:
					return Const(fmt.Sprintf("%s%d", prefix, rng.Intn(n)))
				case 1:
					return Var("v" + prefix)
				default:
					return LikeTerm("%" + fmt.Sprint(rng.Intn(n)) + "%")
				}
			}
			everything := Pattern{S: Var("s"), P: Var("p"), O: Var("o")}

			longest := 0
			for step := 0; step < 3000; step++ {
				tr := randTriple()
				_, present := model[tr]
				switch r := rng.Intn(6); {
				case r == 0 && len(model) > 0:
					for tr = range model { // a stored triple
						break
					}
					present = true
					fallthrough
				case r < 2:
					if db.Delete(tr) != present {
						t.Fatalf("step %d: Delete(%v) disagrees with model", step, tr)
					}
					delete(model, tr)
				default:
					if db.Insert(tr) != !present {
						t.Fatalf("step %d: Insert(%v) disagrees with model", step, tr)
					}
					model[tr] = struct{}{}
				}

				if db.Len() != len(model) {
					t.Fatalf("step %d: Len = %d, model = %d", step, db.Len(), len(model))
				}
				if step%20 != 0 {
					continue
				}
				for _, q := range []Pattern{
					{S: term("s", shape.subjects), P: term("p", shape.predicates), O: term("o", shape.objects)},
					{S: Var("x"), P: Const(tr.Predicate), O: Const(tr.Object)},
					everything,
				} {
					if got, want := db.SelectSorted(q), model.select_(q); !equalTriples(got, want) {
						t.Fatalf("step %d: Select(%v) = %d triples, model = %d", step, q, len(got), len(want))
					}
				}
				if got, want := db.AllSorted(), model.select_(everything); !equalTriples(got, want) {
					t.Fatalf("step %d: All = %d triples, model = %d", step, len(got), len(want))
				}
				if got, want := db.Stats(), model.stats(); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: Stats = %+v\nmodel's digest %+v", step, got, want)
				}
				db.mu.RLock()
				for _, predicates := range db.byPredicate {
					longest = max(longest, len(predicates.rows))
				}
				db.mu.RUnlock()
			}
			if shape.name == "long-postings" && longest < 32*postingFit {
				t.Fatalf("the longest predicate posting held %d rows; the stream never grew one far past the promotion size", longest)
			}
		})
	}
}

// Race test: hammer insert/delete/select/all/distinct from many goroutines.
// Run under -race this proves the database lock is sound; the final state
// is checked against a per-goroutine-disjoint expectation.
func TestConcurrentInsertDeleteSelect(t *testing.T) {
	db := NewDB()
	const (
		workers = 8
		perW    = 400
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perW; i++ {
				// Disjoint subjects per worker: final contents predictable.
				tr := Triple{
					Subject:   fmt.Sprintf("w%d-s%d", w, i),
					Predicate: fmt.Sprintf("p%d", i%7),
					Object:    fmt.Sprintf("o%d", i%13),
				}
				db.Insert(tr)
				switch rng.Intn(4) {
				case 0:
					db.Select(Pattern{S: Const(tr.Subject), P: Var("p"), O: Var("o")})
				case 1:
					db.Select(Pattern{S: Var("s"), P: Const(tr.Predicate), O: Var("o")})
				case 2:
					db.All()
				case 3:
					db.DistinctValues(tr.Predicate, Object)
				}
				if i%3 == 0 {
					db.Delete(tr)
				}
			}
		}(w)
	}
	wg.Wait()

	want := 0
	for i := 0; i < perW; i++ {
		if i%3 != 0 {
			want++
		}
	}
	want *= workers
	if db.Len() != want {
		t.Fatalf("Len = %d, want %d", db.Len(), want)
	}
	if got := len(db.All()); got != want {
		t.Fatalf("All = %d, want %d", got, want)
	}
}
