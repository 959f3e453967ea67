package triple

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// refIndex is the reference the postings are checked against: the
// representation they replaced, one set of triples per index key.
type refIndex map[string]map[Triple]struct{}

func (r refIndex) add(key string, t Triple) {
	if r[key] == nil {
		r[key] = map[Triple]struct{}{}
	}
	r[key][t] = struct{}{}
}

func (r refIndex) drop(key string, t Triple) {
	if delete(r[key], t); len(r[key]) == 0 {
		delete(r, key)
	}
}

func (r refIndex) sorted(key string) []Triple {
	out := make([]Triple, 0, len(r[key]))
	for t := range r[key] {
		out = append(out, t)
	}
	SortTriples(out)
	return out
}

// checkPostings asserts every posting's representation invariant: a
// non-empty slice of distinct rows, each filed under the key it belongs to,
// each in a predicate or object posting the very row the subject posting
// holds for that triple.
func checkPostings(t *testing.T, db *DB) {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	byPredicate := map[string][]*Triple{}
	for key, predicates := range db.byPredicate {
		byPredicate[key] = predicates.rows
	}
	for pos, idx := range [3]map[string][]*Triple{db.bySubject, byPredicate, db.byObject} {
		pos := Position(pos)
		for key, rows := range idx {
			if len(rows) == 0 {
				t.Fatalf("empty %s posting left under %q", pos, key)
			}
			seen := map[*Triple]bool{}
			for _, row := range rows {
				if row.Component(pos) != key {
					t.Fatalf("%s posting %q holds %v", pos, key, *row)
				}
				if owner := findRow(db, *row); owner != row {
					t.Fatalf("%s posting %q holds a row of %v that is not the subject posting's (%p, %p)", pos, key, *row, row, owner)
				}
				if seen[row] {
					t.Fatalf("%s posting %q holds %v twice", pos, key, *row)
				}
				seen[row] = true
			}
		}
	}
}

// findRow returns the subject posting's row holding tr, nil when tr is not
// stored. The caller holds the read lock.
func findRow(db *DB, tr Triple) *Triple {
	rows := db.bySubject[tr.Subject]
	if i, found := spoSlot(rows, tr); found {
		return rows[i]
	}
	return nil
}

// TestPostingsMatchModelAcrossPromotion drives the store through waves of
// growth and shrinkage over a key alphabet sized so that subject, predicate
// and object postings grow to dozens of rows and drain again, and checks
// that every posting stays in its order after every step and every read
// that goes through a posting — Select on each position, matching's
// examined-row counts, Has, Stats, DistinctValues — against the map-of-sets
// reference, while concurrent readers run under -race.
func TestPostingsMatchModelAcrossPromotion(t *testing.T) {
	const predicates, objects = 3, 20
	subjects := []string{"a", "b", "c", "d"}
	for i := 0; len(subjects) < 12; i++ {
		subjects = append(subjects, fmt.Sprintf("s%d", i))
	}
	rng := rand.New(rand.NewSource(18))
	randTriple := func() Triple {
		return Triple{
			Subject:   subjects[rng.Intn(len(subjects))],
			Predicate: fmt.Sprintf("p%d", rng.Intn(predicates)),
			Object:    fmt.Sprintf("o%d", rng.Intn(objects)),
		}
	}
	everything := Pattern{S: Var("s"), P: Var("p"), O: Var("o")}
	db := NewDB()
	all := map[Triple]struct{}{}
	refs := map[Position]refIndex{Subject: {}, Predicate: {}, Object: {}}

	// Readers check what they can without the model: every answer is
	// duplicate-free and matches what was asked.
	var stop atomic.Bool
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for !stop.Load() {
				pred := fmt.Sprintf("p%d", rng.Intn(predicates))
				q := Pattern{S: Var("s"), P: Const(pred), O: Const(fmt.Sprintf("o%d", rng.Intn(objects)))}
				seen := map[Triple]bool{}
				for _, tr := range db.Select(q) {
					if !q.Matches(tr) || seen[tr] {
						t.Errorf("concurrent Select(%v) returned %v (duplicate: %v)", q, tr, seen[tr])
					}
					seen[tr] = true
				}
				if vs := db.DistinctValues(pred, Object); !sort.StringsAreSorted(vs) {
					t.Errorf("concurrent DistinctValues(%s) not sorted: %v", pred, vs)
				}
				db.Stats()
				db.Has(Triple{Subject: "a", Predicate: pred, Object: "o0"})
			}
		}(r)
	}
	defer func() {
		stop.Store(true)
		readers.Wait()
	}()

	longest := map[Position]int{}
	// deletes counts the deletes from a predicate posting of two or more
	// rows, by whether the posting was in order: both paths must run.
	deletes := map[bool]int{}
	for step := 0; step < 6000; step++ {
		// Waves: 600 steps mostly inserting, 600 mostly deleting — a stored
		// triple as a rule, so the store drains and postings shrink.
		tr, insert := randTriple(), rng.Intn(5) != 0
		if step/600%2 == 1 {
			if insert = !insert; !insert && len(all) > 0 && rng.Intn(8) != 0 {
				live := (modelDB(all)).select_(everything)
				tr = live[rng.Intn(len(live))]
			}
		}
		_, present := all[tr]
		if insert {
			if db.Insert(tr) == present {
				t.Fatalf("step %d: Insert(%v) = %v with the triple present: %v", step, tr, !present, present)
			}
			all[tr] = struct{}{}
			refs[Subject].add(tr.Subject, tr)
			refs[Predicate].add(tr.Predicate, tr)
			refs[Object].add(tr.Object, tr)
		} else {
			db.mu.RLock()
			if predicates := db.byPredicate[tr.Predicate]; present && len(predicates.rows) > 1 {
				deletes[!predicates.unsorted]++
			}
			db.mu.RUnlock()
			if db.Delete(tr) != present {
				t.Fatalf("step %d: Delete(%v) = %v with the triple present: %v", step, tr, !present, present)
			}
			delete(all, tr)
			refs[Subject].drop(tr.Subject, tr)
			refs[Predicate].drop(tr.Predicate, tr)
			refs[Object].drop(tr.Object, tr)
		}
		if db.Has(tr) != insert || db.Len() != len(all) {
			t.Fatalf("step %d: Has(%v) = %v, Len = %d, model holds %d", step, tr, db.Has(tr), db.Len(), len(all))
		}
		checkSubjectOrder(t, db, step)
		checkObjectOrder(t, db, step)
		checkPredicateOrder(t, db, step)
		if step%25 != 0 {
			continue
		}

		checkPostings(t, db)
		for pos, ref := range refs {
			for _, set := range ref {
				longest[pos] = max(longest[pos], len(set))
			}
		}
		for pos, q := range map[Position]Pattern{
			Subject:   {S: Const(tr.Subject), P: Var("p"), O: Var("o")},
			Predicate: {S: Var("s"), P: Const(tr.Predicate), O: Var("o")},
			Object:    {S: Var("s"), P: Var("p"), O: Const(tr.Object)},
		} {
			want := refs[pos].sorted(tr.Component(pos))
			if got := db.SelectSorted(q); !equalTriples(got, want) {
				t.Fatalf("step %d: Select(%v) = %v, model %v", step, q, got, want)
			}
		}
		// That (?, P, ?) select left P's posting in order: the model's rows,
		// as they stand.
		db.mu.RLock()
		predicates := db.byPredicate[tr.Predicate]
		posting := make([]Triple, 0, len(predicates.rows))
		for _, row := range predicates.rows {
			posting = append(posting, *row)
		}
		db.mu.RUnlock()
		if want := refs[Predicate].sorted(tr.Predicate); predicates.unsorted || !equalTriples(posting, want) {
			t.Fatalf("step %d: after SelectSorted, predicate posting %q is marked out of order (%v) or holds %v, model %v", step, tr.Predicate, predicates.unsorted, posting, want)
		}
		// (S, P, ?): the scan reads the subject posting's P-range, exactly
		// the model's (S, P) rows, when the subject posting is no longer than
		// the predicate posting, and the predicate posting otherwise.
		// (?, P, O) and (LIKE, P, O): it reads the object posting's P-range,
		// exactly the model's (P, O) rows.
		pairRows := map[Position]int{}
		for _, pos := range []Position{Subject, Object} {
			for held := range refs[pos][tr.Component(pos)] {
				if held.Predicate == tr.Predicate {
					pairRows[pos]++
				}
			}
		}
		for _, q := range []Pattern{
			{S: Const(tr.Subject), P: Const(tr.Predicate), O: Var("o")},
			{S: Var("s"), P: Const(tr.Predicate), O: Const(tr.Object)},
			{S: LikeTerm("s%"), P: Const(tr.Predicate), O: Const(tr.Object)},
		} {
			wantN := pairRows[Object]
			if q.S.Kind == Constant {
				if wantN = pairRows[Subject]; len(refs[Subject][tr.Subject]) > len(refs[Predicate][tr.Predicate]) {
					wantN = len(refs[Predicate][tr.Predicate])
				}
			}
			if _, examined, _ := db.matching(nil, q); examined != wantN {
				t.Fatalf("step %d: matching(%v) examined %d rows, want %d", step, q, examined, wantN)
			}
			var want []Triple
			for held := range refs[Predicate][tr.Predicate] {
				if q.Matches(held) {
					want = append(want, held)
				}
			}
			SortTriples(want)
			if got := db.SelectSorted(q); !equalTriples(got, want) {
				t.Fatalf("step %d: Select(%v) = %v, model %v", step, q, got, want)
			}
		}
		if got, want := db.AllSorted(), (modelDB(all)).select_(everything); !equalTriples(got, want) {
			t.Fatalf("step %d: All = %d triples, model %d", step, len(got), len(want))
		}

		st := db.Stats()
		if st.Triples != len(all) || len(st.Predicates) != len(refs[Predicate]) {
			t.Fatalf("step %d: Stats = %d triples over %d predicates, model %d over %d", step, st.Triples, len(st.Predicates), len(all), len(refs[Predicate]))
		}
		for _, ps := range st.Predicates {
			subj, obj := map[string]bool{}, map[string]bool{}
			for tr := range refs[Predicate][ps.Predicate] {
				subj[tr.Subject], obj[tr.Object] = true, true
			}
			if ps.Triples != len(refs[Predicate][ps.Predicate]) || ps.DistinctSubjects != len(subj) || ps.DistinctObjects != len(obj) {
				t.Fatalf("step %d: Stats[%s] = %d/%d/%d, model %d/%d/%d", step, ps.Predicate,
					ps.Triples, ps.DistinctSubjects, ps.DistinctObjects, len(refs[Predicate][ps.Predicate]), len(subj), len(obj))
			}
			if got := db.DistinctValues(ps.Predicate, Object); len(got) != len(obj) {
				t.Fatalf("step %d: DistinctValues(%s) = %v, model has %d", step, ps.Predicate, got, len(obj))
			}
		}
	}
	if deletes[true] == 0 || deletes[false] == 0 {
		t.Fatalf("deletes from in-order predicate postings: %d, from out-of-order ones: %d; the stream must run both", deletes[true], deletes[false])
	}
	if longest[Subject] <= 2*postingFit || longest[Predicate] <= 4*postingFit || longest[Object] <= 2*postingFit {
		t.Fatalf("the longest subject, predicate and object postings held %d, %d and %d rows; the waves do not grow postings far past the size they grow to fit",
			longest[Subject], longest[Predicate], longest[Object])
	}
}

// checkSubjectOrder asserts that every subject posting is in SPO order:
// strictly increasing by (predicate, object).
func checkSubjectOrder(t *testing.T, db *DB, step int) {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	for key, rows := range db.bySubject {
		for i := 1; i < len(rows); i++ {
			if prev := rows[i-1]; prev.Predicate > rows[i].Predicate || prev.Predicate == rows[i].Predicate && prev.Object >= rows[i].Object {
				t.Fatalf("step %d: subject posting %q out of (predicate, object) order at row %d: %v after %v", step, key, i, *rows[i], *rows[i-1])
			}
		}
	}
}

// checkObjectOrder asserts that every object posting is in OPS order:
// strictly increasing by (predicate, subject).
func checkObjectOrder(t *testing.T, db *DB, step int) {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	for key, rows := range db.byObject {
		for i := 1; i < len(rows); i++ {
			if prev := rows[i-1]; prev.Predicate > rows[i].Predicate || prev.Predicate == rows[i].Predicate && prev.Subject >= rows[i].Subject {
				t.Fatalf("step %d: object posting %q out of (predicate, subject) order at row %d: %v after %v", step, key, i, *rows[i], *rows[i-1])
			}
		}
	}
}

// checkPredicateOrder asserts that every predicate posting not marked out of
// order is in PSO order: strictly increasing by (subject, object).
func checkPredicateOrder(t *testing.T, db *DB, step int) {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	for key, predicates := range db.byPredicate {
		if predicates.unsorted {
			continue
		}
		rows := predicates.rows
		for i := 1; i < len(rows); i++ {
			if prev := rows[i-1]; prev.Subject > rows[i].Subject || prev.Subject == rows[i].Subject && prev.Object >= rows[i].Object {
				t.Fatalf("step %d: predicate posting %q not marked, but out of (subject, object) order at row %d: %v after %v", step, key, i, *rows[i], *rows[i-1])
			}
		}
	}
}

func equalTriples(a, b []Triple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sharedRow returns the one row all three postings of tr hold, failing the
// test when they hold none or different ones.
func sharedRow(t *testing.T, db *DB, tr Triple) *Triple {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	row := findRow(db, tr)
	if row == nil {
		t.Fatalf("%v is not in its subject posting", tr)
	}
	for name, rows := range map[string][]*Triple{"predicate": db.byPredicate[tr.Predicate].rows, "object": db.byObject[tr.Object]} {
		n := 0
		for _, held := range rows {
			if *held == tr {
				if n++; held != row {
					t.Fatalf("%s posting of %v holds row %p, subject posting %p", name, tr, held, row)
				}
			}
		}
		if n != 1 {
			t.Fatalf("%s posting holds %v %d times", name, tr, n)
		}
	}
	return row
}

// TestDeleteAcrossPostingForms deletes a triple filed under a long
// predicate posting while its subject posting holds one row, and one whose
// subject posting is long while its predicate posting holds one row: the
// row found by value in the subject posting must leave the others by
// pointer, and the subject posting must stay in order. A re-insert files
// one fresh row under all three keys, in its slot.
func TestDeleteAcrossPostingForms(t *testing.T) {
	subjects := make([]string, 2*postingFit)
	for i := range subjects {
		subjects[i] = fmt.Sprintf("s%d", i)
	}
	for name, triples := range map[string][]Triple{
		"long-predicate/short-subject": func() (ts []Triple) {
			for i, s := range subjects {
				ts = append(ts, Triple{Subject: s, Predicate: "p", Object: fmt.Sprint("o", i)})
			}
			return ts
		}(),
		"short-predicate/long-subject": func() (ts []Triple) {
			for i := range subjects {
				ts = append(ts, Triple{Subject: subjects[0], Predicate: fmt.Sprint("p", i), Object: "o"})
			}
			return ts
		}(),
	} {
		t.Run(name, func(t *testing.T) {
			db := NewDB()
			db.InsertBatch(triples)
			victim := triples[3]
			subjectRows, predicateRows := len(db.bySubject[victim.Subject]), len(db.byPredicate[victim.Predicate].rows)
			if longSubject := name == "short-predicate/long-subject"; subjectRows == 1 == longSubject || predicateRows == 1 != longSubject {
				t.Fatalf("postings of %v not the lengths this case is about (%d subject rows, %d predicate rows)", victim, subjectRows, predicateRows)
			}
			sharedRow(t, db, victim)
			if !db.Delete(victim) || db.Delete(victim) || db.Has(victim) || db.Len() != len(triples)-1 {
				t.Fatalf("Delete(%v) did not remove exactly that triple (Len %d)", victim, db.Len())
			}
			checkSubjectOrder(t, db, 0)
			for _, q := range []Pattern{
				{S: Const(victim.Subject), P: Var("p"), O: Var("o")},
				{S: Var("s"), P: Const(victim.Predicate), O: Var("o")},
				{S: Var("s"), P: Var("p"), O: Const(victim.Object)},
			} {
				var want []Triple
				for _, tr := range triples {
					if tr != victim && q.Matches(tr) {
						want = append(want, tr)
					}
				}
				SortTriples(want)
				if got := db.SelectSorted(q); !equalTriples(got, want) {
					t.Fatalf("after Delete, Select(%v) = %v, want %v", q, got, want)
				}
			}
			for _, tr := range triples {
				if tr != victim {
					sharedRow(t, db, tr)
				}
			}
			if !db.Insert(victim) || db.Len() != len(triples) {
				t.Fatalf("re-insert of %v refused (Len %d)", victim, db.Len())
			}
			sharedRow(t, db, victim)
			checkSubjectOrder(t, db, 1)
			checkPostings(t, db)
		})
	}
}

// Race test: ordered selects sort a predicate posting while InsertBatch
// appends out of order and Delete takes rows out under the same predicate.
// Every answer is in (S, P, O) order and duplicate-free, and once the
// writers stop the posting holds exactly their surviving rows. Run it under
// -race with -count=10.
func TestSortPredicateUnderConcurrentWrites(t *testing.T) {
	const writers, perW = 4, 300
	db := NewDB()
	var stop atomic.Bool
	var readers, wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			q := Pattern{S: Var("s"), P: Const("hot"), O: Var("o")}
			for !stop.Load() {
				got := db.SelectSorted(q)
				for i := 1; i < len(got); i++ {
					if compareRows(&got[i-1], &got[i]) >= 0 {
						t.Errorf("SelectSorted(%v) out of order or repeated at %d: %v after %v", q, i, got[i], got[i-1])
						return
					}
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i, n := range rng.Perm(perW) {
				tr := Triple{fmt.Sprintf("w%d-s%03d", w, n), "hot", fmt.Sprint("o", n%7)}
				db.InsertBatch([]Triple{tr, {tr.Subject, "hot", "extra"}})
				if i%3 == 0 {
					db.Delete(tr)
				}
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	readers.Wait()

	model := modelDB{}
	for w := 0; w < writers; w++ {
		for i, n := range rand.New(rand.NewSource(int64(w))).Perm(perW) {
			s := fmt.Sprintf("w%d-s%03d", w, n)
			model[Triple{s, "hot", "extra"}] = struct{}{}
			if i%3 != 0 {
				model[Triple{s, "hot", fmt.Sprint("o", n%7)}] = struct{}{}
			}
		}
	}
	q := Pattern{S: Var("s"), P: Const("hot"), O: Var("o")}
	if got, want := db.SelectSorted(q), model.select_(q); !equalTriples(got, want) {
		t.Fatalf("SelectSorted(%v) = %d rows, model %d", q, len(got), len(want))
	}
	checkPredicateOrder(t, db, writers*perW)
	db.mu.RLock()
	unsorted := db.byPredicate["hot"].unsorted
	db.mu.RUnlock()
	if unsorted {
		t.Fatal("the last SelectSorted left the posting marked out of order")
	}
}
