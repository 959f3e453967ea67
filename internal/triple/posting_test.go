package triple

import (
	"fmt"
	"math/rand"
	"slices"
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

// crossings watches the subject postings' representation between checks:
// wasMany remembers which were maps, up and down count the postings seen to
// convert since.
type crossings struct {
	wasMany  map[string]bool
	up, down int
}

// check asserts every posting's representation invariant — a subject
// posting a slice or a map, never both, each within its size range, its map
// keyed by the value of the row it points to; a predicate or object posting a
// non-empty slice of distinct rows, each the very row the subject posting
// holds for that triple, filed under the key it belongs to — and records the
// subject postings' conversions.
func (c *crossings) check(t *testing.T, db *DB) {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	for key, p := range db.bySubject {
		switch {
		case p.len() == 0:
			t.Fatalf("empty subject posting left under %q", key)
		case p.many != nil && (p.few != nil || len(p.many) <= postingPromote/2):
			t.Fatalf("subject posting %q: map of %d beside a slice of %d", key, len(p.many), len(p.few))
		case p.many == nil && len(p.few) > postingPromote:
			t.Fatalf("subject posting %q: slice of %d, over the promotion size", key, len(p.few))
		}
		p.each(func(tr Triple) {
			if tr.Subject != key {
				t.Fatalf("subject posting %q holds %v", key, tr)
			}
		})
		for value, row := range p.many {
			if *row != value {
				t.Fatalf("subject posting maps %v to a row holding %v", value, *row)
			}
		}
		switch was, is := c.wasMany[key], p.many != nil; {
		case is && !was:
			c.up++
		case was && !is:
			c.down++
		}
		c.wasMany[key] = p.many != nil
	}
	for pos, idx := range map[Position]map[string][]*Triple{Predicate: db.byPredicate, Object: db.byObject} {
		for key, rows := range idx {
			if len(rows) == 0 {
				t.Fatalf("empty %s posting left under %q", pos, key)
			}
			seen := map[*Triple]bool{}
			for _, row := range rows {
				if row.Component(pos) != key {
					t.Fatalf("%s posting %q holds %v", pos, key, *row)
				}
				if owner := db.bySubject[row.Subject].find(*row); owner != row {
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

// TestPostingsMatchModelAcrossPromotion drives the store through waves of
// growth and shrinkage over a key alphabet sized so that subject postings
// cross the promotion size in both directions while predicate and object
// postings grow to dozens of rows and drain again, and checks every read
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

	seen := crossings{wasMany: map[string]bool{}}
	longest := 0
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
		checkObjectOrder(t, db, step)
		if step%25 != 0 {
			continue
		}

		seen.check(t, db)
		for _, set := range refs[Predicate] {
			longest = max(longest, len(set))
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
		// (S, P, ?): the scan reads the smaller of the two postings. (?, P, O)
		// and (LIKE, P, O): it reads the object posting's P-range, exactly
		// the model's (P, O) rows.
		pairRows := 0
		for held := range refs[Object][tr.Object] {
			if held.Predicate == tr.Predicate {
				pairRows++
			}
		}
		for _, q := range []Pattern{
			{S: Const(tr.Subject), P: Const(tr.Predicate), O: Var("o")},
			{S: Var("s"), P: Const(tr.Predicate), O: Const(tr.Object)},
			{S: LikeTerm("s%"), P: Const(tr.Predicate), O: Const(tr.Object)},
		} {
			wantN := min(len(refs[Subject][tr.Subject]), len(refs[Predicate][tr.Predicate]))
			if q.S.Kind != Constant {
				wantN = pairRows
			}
			if _, examined := db.matching(nil, q); examined != wantN {
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
	if seen.up == 0 || seen.down == 0 {
		t.Fatalf("subject postings: %d promotions and %d demotions seen — the waves do not cross the promotion size both ways", seen.up, seen.down)
	}
	if longest <= 4*postingPromote {
		t.Fatalf("the longest predicate posting held %d rows; the waves do not grow slices far past the promotion size", longest)
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

// TestPostingPromotionHysteresis pins the subject posting's two conversion
// points — a map with its ninth row, a slice again when it is back to four,
// keeping its rows, the same pointers, across both — and that a predicate
// posting never converts: at any length it is the slice of its rows in
// insertion order, and each delete takes exactly its row out.
func TestPostingPromotionHysteresis(t *testing.T) {
	stored := make([]*Triple, 4*postingPromote)
	for i := range stored {
		stored[i] = &Triple{Subject: "s", Predicate: "p", Object: fmt.Sprint(i)}
	}
	t.Run("members", func(t *testing.T) {
		var p members
		for _, row := range stored[:postingPromote] {
			p.add(row)
		}
		if p.many != nil || cap(p.few) != postingPromote {
			t.Fatalf("%d rows: map %v, slice capacity %d; want a slice grown to fit", postingPromote, p.many != nil, cap(p.few))
		}
		p.add(stored[postingPromote])
		if p.many == nil || p.few != nil || p.len() != postingPromote+1 {
			t.Fatalf("%d rows: not promoted (len %d)", postingPromote+1, p.len())
		}
		for i := postingPromote; i >= postingPromote/2; i-- {
			if p.many == nil {
				t.Fatalf("demoted at %d rows, above half the promotion size", p.len())
			}
			p.remove(stored[i])
		}
		if p.many != nil || len(p.few) != postingPromote/2 {
			t.Fatalf("%d rows: map %v, slice of %d; want a slice again", p.len(), p.many != nil, len(p.few))
		}
		for _, row := range stored[:postingPromote/2] {
			if !slices.Contains(p.few, row) {
				t.Fatalf("row %v lost across promotion and demotion", *row)
			}
		}
	})
	t.Run("rows", func(t *testing.T) {
		db := NewDB()
		for _, row := range stored {
			db.Insert(*row)
		}
		want := slices.Clone(db.byPredicate["p"])
		if len(want) != len(stored) {
			t.Fatalf("predicate posting holds %d rows, %d stored", len(want), len(stored))
		}
		for i, row := range want {
			if *row != *stored[i] || row != sharedRow(t, db, *row) {
				t.Fatalf("predicate posting row %d holds %v; want the subject posting's row of %v", i, *row, *stored[i])
			}
		}
		slices.SortFunc(want, compareRows)
		rng := rand.New(rand.NewSource(3))
		for len(want) > 0 {
			victim := want[rng.Intn(len(want))]
			if !db.Delete(*victim) {
				t.Fatalf("Delete(%v) found nothing", *victim)
			}
			want = slices.DeleteFunc(want, func(row *Triple) bool { return row == victim })
			got := slices.Clone(db.byPredicate["p"])
			slices.SortFunc(got, compareRows)
			if !slices.Equal(got, want) {
				t.Fatalf("after deleting %v the predicate posting holds %d rows, want the other %d", *victim, len(got), len(want))
			}
		}
		if _, left := db.byPredicate["p"]; left {
			t.Fatal("emptied predicate posting left under its key")
		}
	})
}

// sharedRow returns the one row all three postings of tr hold, failing the
// test when they hold none or different ones.
func sharedRow(t *testing.T, db *DB, tr Triple) *Triple {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	row := db.bySubject[tr.Subject].find(tr)
	if row == nil {
		t.Fatalf("%v is not in its subject posting", tr)
	}
	for name, rows := range map[string][]*Triple{"predicate": db.byPredicate[tr.Predicate], "object": db.byObject[tr.Object]} {
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
// predicate posting while its subject posting is a slice, and one whose
// subject posting is a map while its predicate posting holds one row: the
// row found by value in the subject posting must leave the others by
// pointer. A re-insert files one fresh row under all three keys.
func TestDeleteAcrossPostingForms(t *testing.T) {
	subjects := make([]string, 2*postingPromote)
	for i := range subjects {
		subjects[i] = fmt.Sprintf("s%d", i)
	}
	for name, triples := range map[string][]Triple{
		"long-predicate/subject-slice": func() (ts []Triple) {
			for i, s := range subjects {
				ts = append(ts, Triple{Subject: s, Predicate: "p", Object: fmt.Sprint("o", i)})
			}
			return ts
		}(),
		"short-predicate/subject-map": func() (ts []Triple) {
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
			subjectIsMap, predicateRows := db.bySubject[victim.Subject].many != nil, len(db.byPredicate[victim.Predicate])
			if subjectIsMap != (predicateRows == 1) || subjectIsMap != (name == "short-predicate/subject-map") {
				t.Fatalf("postings of %v not in the forms this case is about (subject map %v, %d predicate rows)", victim, subjectIsMap, predicateRows)
			}
			sharedRow(t, db, victim)
			if !db.Delete(victim) || db.Delete(victim) || db.Has(victim) || db.Len() != len(triples)-1 {
				t.Fatalf("Delete(%v) did not remove exactly that triple (Len %d)", victim, db.Len())
			}
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
			(&crossings{wasMany: map[string]bool{}}).check(t, db)
		})
	}
}
