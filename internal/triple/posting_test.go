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

// crossings watches the postings' representation between checks: wasMany
// remembers which were maps, up and down count per index (subject,
// predicate, object) the postings seen to convert since.
type crossings struct {
	wasMany  map[string]bool
	up, down [3]int
}

// form is what the two posting kinds have in common: the rows of the slice,
// the rows the map holds, and whether the map is there at all.
type form struct {
	few, many []*Triple
	isMany    bool
}

func (f form) len() int { return len(f.few) + len(f.many) }

func formOfMembers(t *testing.T, p members) form {
	f := form{few: p.few, isMany: p.many != nil}
	for key, row := range p.many {
		if *row != key {
			t.Fatalf("subject posting maps %v to a row holding %v", key, *row)
		}
		f.many = append(f.many, row)
	}
	return f
}

func formOfRows(p rows) form {
	f := form{few: p.few, isMany: p.many != nil}
	for row := range p.many {
		f.many = append(f.many, row)
	}
	return f
}

// forms lists the shard's postings by index (subject, predicate, object)
// and key; s.mu must be held.
func (s *shard) forms(t *testing.T) [3]map[string]form {
	out := [3]map[string]form{{}, {}, {}}
	for key, p := range s.bySubject {
		out[0][key] = formOfMembers(t, p)
	}
	for key, p := range s.byPredicate {
		out[1][key] = formOfRows(p)
	}
	for key, p := range s.byObject {
		out[2][key] = formOfRows(p)
	}
	return out
}

// check asserts every posting's representation invariant — slice or map,
// never both, each within its size range; the subject posting's map keyed
// by the value of the row it points to; every pointer of a predicate or
// object posting the very row the subject posting holds for that triple,
// filed under the key it belongs to — and records conversions.
func (c *crossings) check(t *testing.T, db *DB) {
	t.Helper()
	for i := range db.shards {
		s := &db.shards[i]
		s.mu.RLock()
		for n, idx := range s.forms(t) {
			for key, p := range idx {
				switch {
				case p.len() == 0:
					t.Fatalf("empty posting left under %q", key)
				case p.isMany && (p.few != nil || len(p.many) <= postingPromote/2):
					t.Fatalf("posting %q: map of %d beside a slice of %d", key, len(p.many), len(p.few))
				case !p.isMany && len(p.few) > postingPromote:
					t.Fatalf("posting %q: slice of %d, over the promotion size", key, len(p.few))
				}
				for _, row := range append(p.many, p.few...) {
					if row.Component(Position(n)) != key {
						t.Fatalf("posting %q of index %d holds %v", key, n, *row)
					}
					if owner := s.bySubject[row.Subject].find(*row); owner != row {
						t.Fatalf("posting %q of index %d holds a row of %v that is not the subject posting's (%p, %p)", key, n, *row, row, owner)
					}
				}
				id := fmt.Sprint(i, n, key)
				switch was, is := c.wasMany[id], p.isMany; {
				case is && !was:
					c.up[n]++
				case was && !is:
					c.down[n]++
				}
				c.wasMany[id] = p.isMany
			}
		}
		s.mu.RUnlock()
	}
}

// TestPostingsMatchModelAcrossPromotion drives the store through waves of
// growth and shrinkage over a key alphabet sized so that postings of all
// three indexes cross the promotion size in both directions, and checks
// every read that goes through a posting — Select on each position,
// matching's examined-row counts, Has, Stats, DistinctValues — against
// the map-of-sets reference, while concurrent readers run under -race.
func TestPostingsMatchModelAcrossPromotion(t *testing.T) {
	// Predicate and object postings are per shard, so most subjects are
	// picked to share one: only there do those postings grow past a few.
	const predicates, objects = 3, 20
	subjects := []string{"a", "b", "c", "d"}
	for i := 0; len(subjects) < 12; i++ {
		if s := fmt.Sprintf("s%d", i); fnv1a(s)&(shardCount-1) == 0 {
			subjects = append(subjects, s)
		}
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
		if step%25 != 0 {
			continue
		}

		seen.check(t, db)
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
		// Two constants: the scan reads the smaller of the subject's posting
		// and the predicate's posting in the subject's shard.
		q := Pattern{S: Const(tr.Subject), P: Const(tr.Predicate), O: Var("o")}
		inShard := 0
		for other := range refs[Predicate][tr.Predicate] {
			if db.shardFor(other.Subject) == db.shardFor(tr.Subject) {
				inShard++
			}
		}
		wantN := min(len(refs[Subject][tr.Subject]), inShard)
		if _, examined := db.matching(nil, q); examined != wantN {
			t.Fatalf("step %d: matching(%v) examined %d rows, smaller posting holds %d", step, q, examined, wantN)
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
	for n, name := range []string{"subject", "predicate", "object"} {
		if seen.up[n] == 0 || seen.down[n] == 0 {
			t.Fatalf("%s postings: %d promotions and %d demotions seen — the waves do not cross the promotion size both ways", name, seen.up[n], seen.down[n])
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

// TestPostingPromotionHysteresis pins the two conversion points of both
// posting kinds: a posting becomes a map with its ninth row and a slice
// again when it is back to four, and keeps its rows — the same pointers —
// across both.
func TestPostingPromotionHysteresis(t *testing.T) {
	type kind struct {
		add, remove func(*Triple)
		form        func() form
	}
	var m members
	var r rows
	kinds := map[string]kind{
		"members": {m.add, m.remove, func() form { return formOfMembers(t, m) }},
		"rows":    {r.add, r.remove, func() form { return formOfRows(r) }},
	}
	for name, p := range kinds {
		t.Run(name, func(t *testing.T) {
			stored := make([]*Triple, postingPromote+1)
			for i := range stored {
				stored[i] = &Triple{Subject: "s", Predicate: "p", Object: fmt.Sprint(i)}
			}
			for _, row := range stored[:postingPromote] {
				p.add(row)
			}
			if f := p.form(); f.isMany || cap(f.few) != postingPromote {
				t.Fatalf("%d rows: map %v, slice capacity %d; want a slice grown to fit", postingPromote, f.isMany, cap(f.few))
			}
			p.add(stored[postingPromote])
			if f := p.form(); !f.isMany || f.few != nil || f.len() != postingPromote+1 {
				t.Fatalf("%d rows: not promoted (len %d)", postingPromote+1, f.len())
			}
			for i := postingPromote; i >= postingPromote/2; i-- {
				if f := p.form(); !f.isMany {
					t.Fatalf("demoted at %d rows, above half the promotion size", f.len())
				}
				p.remove(stored[i])
			}
			f := p.form()
			if f.isMany || len(f.few) != postingPromote/2 {
				t.Fatalf("%d rows: map %v, slice of %d; want a slice again", f.len(), f.isMany, len(f.few))
			}
			for _, row := range stored[:postingPromote/2] {
				if !slices.Contains(f.few, row) {
					t.Fatalf("row %v lost across promotion and demotion", *row)
				}
			}
		})
	}
}

// sharedRow returns the one row all three postings of tr hold, failing the
// test when they hold none or different ones.
func sharedRow(t *testing.T, db *DB, tr Triple) *Triple {
	t.Helper()
	s := db.shardFor(tr.Subject)
	s.mu.RLock()
	defer s.mu.RUnlock()
	row := s.bySubject[tr.Subject].find(tr)
	if row == nil {
		t.Fatalf("%v is not in its subject posting", tr)
	}
	for name, p := range map[string]form{"predicate": formOfRows(s.byPredicate[tr.Predicate]), "object": formOfRows(s.byObject[tr.Object])} {
		n := 0
		for _, held := range append(p.many, p.few...) {
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

// TestDeleteAcrossPostingForms deletes a triple whose predicate posting is
// a map while its subject posting is a slice, and the reverse: the row found
// by value in the one must leave the other by pointer. A re-insert files one
// fresh row under all three keys.
func TestDeleteAcrossPostingForms(t *testing.T) {
	// Predicate and object postings are per shard: all subjects share one.
	var subjects []string
	for i := 0; len(subjects) < 2*postingPromote; i++ {
		if s := fmt.Sprintf("s%d", i); fnv1a(s)&(shardCount-1) == 0 {
			subjects = append(subjects, s)
		}
	}
	for name, triples := range map[string][]Triple{
		"predicate-map/subject-slice": func() (ts []Triple) {
			for i, s := range subjects {
				ts = append(ts, Triple{Subject: s, Predicate: "p", Object: fmt.Sprint("o", i)})
			}
			return ts
		}(),
		"predicate-slice/subject-map": func() (ts []Triple) {
			for i := range subjects {
				ts = append(ts, Triple{Subject: subjects[0], Predicate: fmt.Sprint("p", i), Object: "o"})
			}
			return ts
		}(),
	} {
		t.Run(name, func(t *testing.T) {
			db := NewDB()
			db.InsertBatch(triples)
			s := &db.shards[0]
			victim := triples[3]
			subjectIsMap, predicateIsMap := s.bySubject[victim.Subject].many != nil, s.byPredicate[victim.Predicate].many != nil
			if subjectIsMap == predicateIsMap || subjectIsMap != (name == "predicate-slice/subject-map") {
				t.Fatalf("postings of %v not in the forms this case is about (subject map %v, predicate map %v)", victim, subjectIsMap, predicateIsMap)
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
