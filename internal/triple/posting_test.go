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

// crossings watches the postings' representation between checks: wasMany
// remembers which were maps, up and down count per index (subject,
// predicate, object) the postings seen to convert since.
type crossings struct {
	wasMany  map[string]bool
	up, down [3]int
}

// check asserts every posting's representation invariant — slice or map,
// never both, each within its size range — and records conversions.
func (c *crossings) check(t *testing.T, db *DB) {
	t.Helper()
	for i := range db.shards {
		s := &db.shards[i]
		s.mu.RLock()
		for n, idx := range []map[string]posting{s.bySubject, s.byPredicate, s.byObject} {
			for key, p := range idx {
				switch {
				case p.len() == 0:
					t.Fatalf("empty posting left under %q", key)
				case p.many != nil && (p.few != nil || len(p.many) <= postingPromote/2):
					t.Fatalf("posting %q: map of %d beside a slice of %d", key, len(p.many), len(p.few))
				case p.many == nil && len(p.few) > postingPromote:
					t.Fatalf("posting %q: slice of %d, over the promotion size", key, len(p.few))
				}
				id := fmt.Sprint(i, n, key)
				switch was, is := c.wasMany[id], p.many != nil; {
				case is && !was:
					c.up[n]++
				case was && !is:
					c.down[n]++
				}
				c.wasMany[id] = p.many != nil
			}
		}
		s.mu.RUnlock()
	}
}

// TestPostingsMatchModelAcrossPromotion drives the store through waves of
// growth and shrinkage over a key alphabet sized so that postings of all
// three indexes cross the promotion size in both directions, and checks
// every read that goes through a posting — Select on each position,
// planSelect's candidate counts, Has, Stats, DistinctValues — against
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
		// Two constants: the planner compares posting lengths.
		q := Pattern{S: Const(tr.Subject), P: Const(tr.Predicate), O: Var("o")}
		wantN := min(len(refs[Subject][tr.Subject]), len(refs[Predicate][tr.Predicate]))
		if plan := db.planSelect(q); plan.fullScan || plan.candidates != wantN {
			t.Fatalf("step %d: planSelect(%v) = %+v, smaller posting holds %d", step, q, plan, wantN)
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

// TestPostingPromotionHysteresis pins the two conversion points: a
// posting becomes a map with its ninth triple and a slice again when it is
// back to four, and keeps its content across both.
func TestPostingPromotionHysteresis(t *testing.T) {
	var p posting
	tr := func(i int) Triple { return Triple{Subject: "s", Predicate: "p", Object: fmt.Sprint(i)} }
	add := func(i int) { row := tr(i); p.add(&row) }
	for i := 0; i < postingPromote; i++ {
		add(i)
	}
	if p.many != nil || cap(p.few) != postingPromote {
		t.Fatalf("%d triples: map %v, slice capacity %d; want a slice grown to fit", postingPromote, p.many != nil, cap(p.few))
	}
	add(postingPromote)
	if p.many == nil || p.few != nil || p.len() != postingPromote+1 {
		t.Fatalf("%d triples: not promoted (len %d)", postingPromote+1, p.len())
	}
	for i := postingPromote; i >= postingPromote/2; i-- {
		if p.many == nil {
			t.Fatalf("demoted at %d triples, above half the promotion size", p.len())
		}
		p.remove(tr(i))
	}
	if p.many != nil || len(p.few) != postingPromote/2 {
		t.Fatalf("%d triples: map %v, slice of %d; want a slice again", p.len(), p.many != nil, len(p.few))
	}
	for i := 0; i < postingPromote/2; i++ {
		if !p.has(tr(i)) {
			t.Fatalf("triple %d lost across promotion and demotion", i)
		}
	}
}
