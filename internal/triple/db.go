package triple

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DB is the local database DB_p each peer maintains for the triples it is
// responsible for (paper §2.2). Its physical schema is the fixed ternary
// relation (subject, predicate, object); every component is indexed so that
// constraint searches on any position are index lookups.
//
// Each index maps a key to the posting of the rows filed under it (see
// posting.go). bySubject doubles as the membership set — there is no
// separate triple set — and is the posting looked up by value; byPredicate
// and byObject hold the pointers it handed out.
//
// One RWMutex guards the three indexes. A daemon hosts one DB per peer, so
// its peers already write under separate locks. DB is safe for concurrent
// use, and every operation, Stats included, observes one consistent state.
type DB struct {
	mu          sync.RWMutex
	bySubject   map[string][]*Triple
	byPredicate map[string]predicatePosting
	byObject    map[string][]*Triple
	size        atomic.Int64

	// statsGen counts committed mutations; statsCache holds the last
	// computed Stats tagged with the generation it was computed at. A
	// cache hit requires the tags to match, so any intervening mutation
	// invalidates it without the mutators ever touching the cache
	// pointer. size and statsGen move under the write lock. See Stats.
	statsGen   atomic.Uint64
	statsCache atomic.Pointer[cachedStats]
}

// NewDB returns an empty local triple database.
func NewDB() *DB {
	return &DB{
		bySubject:   make(map[string][]*Triple),
		byPredicate: make(map[string]predicatePosting),
		byObject:    make(map[string][]*Triple),
	}
}

// Insert adds a triple (idempotent) and reports whether it was new.
func (db *DB) Insert(t Triple) bool {
	return db.InsertBatch([]Triple{t}) == 1
}

// InsertBatch adds a set of triples under one lock acquisition instead of
// paying one lock round-trip per triple. It returns the number of newly
// inserted triples.
func (db *DB) InsertBatch(ts []Triple) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	inserted := 0
	for _, t := range ts {
		rows := db.bySubject[t.Subject]
		i, found := spoSlot(rows, t)
		if found {
			continue
		}
		row := new(Triple) // after the check: a duplicate allocates nothing
		*row = t
		db.bySubject[t.Subject] = fileAt(rows, i, row)
		db.byPredicate[t.Predicate] = db.byPredicate[t.Predicate].add(row)
		objects := db.byObject[t.Object]
		j, _ := opsSlot(objects, row)
		db.byObject[t.Object] = fileAt(objects, j, row)
		inserted++
	}
	if inserted > 0 {
		db.size.Add(int64(inserted))
		db.statsGen.Add(1)
	}
	return inserted
}

// Delete removes a triple and reports whether it was present.
func (db *DB) Delete(t Triple) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	subjects := db.bySubject[t.Subject]
	i, found := spoSlot(subjects, t)
	if !found {
		return false
	}
	row := subjects[i]
	dropAt(db.bySubject, t.Subject, subjects, i)
	if rest := db.byPredicate[t.Predicate].drop(row); len(rest.rows) == 0 {
		delete(db.byPredicate, t.Predicate)
	} else {
		db.byPredicate[t.Predicate] = rest
	}
	objects := db.byObject[t.Object]
	j, _ := opsSlot(objects, row)
	dropAt(db.byObject, t.Object, objects, j)
	db.size.Add(-1)
	db.statsGen.Add(1)
	return true
}

// Has reports whether the exact triple is stored.
func (db *DB) Has(t Triple) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, found := spoSlot(db.bySubject[t.Subject], t)
	return found
}

// Len returns the number of stored triples.
func (db *DB) Len() int {
	return int(db.size.Load())
}

// All returns every stored triple in unspecified order. Use AllSorted when
// deterministic order matters.
func (db *DB) All() []Triple {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]Triple, 0, db.Len())
	for _, rows := range db.bySubject {
		for _, row := range rows {
			out = append(out, *row)
		}
	}
	return out
}

// AllSorted returns every stored triple in (subject, predicate, object)
// order.
func (db *DB) AllSorted() []Triple {
	out := db.All()
	SortTriples(out)
	return out
}

// matching appends to out the rows matching q — σ before the copy-out —
// reports how many rows it examined to find them, and whether it appended
// them in (S, P, O) order. It scans the smallest posting a constant of q
// files them under and filters the remainder. Ties break subject > object >
// predicate, the routing specificity order; a pattern without constants
// scans the whole database. The choice compares whole postings, except that
// with P and O constant the object posting's P-range stands for it; an
// ordered posting chosen with P constant is read only in P's range. A
// subject posting comes out in order, filtered or not, and so does an object
// posting's range or one read for a constant subject, and a predicate
// posting not marked out of order; the full scan does not. When q binds no
// term but the constants the scan is filed under, the scan is the answer
// and is appended as it stands.
func (db *DB) matching(out []*Triple, q Pattern) (rows []*Triple, examined int, ordered bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	bound := 0
	for _, t := range [3]Term{q.S, q.P, q.O} {
		if t.Kind != Variable {
			bound++
		}
	}
	var best []*Triple
	filed := 0
	if q.O.Kind == Constant {
		best, filed, ordered = db.byObject[q.O.Value], 1, q.S.Kind == Constant
		if q.P.Kind == Constant {
			best, filed, ordered = predicateRange(best, q.P.Value), 2, true
		}
	} else if q.P.Kind == Constant {
		predicates := db.byPredicate[q.P.Value]
		best, filed, ordered = predicates.rows, 1, !predicates.unsorted
	}
	if q.S.Kind == Constant {
		if s := db.bySubject[q.S.Value]; filed == 0 || len(s) <= len(best) {
			best, filed, ordered = s, 1, true
			if q.P.Kind == Constant {
				best, filed = predicateRange(s, q.P.Value), 2
			}
		}
	}
	if filed == 0 {
		if bound == 0 {
			out = slices.Grow(out, db.Len())
		}
		for _, rows := range db.bySubject {
			out = appendMatches(out, rows, q)
		}
		return out, db.Len(), false
	}
	if bound == filed {
		return append(out, best...), len(best), ordered
	}
	return appendMatches(out, best, q), len(best), ordered
}

// selectScratch is how many row pointers Select collects on its stack
// before the collection moves to the heap: room for a point lookup's answer.
const selectScratch = 64

// copyRows materialises collected rows: the one copy a selected triple
// costs, into a slice sized to the answer.
func copyRows(rows []*Triple) []Triple {
	out := make([]Triple, len(rows))
	for i, row := range rows {
		out[i] = *row
	}
	return out
}

// Select implements the selection operator σ for a triple pattern: it
// returns all stored triples matching the pattern, scanning the most
// selective available equality index and filtering the remainder.
// Results are in unspecified order; callers that need deterministic output
// use SelectSorted or sort themselves with SortTriples.
func (db *DB) Select(q Pattern) []Triple {
	var scratch [selectScratch]*Triple
	rows, _, _ := db.matching(scratch[:0], q)
	return copyRows(rows)
}

// SelectSorted is Select with deterministic (subject, predicate, object)
// output order — the variant remote query handlers use so answers are
// reproducible across runs. Given several patterns, it returns their answers
// end to end, each in that order, in one slice sized to the whole. A scan
// that came out in order is copied out as it stands. A scan of an
// out-of-order predicate posting sorts the posting in place and scans again,
// so later selects find it in order. Any other scan sorts the row pointers
// (8-byte swaps) first, so each triple is copied once, already in place.
func (db *DB) SelectSorted(qs ...Pattern) []Triple {
	var scratch [selectScratch]*Triple
	rows := scratch[:0]
	for _, q := range qs {
		start := len(rows)
		var ordered bool
		rows, _, ordered = db.matching(rows, q)
		// With P constant, only an out-of-order predicate posting comes out
		// of order.
		if !ordered && q.P.Kind == Constant {
			db.sortPredicate(q.P.Value)
			rows, _, ordered = db.matching(rows[:start], q)
		}
		if !ordered {
			// Unordered scan, or a write marked the posting again in between.
			slices.SortFunc(rows[start:], compareRows)
		}
	}
	return copyRows(rows)
}

// sortPredicate puts the predicate posting filed under p in (subject,
// object) order if it is marked out of order. The mark is checked under the
// read lock first, so only a select that finds it set takes the write lock.
func (db *DB) sortPredicate(p string) {
	db.mu.RLock()
	unsorted := db.byPredicate[p].unsorted
	db.mu.RUnlock()
	if !unsorted {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if predicates := db.byPredicate[p]; predicates.unsorted {
		slices.SortFunc(predicates.rows, comparePSO)
		predicates.unsorted = false
		db.byPredicate[p] = predicates
	}
}

// JoinBindingsNestedLoop is the O(|L|·|R|) pairwise-merge join on binding
// maps — the seed's evaluator, kept as the naive baseline the conjunctive
// planner is benchmarked and property-tested against.
func JoinBindingsNestedLoop(left, right []Bindings) []Bindings {
	var out []Bindings
	for _, l := range left {
		for _, r := range right {
			if merged, ok := mergeBindings(l, r); ok {
				out = append(out, merged)
			}
		}
	}
	return out
}

func mergeBindings(a, b Bindings) (Bindings, bool) {
	out := make(Bindings, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		if prev, ok := out[k]; ok && prev != v {
			return nil, false
		}
		out[k] = v
	}
	return out, true
}

// DistinctValues returns the sorted set of values appearing at the given
// position of triples with the given predicate. The automatic alignment
// algorithm uses it to compare attribute value sets across schemas (§4).
func (db *DB) DistinctValues(predicate string, pos Position) []string {
	set := map[string]struct{}{}
	db.mu.RLock()
	for _, row := range db.byPredicate[predicate].rows {
		set[row.Component(pos)] = struct{}{}
	}
	db.mu.RUnlock()
	return sortedKeys(set)
}

// Predicates returns the sorted set of predicates present in the database.
func (db *DB) Predicates() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return sortedKeys(db.byPredicate)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SortTriples orders triples by (subject, predicate, object) in place — the
// canonical deterministic order of the package.
func SortTriples(ts []Triple) {
	slices.SortFunc(ts, func(a, b Triple) int { return compareRows(&a, &b) })
}

func compareRows(a, b *Triple) int {
	if c := strings.Compare(a.Subject, b.Subject); c != 0 {
		return c
	}
	if c := strings.Compare(a.Predicate, b.Predicate); c != 0 {
		return c
	}
	return strings.Compare(a.Object, b.Object)
}

// EachFiled calls visit with every stored triple once per position, with
// the string it is filed under there: the rows of one (position, string)
// come together. It runs under the read lock, so visit must not call back
// into the database.
func (db *DB) EachFiled(visit func(pos Position, s string, t Triple)) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for s, rows := range db.bySubject {
		for _, row := range rows {
			visit(Subject, s, *row)
		}
	}
	for s, predicates := range db.byPredicate {
		for _, row := range predicates.rows {
			visit(Predicate, s, *row)
		}
	}
	for s, rows := range db.byObject {
		for _, row := range rows {
			visit(Object, s, *row)
		}
	}
}
