package triple

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// shardCount is the number of lock stripes of a DB. A power of two so the
// shard of a subject is a cheap mask of its hash. 32 stripes keep lock
// contention negligible up to several hundred concurrent readers/writers
// while the per-shard fixed cost (three small maps) stays trivial.
const shardCount = 32

// shard is one lock stripe: the triples whose subject hashes to this stripe,
// filed under the three positional equality indexes restricted to those
// triples. A given subject lives in exactly one shard, so bySubject doubles
// as the shard's membership set (there is no separate triple set) and owns
// the lookup from a triple's value to its row; predicate and object indexes
// hold row pointers only, are partial per shard, and cross-shard lookups
// union them.
type shard struct {
	mu          sync.RWMutex
	bySubject   map[string]members
	byPredicate map[string]rows
	byObject    map[string]rows
}

// DB is the local database DB_p each peer maintains for the triples it is
// responsible for (paper §2.2). Its physical schema is the fixed ternary
// relation (subject, predicate, object); every component is indexed so that
// constraint searches on any position are index lookups.
//
// The store is sharded by subject hash into shardCount lock stripes, so
// concurrent inserts, deletes and selects on different subjects proceed
// without contending on a single database-wide mutex. DB is safe for
// concurrent use; each individual operation is atomic per shard, and
// cross-shard reads (Select by predicate/object, All) observe each shard at
// a consistent point but not the database as one global snapshot — callers
// that interleave writes and expect a frozen global view must serialize
// externally, as with any concurrent map.
type DB struct {
	shards [shardCount]shard
	size   atomic.Int64

	// statsGen counts committed mutations; statsCache holds the last
	// computed Stats tagged with the generation it was computed at. A
	// cache hit requires the tags to match, so any intervening mutation
	// invalidates it without the mutators ever touching the cache
	// pointer. See Stats.
	statsGen   atomic.Uint64
	statsCache atomic.Pointer[cachedStats]
}

// NewDB returns an empty local triple database.
func NewDB() *DB {
	db := &DB{}
	for i := range db.shards {
		s := &db.shards[i]
		s.bySubject = make(map[string]members)
		s.byPredicate = make(map[string]rows)
		s.byObject = make(map[string]rows)
	}
	return db
}

// fnv1a is the 64-bit FNV-1a hash, inlined to keep shard selection
// allocation-free on the hot path.
func fnv1a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

func (db *DB) shardFor(subject string) *shard {
	return &db.shards[fnv1a(subject)&(shardCount-1)]
}

// insert files t under its three keys unless it is already stored; s.mu
// must be held.
func (s *shard) insert(t Triple) bool {
	m := s.bySubject[t.Subject]
	if m.find(t) != nil {
		return false
	}
	row := new(Triple) // after the check: a duplicate allocates nothing
	*row = t
	m.add(row)
	s.bySubject[t.Subject] = m
	addRow(s.byPredicate, t.Predicate, row)
	addRow(s.byObject, t.Object, row)
	return true
}

// Insert adds a triple (idempotent) and reports whether it was new.
func (db *DB) Insert(t Triple) bool {
	s := db.shardFor(t.Subject)
	s.mu.Lock()
	inserted := s.insert(t)
	s.mu.Unlock()
	if inserted {
		db.size.Add(1)
		db.statsGen.Add(1)
	}
	return inserted
}

// InsertBatch adds a set of triples, visiting each affected shard once
// (triples are grouped by shard and applied under a single lock
// acquisition per stripe) instead of paying one lock round-trip per
// triple. It returns the number of newly inserted triples.
func (db *DB) InsertBatch(ts []Triple) int {
	if len(ts) == 0 {
		return 0
	}
	var byShard [shardCount][]Triple
	for _, t := range ts {
		i := fnv1a(t.Subject) & (shardCount - 1)
		byShard[i] = append(byShard[i], t)
	}
	inserted := 0
	for i := range byShard {
		group := byShard[i]
		if len(group) == 0 {
			continue
		}
		s := &db.shards[i]
		s.mu.Lock()
		for _, t := range group {
			if s.insert(t) {
				inserted++
			}
		}
		s.mu.Unlock()
	}
	if inserted > 0 {
		db.size.Add(int64(inserted))
		db.statsGen.Add(1)
	}
	return inserted
}

// Delete removes a triple and reports whether it was present.
func (db *DB) Delete(t Triple) bool {
	s := db.shardFor(t.Subject)
	s.mu.Lock()
	m := s.bySubject[t.Subject]
	row := m.find(t)
	if row == nil {
		s.mu.Unlock()
		return false
	}
	if m.remove(row); m.len() == 0 {
		delete(s.bySubject, t.Subject)
	} else {
		s.bySubject[t.Subject] = m
	}
	dropRow(s.byPredicate, t.Predicate, row)
	dropRow(s.byObject, t.Object, row)
	s.mu.Unlock()
	db.size.Add(-1)
	db.statsGen.Add(1)
	return true
}

// Has reports whether the exact triple is stored.
func (db *DB) Has(t Triple) bool {
	s := db.shardFor(t.Subject)
	s.mu.RLock()
	ok := s.bySubject[t.Subject].find(t) != nil
	s.mu.RUnlock()
	return ok
}

// Len returns the number of stored triples.
func (db *DB) Len() int {
	return int(db.size.Load())
}

// All returns every stored triple in unspecified order. Use AllSorted when
// deterministic order matters.
func (db *DB) All() []Triple {
	out := make([]Triple, 0, db.Len())
	for i := range db.shards {
		s := &db.shards[i]
		s.mu.RLock()
		for _, p := range s.bySubject {
			p.each(func(t Triple) { out = append(out, t) })
		}
		s.mu.RUnlock()
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

// appendMatches appends the rows of s matching q, scanning the smallest
// posting a constant of q files them under and filtering the remainder; it
// also reports how many rows it examined. The choice is made per shard, under
// the lock the scan holds anyway (one map lookup per constant), instead of
// counting every shard's postings first: the rows examined over all shards
// never exceed those of the best single index, Σ min(aᵢ, bᵢ) ≤ min(Σ aᵢ, Σ bᵢ).
// Ties break subject > object > predicate, the routing specificity order; a
// pattern without constants scans the whole shard.
func (s *shard) appendMatches(out []*Triple, q Pattern) ([]*Triple, int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var best rows
	n := -1
	if q.O.Kind == Constant {
		best = s.byObject[q.O.Value]
		n = best.len()
	}
	if q.P.Kind == Constant {
		if p := s.byPredicate[q.P.Value]; n < 0 || p.len() < n {
			best, n = p, p.len()
		}
	}
	if q.S.Kind == Constant {
		if m := s.bySubject[q.S.Value]; n < 0 || m.len() <= n {
			return m.appendMatches(slices.Grow(out, m.len()), q), m.len()
		}
	}
	if n < 0 {
		examined := 0
		for _, m := range s.bySubject {
			out = m.appendMatches(slices.Grow(out, m.len()), q)
			examined += m.len()
		}
		return out, examined
	}
	return best.appendMatches(slices.Grow(out, n), q), n
}

// matching appends to buf the rows matching q — σ before the copy-out — and
// reports how many rows it examined to find them. A constant subject lives
// in exactly one shard; every other pattern visits each shard once.
func (db *DB) matching(buf []*Triple, q Pattern) (rows []*Triple, examined int) {
	if q.S.Kind == Constant {
		return db.shardFor(q.S.Value).appendMatches(buf, q)
	}
	rows = buf
	for i := range db.shards {
		var n int
		rows, n = db.shards[i].appendMatches(rows, q)
		examined += n
	}
	return rows, examined
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
// returns all stored triples matching the pattern, scanning per shard the
// most selective available equality index and filtering the remainder.
// Results are in unspecified order; callers that need deterministic output
// use SelectSorted or sort themselves with SortTriples.
func (db *DB) Select(q Pattern) []Triple {
	var scratch [selectScratch]*Triple
	rows, _ := db.matching(scratch[:0], q)
	return copyRows(rows)
}

// SelectSorted is Select with deterministic (subject, predicate, object)
// output order — the variant remote query handlers use so answers are
// reproducible across runs. It sorts the row pointers (8-byte swaps) and
// copies each triple out once, already in place.
func (db *DB) SelectSorted(q Pattern) []Triple {
	var scratch [selectScratch]*Triple
	rows, _ := db.matching(scratch[:0], q)
	slices.SortFunc(rows, compareRows)
	return copyRows(rows)
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
	set := map[string]bool{}
	for i := range db.shards {
		s := &db.shards[i]
		s.mu.RLock()
		s.byPredicate[predicate].each(func(t Triple) { set[t.Component(pos)] = true })
		s.mu.RUnlock()
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Predicates returns the sorted set of predicates present in the database.
func (db *DB) Predicates() []string {
	set := map[string]bool{}
	for i := range db.shards {
		s := &db.shards[i]
		s.mu.RLock()
		for p := range s.byPredicate {
			set[p] = true
		}
		s.mu.RUnlock()
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
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
