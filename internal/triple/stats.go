package triple

import "sort"

// PredicateStats summarizes one predicate's extension in a DB: how many
// triples carry it and how many distinct subjects/objects they span. The
// distributed planner estimates result cardinalities from these three
// numbers — triples(p) for an unconstrained predicate scan, triples(p) /
// distinct-subjects(p) for a subject-constrained one, and likewise for
// objects.
type PredicateStats struct {
	Predicate        string
	Triples          int
	DistinctSubjects int
	DistinctObjects  int
	// SubjectSketch/ObjectSketch are HyperLogLog sketches of the same two
	// distinct sets. Cross-peer aggregation merges them instead of summing
	// the exact counts — the sum counts every subject once per holding
	// peer (replicas, the 3-way index), the merged sketch estimates the
	// union. nil on digests published by builds predating the sketches;
	// consumers fall back to summing.
	SubjectSketch *HLL
	ObjectSketch  *HLL
}

// Stats is the cardinality digest of a DB: the total triple count plus
// per-predicate statistics, sorted by predicate. It is what peers publish at
// schema keys so query planners across the overlay can replace static
// position-weight guesses with estimated cardinalities.
type Stats struct {
	Triples    int
	Predicates []PredicateStats
}

// cachedStats is a computed digest tagged with the mutation generation it
// was computed at. It is valid only while the generation still matches.
type cachedStats struct {
	gen   uint64
	stats Stats
}

// Stats digests the database. The digest is cached: it is computed in one
// pass under the read lock, tagged with the mutation generation of the state
// it read, and reused until any Insert/Delete/batch commits — so a freshly
// recovered peer (or any quiescent store) pays the scan once and republishes
// from the cache thereafter.
func (db *DB) Stats() Stats {
	if c := db.statsCache.Load(); c != nil && c.gen == db.statsGen.Load() {
		return c.stats.copyOut()
	}
	s := db.computeStats()
	db.statsCache.Store(&s)
	return s.stats.copyOut()
}

// copyOut returns a Stats whose slice and sketches the caller may keep or
// mutate without aliasing the cached copy.
func (s Stats) copyOut() Stats {
	out := s
	out.Predicates = make([]PredicateStats, len(s.Predicates))
	copy(out.Predicates, s.Predicates)
	for i := range out.Predicates {
		out.Predicates[i].SubjectSketch = out.Predicates[i].SubjectSketch.Clone()
		out.Predicates[i].ObjectSketch = out.Predicates[i].ObjectSketch.Clone()
	}
	return out
}

// computeStats is the uncached one-pass scan behind Stats, tagged with the
// generation of the state it read: mutators bump it under the write lock.
func (db *DB) computeStats() cachedStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := Stats{Triples: db.Len(), Predicates: make([]PredicateStats, 0, len(db.byPredicate))}
	for pred, predicates := range db.byPredicate {
		rows := predicates.rows
		subjects, objects := map[string]struct{}{}, map[string]struct{}{}
		ps := PredicateStats{Predicate: pred, Triples: len(rows), SubjectSketch: &HLL{}, ObjectSketch: &HLL{}}
		for _, t := range rows {
			subjects[t.Subject] = struct{}{}
			objects[t.Object] = struct{}{}
			ps.SubjectSketch.Add(t.Subject)
			ps.ObjectSketch.Add(t.Object)
		}
		ps.DistinctSubjects, ps.DistinctObjects = len(subjects), len(objects)
		out.Predicates = append(out.Predicates, ps)
	}
	sort.Slice(out.Predicates, func(i, j int) bool {
		return out.Predicates[i].Predicate < out.Predicates[j].Predicate
	})
	return cachedStats{gen: db.statsGen.Load(), stats: out}
}
