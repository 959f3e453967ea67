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
// pass over the shards, tagged with the current mutation generation, and
// reused until any Insert/Delete/batch commits — so a freshly recovered
// peer (or any quiescent store) pays the scan once and republishes from
// the cache thereafter. Each shard is observed at a consistent point but
// the database is not frozen globally — the digest is an estimate by
// design (it is published, cached, and aged at the planning layer), so
// cross-shard drift during concurrent writes is acceptable.
func (db *DB) Stats() Stats {
	if c := db.statsCache.Load(); c != nil && c.gen == db.statsGen.Load() {
		return c.stats.copyOut()
	}
	gen := db.statsGen.Load()
	s := db.computeStats()
	// Tagged with the generation read *before* the scan: a mutation that
	// committed mid-scan bumped the generation, so this entry simply
	// never hits and the next caller recomputes.
	db.statsCache.Store(&cachedStats{gen: gen, stats: s})
	return s.copyOut()
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

// computeStats is the uncached one-pass scan behind Stats.
func (db *DB) computeStats() Stats {
	type card struct {
		triples  int
		subjects map[string]struct{}
		objects  map[string]struct{}
		subj     *HLL
		obj      *HLL
	}
	perPred := map[string]*card{}
	total := 0
	for i := range db.shards {
		s := &db.shards[i]
		s.mu.RLock()
		for pred, ts := range s.byPredicate {
			c := perPred[pred]
			if c == nil {
				c = &card{
					subjects: map[string]struct{}{}, objects: map[string]struct{}{},
					subj: &HLL{}, obj: &HLL{},
				}
				perPred[pred] = c
			}
			c.triples += ts.len()
			total += ts.len()
			ts.each(func(t Triple) {
				c.subjects[t.Subject] = struct{}{}
				c.objects[t.Object] = struct{}{}
				c.subj.Add(t.Subject)
				c.obj.Add(t.Object)
			})
		}
		s.mu.RUnlock()
	}
	out := Stats{Triples: total, Predicates: make([]PredicateStats, 0, len(perPred))}
	for pred, c := range perPred {
		out.Predicates = append(out.Predicates, PredicateStats{
			Predicate:        pred,
			Triples:          c.triples,
			DistinctSubjects: len(c.subjects),
			DistinctObjects:  len(c.objects),
			SubjectSketch:    c.subj,
			ObjectSketch:     c.obj,
		})
	}
	sort.Slice(out.Predicates, func(i, j int) bool {
		return out.Predicates[i].Predicate < out.Predicates[j].Predicate
	})
	return out
}
