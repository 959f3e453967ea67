package mediation

import (
	"context"
	"encoding/gob"
	"sort"
	"time"

	"gridvine/internal/pgrid"
	"gridvine/internal/schema"
	"gridvine/internal/triple"
)

// The distributed statistics subsystem. Each peer can digest its local
// triple database into per-predicate cardinalities (triple.Stats) and
// publish one StatsDigest per schema at the schema's key — the same key
// space that already holds the schema definition and its mappings, so one
// Retrieve serves planning and reformulation alike. Query planners on any
// peer fetch and aggregate the digests of a schema (cached per
// DefaultStatsTTL window), replacing the hard-coded position-weight
// selectivity guesses with estimated cardinalities. Digests age out: one
// older than the TTL is ignored at fetch time (so, with the fetch cache on
// top, a digest steers plans for at most 2×TTL after publication), and a
// schema with no fresh digest falls back to the static weights — stale statistics can degrade a plan's
// cost, never its answer, since ordering and strategy choice do not affect
// the result set.

// DefaultStatsTTL is the freshness horizon of distributed statistics: the
// conjunctive planner aggregates published StatsDigests no older than this
// (cached per schema for the same window) to estimate pattern
// cardinalities, and falls back to the static position weights when no
// digest is fresh. Long enough that one publication round serves many
// queries, short enough that abandoned peers' digests stop steering
// planners within minutes.
const DefaultStatsTTL = 2 * time.Minute

// StatsDigest is one peer's cardinality summary for one schema, published
// at the schema key. A peer keeps at most one live digest per (origin,
// schema) pair: publication uses the overlay's atomic replace, and Replaces
// marks the previous digest for removal.
type StatsDigest struct {
	// Origin identifies the publishing peer; republications supersede the
	// same origin's previous digest.
	Origin string
	// Schema is the schema name whose predicates the digest covers.
	Schema string
	// Published is the publication instant; consumers ignore digests older
	// than their staleness TTL.
	Published time.Time
	// Predicates carries the per-predicate cardinalities of the origin's
	// local database, restricted to this schema's predicates.
	Predicates []triple.PredicateStats
}

// Replaces implements pgrid.Replacer: a digest supersedes this origin's
// previous digest for the same schema.
func (d StatsDigest) Replaces(old any) bool {
	o, ok := old.(StatsDigest)
	return ok && o.Origin == d.Origin && o.Schema == d.Schema
}

// PublishStats digests the peer's local database and publishes one
// StatsDigest per schema (predicates of the form Schema#Attr; bare
// predicates have no schema key and are skipped) at the schema's key,
// atomically replacing this peer's previous digest there. It returns the
// number of digests published and the accumulated route cost. The
// per-schema publishes abort at the first one ctx cancels.
func (p *Peer) PublishStats(ctx context.Context) (int, pgrid.Route, error) {
	stats := p.node.DB().Stats()
	bySchema := map[string][]triple.PredicateStats{}
	for _, ps := range stats.Predicates {
		name, _, ok := schema.SplitPredicateURI(ps.Predicate)
		if !ok {
			continue
		}
		bySchema[name] = append(bySchema[name], ps)
	}
	names := make([]string, 0, len(bySchema))
	for name := range bySchema {
		names = append(names, name)
	}
	sort.Strings(names)
	var total pgrid.Route
	now := time.Now()
	for i, name := range names {
		d := StatsDigest{
			Origin:     string(p.node.ID()),
			Schema:     name,
			Published:  now,
			Predicates: bySchema[name],
		}
		route, err := p.node.Update(ctx, p.schemaKey(name), d)
		total.Add(route)
		if err != nil {
			return i, total, err
		}
	}
	return len(names), total, nil
}

// predEstimate is one predicate's cardinalities aggregated across the fresh
// digests of a schema. Distinct counts come from merging the digests'
// HyperLogLog sketches — union semantics, so a subject held by several
// peers (replicas, the 3-way index) is counted once; digests without
// sketches fall back to summing, an upper bound.
type predEstimate struct {
	Triples  int
	Subjects int
	Objects  int
}

// schemaEstimate is a peer's cached aggregate over one schema's published
// digests. digests == 0 marks a fetch that found no fresh digest — cached
// too, so a schema nobody instruments costs one overlay retrieve per TTL
// window, not one per query.
type schemaEstimate struct {
	fetchedAt time.Time
	digests   int
	triples   int
	preds     map[string]predEstimate
}

// schemaStats returns the aggregated statistics for a schema, fetching the
// published digests over the overlay at most once per TTL window per peer.
// Fetch route messages are charged to st so planned-vs-naive comparisons
// stay honest.
//
// The TTL gates two windows independently — digest age at fetch time and
// cache age at plan time — so a digest can steer plans for at most 2×TTL
// after publication (fetched just inside its window, cached for another).
// A failed overlay fetch is not cached: the next query retries instead of
// pinning a spurious "nobody published" verdict for a whole window.
func (p *Peer) schemaStats(ctx context.Context, name string, ttl time.Duration, st *ConjunctiveStats) *schemaEstimate {
	now := time.Now()
	p.statsMu.Lock()
	if e, ok := p.statsCache[name]; ok && now.Sub(e.fetchedAt) < ttl {
		p.statsMu.Unlock()
		return e
	}
	p.statsMu.Unlock()

	e := &schemaEstimate{fetchedAt: now, preds: map[string]predEstimate{}}
	values, route, err := p.node.Retrieve(ctx, p.schemaKey(name))
	st.RouteMessages += route.Messages
	st.StatsFetches++
	if err != nil {
		return e
	}
	type predAccum struct {
		triples   int
		subjSum   int // digests without sketches: exact counts, summed
		objSum    int
		subj, obj *triple.HLL
	}
	accum := map[string]*predAccum{}
	for _, v := range values {
		d, ok := v.(StatsDigest)
		if !ok || now.Sub(d.Published) > ttl {
			continue
		}
		e.digests++
		for _, ps := range d.Predicates {
			a := accum[ps.Predicate]
			if a == nil {
				a = &predAccum{}
				accum[ps.Predicate] = a
			}
			a.triples += ps.Triples
			if ps.SubjectSketch != nil {
				if a.subj == nil {
					a.subj = ps.SubjectSketch.Clone()
				} else {
					a.subj.Merge(ps.SubjectSketch)
				}
			} else {
				a.subjSum += ps.DistinctSubjects
			}
			if ps.ObjectSketch != nil {
				if a.obj == nil {
					a.obj = ps.ObjectSketch.Clone()
				} else {
					a.obj.Merge(ps.ObjectSketch)
				}
			} else {
				a.objSum += ps.DistinctObjects
			}
			e.triples += ps.Triples
		}
	}
	for pred, a := range accum {
		pe := predEstimate{Triples: a.triples, Subjects: a.subjSum, Objects: a.objSum}
		if a.subj != nil {
			pe.Subjects += a.subj.Estimate()
		}
		if a.obj != nil {
			pe.Objects += a.obj.Estimate()
		}
		e.preds[pred] = pe
	}
	p.statsMu.Lock()
	if p.statsCache == nil {
		p.statsCache = map[string]*schemaEstimate{}
	}
	p.statsCache[name] = e
	p.statsMu.Unlock()
	return e
}

// statsView is the read-only bundle of schema aggregates one conjunctive
// query plans against; it is built once per query and shared by the
// concurrent join components. nil (no constant predicate names a schema)
// estimates nothing.
type statsView struct {
	schemas map[string]*schemaEstimate
}

// statsViewFor resolves the schema aggregates for every schema a query's
// constant predicates name. Fresh digest counts are recorded in st so tests
// and experiments can observe whether statistics actually steered the plan.
func (p *Peer) statsViewFor(ctx context.Context, patterns []triple.Pattern, st *ConjunctiveStats) *statsView {
	var sv *statsView
	for _, q := range patterns {
		if q.P.Kind != triple.Constant {
			continue
		}
		name, _, ok := schema.SplitPredicateURI(q.P.Value)
		if !ok {
			continue
		}
		if sv == nil {
			sv = &statsView{schemas: map[string]*schemaEstimate{}}
		}
		if _, seen := sv.schemas[name]; seen {
			continue
		}
		e := p.schemaStats(ctx, name, DefaultStatsTTL, st)
		st.StatsDigests += e.digests
		sv.schemas[name] = e
	}
	return sv
}

// likeSelectivity is the assumed fraction of a predicate's extension a LIKE
// term retains — the classic textbook guess, used only to rank patterns.
const likeSelectivity = 0.1

// estimate returns the expected result cardinality of resolving q
// unconstrained over the overlay. ok=false when no fresh digest covers q's
// schema (or q's predicate is not a constant Schema#Attr) — the planner
// then falls back to the static position weights.
func (sv *statsView) estimate(q triple.Pattern) (float64, bool) {
	pe, ok := sv.predicateEstimate(q)
	if !ok {
		return 0, false
	}
	est := float64(pe.Triples)
	switch {
	case q.S.Kind == triple.Constant:
		est /= max(float64(pe.Subjects), 1)
	case q.O.Kind == triple.Constant:
		est /= max(float64(pe.Objects), 1)
	case q.S.Kind == triple.Like || q.O.Kind == triple.Like:
		est *= likeSelectivity
	}
	return est, true
}

// positionDistinct returns the aggregated distinct-value count at a
// subject/object position of q's predicate — the denominator of per-value
// pushdown and semi-join reduction estimates.
func (sv *statsView) positionDistinct(q triple.Pattern, pos triple.Position) (float64, bool) {
	pe, ok := sv.predicateEstimate(q)
	if !ok {
		return 0, false
	}
	switch pos {
	case triple.Subject:
		return max(float64(pe.Subjects), 1), true
	case triple.Object:
		return max(float64(pe.Objects), 1), true
	default:
		return 0, false
	}
}

// predicateEstimate looks up the aggregate for q's constant predicate.
// A fresh schema aggregate that lacks the predicate entirely reports zero
// cardinality — the statistics positively claim the extension is empty,
// which lets the planner resolve such patterns first and short-circuit.
func (sv *statsView) predicateEstimate(q triple.Pattern) (predEstimate, bool) {
	if sv == nil || q.P.Kind != triple.Constant {
		return predEstimate{}, false
	}
	name, _, ok := schema.SplitPredicateURI(q.P.Value)
	if !ok {
		return predEstimate{}, false
	}
	e := sv.schemas[name]
	if e == nil || e.digests == 0 {
		return predEstimate{}, false
	}
	return e.preds[q.P.Value], true
}

func init() {
	gob.Register(StatsDigest{})
}
