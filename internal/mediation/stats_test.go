package mediation

import (
	"context"
	"fmt"
	"testing"
	"time"

	"gridvine/internal/triple"
)

// statsNetwork builds a workload with a skewed predicate mix under schema A
// and publishes every peer's digest.
func statsNetwork(t *testing.T, peers, entities int, publish bool) []*Peer {
	t.Helper()
	_, ps, err := buildPeers(peers, 41)
	if err != nil {
		t.Fatalf("buildPeers: %v", err)
	}
	for e := 0; e < entities; e++ {
		s := fmt.Sprintf("e%04d", e)
		for _, tr := range []triple.Triple{
			{Subject: s, Predicate: "A#hot", Object: fmt.Sprintf("v%d", e)},
			{Subject: s, Predicate: "A#grp", Object: fmt.Sprintf("g%d", e%5)},
		} {
			if _, err := ps[e%len(ps)].InsertTripleContext(context.Background(), tr); err != nil {
				t.Fatalf("InsertTriple: %v", err)
			}
		}
	}
	if publish {
		for _, p := range ps {
			if _, _, err := p.PublishStats(context.Background()); err != nil {
				t.Fatalf("PublishStats: %v", err)
			}
		}
	}
	return ps
}

func TestPublishAndAggregateStats(t *testing.T) {
	ps := statsNetwork(t, 16, 60, true)
	var st ConjunctiveStats
	e := ps[3].schemaStats(context.Background(), "A", DefaultStatsTTL, &st)
	if e.digests == 0 {
		t.Fatal("no digests aggregated")
	}
	if st.StatsFetches != 1 {
		t.Errorf("StatsFetches = %d, want 1", st.StatsFetches)
	}
	hot, ok := e.preds["A#hot"]
	if !ok {
		t.Fatalf("A#hot missing from aggregate %+v", e.preds)
	}
	grp := e.preds["A#grp"]
	// Aggregated counts are copy-counts across the 3-way index and
	// replicas — an upper bound — but relative cardinalities must hold:
	// both predicates have the same extension size, while grp has far
	// fewer distinct objects than hot.
	if hot.Triples < 60 || grp.Triples < 60 {
		t.Errorf("triples: hot %d grp %d, want ≥60 each", hot.Triples, grp.Triples)
	}
	if grp.Objects >= hot.Objects {
		t.Errorf("distinct objects: grp %d should be ≪ hot %d", grp.Objects, hot.Objects)
	}

	// Second consult within the TTL hits the cache: no further fetch.
	var st2 ConjunctiveStats
	ps[3].schemaStats(context.Background(), "A", DefaultStatsTTL, &st2)
	if st2.StatsFetches != 0 || st2.RouteMessages != 0 {
		t.Errorf("cached consult fetched again: %+v", st2)
	}
}

// TestRepublishSupersedes pins the atomic-replace contract at the digest
// level: a republishing peer never accumulates multiple digests.
func TestRepublishSupersedes(t *testing.T) {
	ps := statsNetwork(t, 16, 20, true)
	for i := 0; i < 3; i++ {
		if _, _, err := ps[2].PublishStats(context.Background()); err != nil {
			t.Fatalf("republish %d: %v", i, err)
		}
	}
	var st ConjunctiveStats
	e := ps[9].schemaStats(context.Background(), "A", DefaultStatsTTL, &st)
	origins := map[string]int{}
	values, _, err := ps[9].Node().Retrieve(context.Background(), ps[9].schemaKey("A"))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range values {
		if d, ok := v.(StatsDigest); ok {
			origins[d.Origin]++
		}
	}
	for origin, n := range origins {
		if n != 1 {
			t.Errorf("origin %s has %d digests, want 1", origin, n)
		}
	}
	if len(origins) != e.digests {
		t.Errorf("aggregated %d digests, stored %d origins", e.digests, len(origins))
	}
}

// TestPlannerUsesFreshDigests / degradation ladder: with fresh digests the
// planner runs cost-based (StatsDigests > 0); with expired digests or none
// at all it degrades to the static position weights (StatsDigests == 0).
// Results are identical to the naive evaluator in every regime.
func TestPlannerStalenessFallback(t *testing.T) {
	patterns := []triple.Pattern{
		{S: triple.Var("x"), P: triple.Const("A#hot"), O: triple.Var("v")},
		{S: triple.Var("x"), P: triple.Const("A#grp"), O: triple.Const("g1")},
	}
	check := func(t *testing.T, ps []*Peer, opts SearchOptions, wantDigests bool, wantFetches bool) ConjunctiveStats {
		t.Helper()
		issuer := ps[1]
		naive, _, err := issuer.SearchConjunctiveNaive(context.Background(), patterns, false, SearchOptions{Parallelism: 1})
		if err != nil {
			t.Fatalf("naive: %v", err)
		}
		got, stats, err := blockingConjunctiveSet(issuer, patterns, false, opts)
		if err != nil {
			t.Fatalf("planned: %v", err)
		}
		if !equalStrings(bindingKeys(got.ToBindings()), bindingKeys(naive)) {
			t.Error("planned diverged from naive")
		}
		if wantDigests != (stats.StatsDigests > 0) {
			t.Errorf("StatsDigests = %d, want >0: %v", stats.StatsDigests, wantDigests)
		}
		if wantFetches != (stats.StatsFetches > 0) {
			t.Errorf("StatsFetches = %d, want >0: %v", stats.StatsFetches, wantFetches)
		}
		return stats
	}

	t.Run("fresh", func(t *testing.T) {
		ps := statsNetwork(t, 16, 40, true)
		check(t, ps, SearchOptions{Parallelism: 1}, true, true)
	})
	t.Run("missing", func(t *testing.T) {
		ps := statsNetwork(t, 16, 40, false)
		check(t, ps, SearchOptions{Parallelism: 1}, false, true)
	})
	t.Run("expired", func(t *testing.T) {
		ps := statsNetwork(t, 16, 40, true)
		// Let the published instants age past a microscopic TTL: every
		// digest is stale, so the aggregate the planner would get is the
		// empty one of "missing".
		time.Sleep(2 * time.Millisecond)
		var st ConjunctiveStats
		if e := ps[1].schemaStats(context.Background(), "A", time.Millisecond, &st); e.digests != 0 || st.StatsFetches != 1 {
			t.Errorf("expired digests: %d aggregated over %d fetches, want none over one", e.digests, st.StatsFetches)
		}
	})
}

func TestStatsDigestReplaces(t *testing.T) {
	d := StatsDigest{Origin: "p1", Schema: "A"}
	if !d.Replaces(StatsDigest{Origin: "p1", Schema: "A", Published: time.Now()}) {
		t.Error("same origin+schema should replace")
	}
	if d.Replaces(StatsDigest{Origin: "p2", Schema: "A"}) {
		t.Error("other origin should not be replaced")
	}
	if d.Replaces(StatsDigest{Origin: "p1", Schema: "B"}) {
		t.Error("other schema should not be replaced")
	}
	if d.Replaces("unrelated") {
		t.Error("foreign type should not be replaced")
	}
}

// TestPlannerOrderingSharedSubjects is the sketch regression: replication
// and the 3-way index make peers' extensions overlap, so summing per-peer
// distinct counts inflates the per-value selectivity denominator and can
// invert the planner's pattern ordering. With merged HyperLogLog sketches
// the aggregate tracks the true distinct counts; digests without sketches
// keep the old summing fallback.
func TestPlannerOrderingSharedSubjects(t *testing.T) {
	_, ps, err := buildPeers(16, 43)
	if err != nil {
		t.Fatalf("buildPeers: %v", err)
	}
	issuer := ps[0]
	ctx := context.Background()

	mkSketch := func(prefix string, lo, hi int) *triple.HLL {
		h := &triple.HLL{}
		for i := lo; i < hi; i++ {
			h.Add(fmt.Sprintf("%s%04d", prefix, i))
		}
		return h
	}
	// Two origins publish digests for schema A:
	//  - A#shared: both hold the SAME 100 subjects (full replication).
	//    True distinct 100; the old sum said 200.
	//  - A#split: disjoint 50-subject halves. True distinct 100 = the sum.
	//  - A#legacy: no sketches; aggregation must fall back to summing.
	for i, origin := range []string{"fake-origin-1", "fake-origin-2"} {
		d := StatsDigest{Origin: origin, Schema: "A", Published: time.Now(), Predicates: []triple.PredicateStats{
			{Predicate: "A#shared", Triples: 100, DistinctSubjects: 100,
				SubjectSketch: mkSketch("s", 0, 100), ObjectSketch: mkSketch("so", 0, 100)},
			{Predicate: "A#split", Triples: 75, DistinctSubjects: 50,
				SubjectSketch: mkSketch("t", 50*i, 50*i+50), ObjectSketch: mkSketch("to", 50*i, 50*i+50)},
			{Predicate: "A#legacy", Triples: 10, DistinctSubjects: 40, DistinctObjects: 40},
		}}
		if _, err := issuer.Node().Update(ctx, issuer.schemaKey("A"), d); err != nil {
			t.Fatalf("publish digest: %v", err)
		}
	}

	var st ConjunctiveStats
	e := issuer.schemaStats(ctx, "A", DefaultStatsTTL, &st)
	if e.digests != 2 {
		t.Fatalf("aggregated %d digests, want 2", e.digests)
	}
	shared, split, legacy := e.preds["A#shared"], e.preds["A#split"], e.preds["A#legacy"]
	if shared.Subjects < 80 || shared.Subjects > 125 {
		t.Errorf("fully-replicated subjects aggregated to %d, want ≈100 (a sum would say 200)", shared.Subjects)
	}
	if split.Subjects < 80 || split.Subjects > 125 {
		t.Errorf("disjoint subjects aggregated to %d, want ≈100", split.Subjects)
	}
	if legacy.Subjects != 80 {
		t.Errorf("sketchless digests aggregated to %d, want the summed 80", legacy.Subjects)
	}

	// The ordering consequence, straight through the planner's estimate:
	// per-subject cardinality of A#shared is 200/100 = 2, of A#split
	// 150/100 = 1.5 — so a subject-bound A#split pattern must rank
	// cheaper. The old sum said shared = 200/200 = 1.0 and inverted it.
	sv := &statsView{schemas: map[string]*schemaEstimate{"A": e}}
	estShared, ok := sv.estimate(triple.Pattern{S: triple.Const("s0001"), P: triple.Const("A#shared"), O: triple.Var("o")})
	if !ok {
		t.Fatal("no estimate for A#shared")
	}
	estSplit, ok := sv.estimate(triple.Pattern{S: triple.Const("t0001"), P: triple.Const("A#split"), O: triple.Var("o")})
	if !ok {
		t.Fatal("no estimate for A#split")
	}
	if estShared <= estSplit {
		t.Errorf("ordering regression: shared %.2f ≤ split %.2f, want shared costlier", estShared, estSplit)
	}
}
