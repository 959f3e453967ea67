package mediation

import (
	"context"
	"fmt"
	"testing"

	"gridvine/internal/triple"
)

// TestSemiJoinEquivalence is the central three-way property of the
// strategies: for every pattern order, with and without reformulation, at
// serial and default parallelism, the semi-join engine (cap forced low so
// over-cap patterns ship filters) and the pushdown engine (cap forced high
// so they ship point lookups) both return exactly the naive evaluator's
// binding set.
func TestSemiJoinEquivalence(t *testing.T) {
	_, ps := conjNetwork(t, 32, 60)
	issuer := ps[4]

	queries := map[string][]triple.Pattern{
		"hot-join": {
			{S: triple.Var("x"), P: triple.Const("A#len"), O: triple.Var("len")},
			{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Const("species-2")},
		},
		"three-way": {
			{S: triple.Var("x"), P: triple.Const("A#len"), O: triple.Var("len")},
			{S: triple.Var("x"), P: triple.Const("A#ref"), O: triple.Var("r")},
			{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Const("species-1")},
		},
		"var-predicate": {
			{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Const("species-3")},
			{S: triple.Var("x"), P: triple.Var("p"), O: triple.Var("o")},
		},
	}
	configs := map[string]SearchOptions{
		"semi-join": {PushdownLimit: 2},      // fan-outs above 2 ship filters
		"pushdown":  {PushdownLimit: 100000}, // everything fits under the cap
	}

	for name, base := range queries {
		for pi, patterns := range permutations(base) {
			for _, reformulate := range []bool{false, true} {
				naive, _, err := issuer.SearchConjunctiveNaive(context.Background(), patterns, reformulate, SearchOptions{Parallelism: 1})
				naiveErr := err != nil
				var want []string
				if !naiveErr {
					want = bindingKeys(naive)
				}
				for cfg, opts := range configs {
					for _, par := range []int{1, 0} {
						opts.Parallelism = par
						got, _, err := blockingConjunctive(issuer, patterns, reformulate, opts)
						if naiveErr {
							// The naive evaluator rejects unroutable
							// patterns it reaches; the planner may still
							// answer (pushdown rescue) — only require
							// success, not equality.
							if err != nil {
								t.Errorf("%s/%s/perm%d/ref=%v/par=%d: %v", name, cfg, pi, reformulate, par, err)
							}
							continue
						}
						if err != nil {
							t.Fatalf("%s/%s/perm%d/ref=%v/par=%d: %v", name, cfg, pi, reformulate, par, err)
						}
						if keys := bindingKeys(got); !equalStrings(keys, want) {
							t.Errorf("%s/%s/perm%d/ref=%v/par=%d:\nplanned = %v\nnaive   = %v",
								name, cfg, pi, reformulate, par, keys, want)
						}
					}
				}
			}
		}
	}
}

// TestSemiJoinShipsFewerTriples pins the point of the strategy: on a
// bound-value fan-out above the pushdown cap, semi-join shipping moves far
// fewer triples than the naive reference, which ships every pattern's full
// extension, while returning identical rows.
func TestSemiJoinShipsFewerTriples(t *testing.T) {
	const entities = 2000
	_, ps := conjNetwork(t, 32, entities) // species-rare matches 8 of 2000
	issuer := ps[6]
	patterns := []triple.Pattern{
		{S: triple.Var("x"), P: triple.Const("A#len"), O: triple.Var("len")},
		{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Const("species-rare")},
	}
	// Cap below the 8-value fan-out, so the hot pattern goes semi-join
	// instead of pushdown.
	opts := SearchOptions{Parallelism: 1, PushdownLimit: 4}

	naive, naiveStats, err := issuer.SearchConjunctiveNaive(context.Background(), patterns, false, opts)
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	if naiveStats.SemiJoins != 0 || naiveStats.TriplesShipped < entities {
		t.Fatalf("naive should ship the hot pattern whole, stats = %+v", naiveStats)
	}

	sj, sjStats, err := blockingConjunctiveSet(issuer, patterns, false, opts)
	if err != nil {
		t.Fatalf("semi-join: %v", err)
	}
	if sjStats.SemiJoins == 0 {
		t.Fatalf("no semi-join fired over a %d-value fan-out, stats = %+v", len(naive), sjStats)
	}
	if !equalStrings(bindingKeys(sj.ToBindings()), bindingKeys(naive)) {
		t.Fatal("semi-join and naive disagree")
	}
	if sjStats.TriplesShipped*4 > naiveStats.TriplesShipped {
		t.Errorf("shipped: semi-join %d vs naive %d — expected ≥4x reduction",
			sjStats.TriplesShipped, naiveStats.TriplesShipped)
	}
}

// TestMultiVariablePushdown: when two shared variables are bound, the
// engine substitutes both — one lookup per distinct joint tuple — and still
// matches the naive evaluator.
func TestMultiVariablePushdown(t *testing.T) {
	_, ps := conjNetwork(t, 32, 24)
	// A#echo duplicates the A#len value under a second predicate, so the
	// second pattern shares both x and len with the first.
	for e := 0; e < 24; e += 2 {
		tr := triple.Triple{Subject: fmt.Sprintf("s%03d", e), Predicate: "A#echo", Object: fmt.Sprint(100 + e)}
		if _, err := ps[0].InsertTripleContext(context.Background(), tr); err != nil {
			t.Fatal(err)
		}
	}
	issuer := ps[3]
	patterns := []triple.Pattern{
		{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Const("species-2")},
		{S: triple.Var("x"), P: triple.Const("A#len"), O: triple.Var("len")},
		{S: triple.Var("x"), P: triple.Const("A#echo"), O: triple.Var("len")},
	}
	for _, patterns := range permutations(patterns) {
		naive, _, err := issuer.SearchConjunctiveNaive(context.Background(), patterns, false, SearchOptions{Parallelism: 1})
		if err != nil {
			t.Fatalf("naive: %v", err)
		}
		got, stats, err := blockingConjunctiveSet(issuer, patterns, false, SearchOptions{Parallelism: 1})
		if err != nil {
			t.Fatalf("planned: %v", err)
		}
		if !equalStrings(bindingKeys(got.ToBindings()), bindingKeys(naive)) {
			t.Errorf("multi-var pushdown diverged from naive (stats %+v)", stats)
		}
		if stats.Pushdowns == 0 {
			t.Errorf("expected pushdown execution, stats = %+v", stats)
		}
	}
}

// TestSemiJoinWithReformulation: filters ride reformulated patterns too —
// results across a mapping must match the naive reformulating evaluator
// even when the engine semi-joins.
func TestSemiJoinWithReformulation(t *testing.T) {
	_, ps := conjNetwork(t, 32, 48)
	issuer := ps[2]
	patterns := []triple.Pattern{
		{S: triple.Var("x"), P: triple.Const("A#len"), O: triple.Var("len")},
		{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Var("org")},
	}
	naive, _, err := issuer.SearchConjunctiveNaive(context.Background(), patterns, true, SearchOptions{Parallelism: 1})
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	got, stats, err := blockingConjunctiveSet(issuer, patterns, true, SearchOptions{Parallelism: 1, PushdownLimit: 2})
	if err != nil {
		t.Fatalf("semi-join: %v", err)
	}
	if stats.SemiJoins == 0 {
		t.Errorf("no semi-join fired, stats = %+v", stats)
	}
	if !equalStrings(bindingKeys(got.ToBindings()), bindingKeys(naive)) {
		t.Error("semi-join under reformulation diverged from naive")
	}
}

func TestNewVarFilterEncodingChoice(t *testing.T) {
	small := NewVarFilter("x", []string{"a", "b"})
	if small.Bloom != nil || len(small.Values) != 2 {
		t.Errorf("tiny set should ship exact: %+v", small)
	}
	vals := make([]string, 4000)
	for i := range vals {
		vals[i] = fmt.Sprintf("some-rather-long-value-%06d", i)
	}
	big := NewVarFilter("x", vals)
	if big.Bloom == nil {
		t.Fatal("large set should ship a Bloom filter")
	}
	for _, v := range vals {
		if !big.Accepts(v) {
			t.Fatalf("false negative for %q", v)
		}
	}
	if small.Accepts("zz") {
		t.Error("exact filter accepted a non-member")
	}
	if !small.Accepts("a") || !small.Accepts("b") {
		t.Error("exact filter rejected a member")
	}
	exact := 0
	for _, v := range vals {
		exact += len(v) + 1
	}
	if big.Bloom.SizeBytes()*10 > exact {
		t.Errorf("Bloom filter of %d B should be far below the exact list's %d B", big.Bloom.SizeBytes(), exact)
	}
}

func TestFilterTriples(t *testing.T) {
	q := triple.Pattern{S: triple.Var("x"), P: triple.Const("p"), O: triple.Var("y")}
	ts := []triple.Triple{
		{Subject: "s1", Predicate: "p", Object: "o1"},
		{Subject: "s2", Predicate: "p", Object: "o2"},
		{Subject: "s3", Predicate: "p", Object: "o3"},
	}
	got := filterTriples(q, []VarFilter{NewVarFilter("x", []string{"s1", "s3"})}, append([]triple.Triple(nil), ts...))
	if len(got) != 2 || got[0].Subject != "s1" || got[1].Subject != "s3" {
		t.Errorf("filtered = %v", got)
	}
	// Two filters conjoin.
	got = filterTriples(q, []VarFilter{
		NewVarFilter("x", []string{"s1", "s3"}),
		NewVarFilter("y", []string{"o3"}),
	}, append([]triple.Triple(nil), ts...))
	if len(got) != 1 || got[0].Subject != "s3" {
		t.Errorf("conjoined = %v", got)
	}
	// Filters on absent variables are ignored.
	got = filterTriples(q, []VarFilter{NewVarFilter("zz", []string{"nope"})}, append([]triple.Triple(nil), ts...))
	if len(got) != 3 {
		t.Errorf("absent-var filter dropped rows: %v", got)
	}
	// Repeated variable: both positions must pass.
	loop := triple.Pattern{S: triple.Var("x"), P: triple.Const("p"), O: triple.Var("x")}
	loops := []triple.Triple{
		{Subject: "a", Predicate: "p", Object: "a"},
		{Subject: "b", Predicate: "p", Object: "c"},
	}
	got = filterTriples(loop, []VarFilter{NewVarFilter("x", []string{"a", "b"})}, append([]triple.Triple(nil), loops...))
	if len(got) != 1 || got[0].Subject != "a" {
		t.Errorf("repeated-variable filter = %v", got)
	}
}
