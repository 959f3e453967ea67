package mediation

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"gridvine/internal/schema"
	"gridvine/internal/simnet"
	"gridvine/internal/triple"
)

// conjNetwork builds the conjunctive-query test workload: entities under
// schema A (org/len, ref on even entities), a second schema B holding name
// triples for a disjoint entity set, and a bidirectional mapping
// A.org ↔ B.name so reformulating searches have real work.
func conjNetwork(t testing.TB, peers, entities int) (*simnet.Network, []*Peer) {
	t.Helper()
	net, ps, err := buildPeers(peers, 77)
	if err != nil {
		t.Fatalf("buildPeers: %v", err)
	}
	insert := func(s, p, o string) {
		t.Helper()
		if _, err := ps[len(s)%len(ps)].InsertTripleContext(context.Background(), triple.Triple{Subject: s, Predicate: p, Object: o}); err != nil {
			t.Fatalf("InsertTriple: %v", err)
		}
	}
	for e := 0; e < entities; e++ {
		s := fmt.Sprintf("s%03d", e)
		org := fmt.Sprintf("species-%d", e%6)
		if e%250 == 0 {
			org = "species-rare" // a handful of matches even at scale
		}
		insert(s, "A#org", org)
		insert(s, "A#len", fmt.Sprint(100+e))
		if e%2 == 0 {
			insert(s, "A#ref", fmt.Sprintf("r%d", e%4))
		}
	}
	for e := 0; e < entities/2; e++ {
		insert(fmt.Sprintf("t%03d", e), "B#name", fmt.Sprintf("species-%d", e%6))
	}
	m := schema.NewMapping("A", "B", schema.Equivalence, schema.Manual,
		[]schema.Correspondence{{SourceAttr: "org", TargetAttr: "name", Confidence: 1}})
	m.Bidirectional = true
	if _, err := ps[0].InsertMappingContext(context.Background(), m); err != nil {
		t.Fatalf("InsertMapping: %v", err)
	}
	return net, ps
}

// bindingKeys canonicalizes a binding list into a sorted, deduplicated set
// of strings, the comparison unit of the equivalence property.
func bindingKeys(bindings []triple.Bindings) []string {
	seen := map[string]bool{}
	var out []string
	for _, b := range bindings {
		vars := make([]string, 0, len(b))
		for v := range b {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		var sb strings.Builder
		for _, v := range vars {
			fmt.Fprintf(&sb, "%s=%s;", v, b[v])
		}
		if !seen[sb.String()] {
			seen[sb.String()] = true
			out = append(out, sb.String())
		}
	}
	sort.Strings(out)
	return out
}

func permutations(patterns []triple.Pattern) [][]triple.Pattern {
	if len(patterns) <= 1 {
		return [][]triple.Pattern{patterns}
	}
	var out [][]triple.Pattern
	for i := range patterns {
		rest := make([]triple.Pattern, 0, len(patterns)-1)
		rest = append(rest, patterns[:i]...)
		rest = append(rest, patterns[i+1:]...)
		for _, sub := range permutations(rest) {
			perm := append([]triple.Pattern{patterns[i]}, sub...)
			out = append(out, perm)
		}
	}
	return out
}

// TestPlannerMatchesNaive is the central equivalence property: for every
// tested query, every pattern order, with and without reformulation, at
// serial and default parallelism, the planned engine returns exactly the
// binding set of the naive left-to-right evaluator.
func TestPlannerMatchesNaive(t *testing.T) {
	_, ps := conjNetwork(t, 32, 36)
	issuer := ps[3]

	queries := map[string][]triple.Pattern{
		"two-pattern-join": {
			{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Const("species-3")},
			{S: triple.Var("x"), P: triple.Const("A#len"), O: triple.Var("len")},
		},
		"three-pattern-join": {
			{S: triple.Var("x"), P: triple.Const("A#len"), O: triple.Var("len")},
			{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Const("species-2")},
			{S: triple.Var("x"), P: triple.Const("A#ref"), O: triple.Var("r")},
		},
		"like-term": {
			{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.LikeTerm("%ies-1%")},
			{S: triple.Var("x"), P: triple.Const("A#len"), O: triple.Var("len")},
		},
		"disjoint-components": {
			{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Const("species-4")},
			{S: triple.Var("y"), P: triple.Const("A#ref"), O: triple.Const("r0")},
		},
		"empty-result": {
			{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Const("species-none")},
			{S: triple.Var("x"), P: triple.Const("A#len"), O: triple.Var("len")},
		},
		"var-predicate": {
			{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Const("species-1")},
			{S: triple.Var("x"), P: triple.Var("p"), O: triple.Const("r1")},
		},
	}

	for name, base := range queries {
		for pi, patterns := range permutations(base) {
			for _, reformulate := range []bool{false, true} {
				naive, _, err := issuer.SearchConjunctiveNaive(context.Background(), patterns, reformulate, SearchOptions{Parallelism: 1})
				if err != nil {
					t.Fatalf("%s/perm%d/ref=%v naive: %v", name, pi, reformulate, err)
				}
				want := bindingKeys(naive)
				for _, par := range []int{1, 0} {
					got, _, err := blockingConjunctive(issuer, patterns, reformulate, SearchOptions{Parallelism: par})
					if err != nil {
						t.Fatalf("%s/perm%d/ref=%v/par=%d planned: %v", name, pi, reformulate, par, err)
					}
					if keys := bindingKeys(got); !equalStrings(keys, want) {
						t.Errorf("%s/perm%d/ref=%v/par=%d:\nplanned = %v\nnaive   = %v",
							name, pi, reformulate, par, keys, want)
					}
				}
			}
		}
	}
}

func equalStrings(a, b []string) bool {
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

// TestPlannerMatchesNaiveSmallPushdownCap re-runs the core join query with
// caps that force both the pushdown path (cap above the bound-value count)
// and the unconstrained fallback (cap below it, and pushdown disabled).
func TestPlannerMatchesNaiveSmallPushdownCap(t *testing.T) {
	_, ps := conjNetwork(t, 32, 36)
	issuer := ps[5]
	patterns := []triple.Pattern{
		{S: triple.Var("x"), P: triple.Const("A#len"), O: triple.Var("len")},
		{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Const("species-3")},
	}
	naive, _, err := issuer.SearchConjunctiveNaive(context.Background(), patterns, false, SearchOptions{Parallelism: 1})
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	want := bindingKeys(naive)
	if len(want) == 0 {
		t.Fatal("workload yields no rows — test is vacuous")
	}
	for _, cap := range []int{1, 2, 100, -1} {
		got, _, err := blockingConjunctive(issuer, patterns, false, SearchOptions{Parallelism: 1, PushdownLimit: cap})
		if err != nil {
			t.Fatalf("cap=%d: %v", cap, err)
		}
		if keys := bindingKeys(got); !equalStrings(keys, want) {
			t.Errorf("cap=%d:\nplanned = %v\nnaive   = %v", cap, keys, want)
		}
	}
}

// TestPlannerPushesDownAndShipsFewerTriples pins the point of the engine:
// on a skewed selective join declared unselective-first, the planner pushes
// the rare matches down as point lookups and ships far fewer triples than
// the naive evaluator, while returning the same rows. It sends more (small)
// messages doing so; TestQueryMessagesAreSends pins how they are counted.
func TestPlannerPushesDownAndShipsFewerTriples(t *testing.T) {
	_, ps := conjNetwork(t, 32, 2000) // 2000 A#len triples; 8 rare matches
	issuer := ps[7]
	patterns := []triple.Pattern{
		{S: triple.Var("x"), P: triple.Const("A#len"), O: triple.Var("len")},
		{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Const("species-rare")},
	}
	naive, naiveStats, err := issuer.SearchConjunctiveNaive(context.Background(), patterns, false, SearchOptions{Parallelism: 1})
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	planned, plannedStats, err := blockingConjunctiveSet(issuer, patterns, false, SearchOptions{Parallelism: 1})
	if err != nil {
		t.Fatalf("planned: %v", err)
	}
	if !equalStrings(bindingKeys(naive), bindingKeys(planned.ToBindings())) {
		t.Fatal("planned and naive disagree")
	}
	if plannedStats.Pushdowns == 0 {
		t.Errorf("expected pushdown execution, stats = %+v", plannedStats)
	}
	if plannedStats.TriplesShipped*4 > naiveStats.TriplesShipped {
		t.Errorf("triples shipped: planned %d vs naive %d — expected ≥4x reduction",
			plannedStats.TriplesShipped, naiveStats.TriplesShipped)
	}
}

// TestPushdownRescuesUnroutablePattern: an all-variable pattern is not
// routable on its own (the naive evaluator fails), but once the shared
// variable is bound the planner ships it as point lookups.
func TestPushdownRescuesUnroutablePattern(t *testing.T) {
	_, ps := conjNetwork(t, 32, 24)
	issuer := ps[2]
	patterns := []triple.Pattern{
		{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Const("species-3")},
		{S: triple.Var("x"), P: triple.Var("p"), O: triple.Var("o")},
	}
	if _, _, err := issuer.SearchConjunctiveNaive(context.Background(), patterns, false, SearchOptions{Parallelism: 1}); err == nil {
		t.Fatal("naive evaluator should fail on the unroutable pattern")
	}
	got, stats, err := blockingConjunctive(issuer, patterns, false, SearchOptions{Parallelism: 1})
	if err != nil {
		t.Fatalf("planned: %v", err)
	}
	if stats == 0 || len(got) == 0 {
		t.Fatalf("planned returned no rows (messages=%d)", stats)
	}
	for _, b := range got {
		if b["p"] == "A#org" && b["o"] != "species-3" {
			t.Errorf("row %v violates the selective pattern", b)
		}
		if !strings.HasPrefix(b["x"], "s") {
			t.Errorf("unexpected subject %q", b["x"])
		}
	}
}

// TestEmptyComponentAnnihilatesUnroutable: a zero-row join component makes
// the whole conjunction empty, so the planner must return empty — not an
// error — even when a disjoint component holds an unroutable pattern, in
// every declaration order. A non-empty conjunction with an unroutable
// disjoint component still errors, exactly like the naive evaluator.
func TestEmptyComponentAnnihilatesUnroutable(t *testing.T) {
	_, ps := conjNetwork(t, 16, 12)
	empty := triple.Pattern{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Const("species-none")}
	unroutable := triple.Pattern{S: triple.Var("y"), P: triple.Var("p"), O: triple.Var("o")}

	naive, _, err := ps[1].SearchConjunctiveNaive(context.Background(), []triple.Pattern{empty, unroutable}, false, SearchOptions{Parallelism: 1})
	if err != nil || len(naive) != 0 {
		t.Fatalf("naive = %v, %v", naive, err)
	}
	for _, patterns := range [][]triple.Pattern{{empty, unroutable}, {unroutable, empty}} {
		got, _, err := blockingConjunctive(ps[1], patterns, false, SearchOptions{Parallelism: 1})
		if err != nil {
			t.Fatalf("planned(%v): %v", patterns, err)
		}
		if len(got) != 0 {
			t.Errorf("planned(%v) = %v, want empty", patterns, got)
		}
	}

	nonEmpty := triple.Pattern{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Const("species-1")}
	if _, _, err := blockingConjunctive(ps[1], []triple.Pattern{nonEmpty, unroutable}, false, SearchOptions{}); err == nil {
		t.Error("unroutable component of a non-empty conjunction should error")
	}
}

// TestConjunctiveRepeatedVariable checks repeated-variable consistency
// (same variable at two positions) against a manual expectation.
func TestConjunctiveRepeatedVariable(t *testing.T) {
	_, ps := conjNetwork(t, 16, 8)
	insert := func(s, p, o string) {
		if _, err := ps[0].InsertTripleContext(context.Background(), triple.Triple{Subject: s, Predicate: p, Object: o}); err != nil {
			t.Fatal(err)
		}
	}
	insert("loop1", "A#self", "loop1")
	insert("loop2", "A#self", "other")
	patterns := []triple.Pattern{
		{S: triple.Var("x"), P: triple.Const("A#self"), O: triple.Var("x")},
	}
	for _, f := range []func() ([]triple.Bindings, error){
		func() ([]triple.Bindings, error) {
			b, _, err := blockingConjunctive(ps[1], patterns, false, SearchOptions{})
			return b, err
		},
		func() ([]triple.Bindings, error) {
			b, _, err := ps[1].SearchConjunctiveNaive(context.Background(), patterns, false, SearchOptions{})
			return b, err
		},
	} {
		got, err := f()
		if err != nil {
			t.Fatalf("search: %v", err)
		}
		if len(got) != 1 || got[0]["x"] != "loop1" {
			t.Errorf("bindings = %v", got)
		}
	}
}

// TestConcurrentConjunctiveSearches exercises the full engine under -race:
// several issuers run overlapping conjunctive queries (planned and naive,
// with and without reformulation) against one network while writers insert.
func TestConcurrentConjunctiveSearches(t *testing.T) {
	_, ps := conjNetwork(t, 32, 30)
	patterns := []triple.Pattern{
		{S: triple.Var("x"), P: triple.Const("A#len"), O: triple.Var("len")},
		{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Const("species-1")},
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			issuer := ps[w%len(ps)]
			for i := 0; i < 8; i++ {
				reformulate := i%2 == 0
				if w%2 == 0 {
					if _, _, err := blockingConjunctive(issuer, patterns, reformulate, SearchOptions{Parallelism: 4}); err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
				} else {
					if _, _, err := issuer.SearchConjunctiveNaive(context.Background(), patterns, reformulate, SearchOptions{Parallelism: 4}); err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			tr := triple.Triple{
				Subject:   fmt.Sprintf("live%03d", i),
				Predicate: "A#org",
				Object:    fmt.Sprintf("species-%d", i%6),
			}
			if _, err := ps[i%len(ps)].InsertTripleContext(context.Background(), tr); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

func TestJoinComponents(t *testing.T) {
	patterns := []triple.Pattern{
		{S: triple.Var("x"), P: triple.Const("p1"), O: triple.Var("y")},
		{S: triple.Var("a"), P: triple.Const("p2"), O: triple.Var("b")},
		{S: triple.Var("y"), P: triple.Const("p3"), O: triple.Var("z")},
		{S: triple.Var("b"), P: triple.Const("p4"), O: triple.Const("v")},
	}
	comps := joinComponents(patterns)
	if len(comps) != 2 {
		t.Fatalf("components = %v", comps)
	}
	if !equalInts(comps[0], []int{0, 2}) || !equalInts(comps[1], []int{1, 3}) {
		t.Errorf("components = %v", comps)
	}
}

func equalInts(a, b []int) bool {
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

// TestQueryMessagesAreSends pins Cursor.Stats().Messages to the transport:
// for every request kind, with and without reformulation, the count a query
// reports is exactly the number of sends the network carried for it, however
// many triples or how large a filter those sends moved.
func TestQueryMessagesAreSends(t *testing.T) {
	net, ps := conjNetwork(t, 32, 2000)
	issuer := ps[7]
	rare := triple.Pattern{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Const("species-rare")}
	lenOf := triple.Pattern{S: triple.Var("x"), P: triple.Const("A#len"), O: triple.Var("len")}
	orgOf := triple.Pattern{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Var("o")}
	selective := []triple.Pattern{lenOf, rare}
	// The hot join binds x to every entity (and, reformulated, to every B
	// entity too), so its second pattern ships a Bloom filter and 2000 rows.
	hot := []triple.Pattern{orgOf, lenOf}
	serial := SearchOptions{Parallelism: 1}
	semiJoin := SearchOptions{Parallelism: 1, PushdownLimit: 4} // below the 8 rare matches
	pushdowns := func(s ConjunctiveStats) int { return s.Pushdowns }
	semiJoins := func(s ConjunctiveStats) int { return s.SemiJoins }
	cases := []struct {
		name  string
		req   Request
		fired func(ConjunctiveStats) int // the strategy the case exercises
	}{
		{"pattern", Request{Pattern: &rare, Options: serial}, nil},
		{"pattern reformulated", Request{Pattern: &rare, Reformulate: true, Options: serial}, nil},
		{"pushdown", Request{Patterns: selective, Options: serial}, pushdowns},
		{"pushdown reformulated", Request{Patterns: selective, Reformulate: true, Options: serial}, pushdowns},
		{"semi-join", Request{Patterns: selective, Options: semiJoin}, semiJoins},
		{"semi-join reformulated", Request{Patterns: hot, Reformulate: true, Options: semiJoin}, semiJoins},
		{"full-scan join", Request{Patterns: hot, Options: serial}, nil},
		{"rdql", Request{RDQL: `SELECT ?x, ?len WHERE (?x, <A#org>, "species-rare"), (?x, <A#len>, ?len)`, Options: serial}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			before := net.Stats().Messages
			cur, err := issuer.Query(ctx, tc.req)
			if err != nil {
				t.Fatalf("Query: %v", err)
			}
			rows := 0
			for {
				if _, ok := cur.Next(ctx); !ok {
					break
				}
				rows++
			}
			cur.Close()
			if err := cur.Err(); err != nil {
				t.Fatalf("cursor: %v", err)
			}
			st := cur.Stats()
			if rows == 0 || (tc.fired != nil && tc.fired(st.Conjunctive) == 0) {
				t.Fatalf("%d rows, stats %+v: the case exercises nothing", rows, st.Conjunctive)
			}
			if sent := net.Stats().Messages - before; st.Messages != sent {
				t.Errorf("Stats().Messages = %d, the network carried %d sends", st.Messages, sent)
			}
		})
	}
}
