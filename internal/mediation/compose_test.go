package mediation

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"gridvine/internal/compose"
	"gridvine/internal/schema"
	"gridvine/internal/triple"
)

// chainAttrs are the attributes of every schema in the composite test
// topologies; reformulation queries chase a0.
var chainAttrs = []string{"a0", "a1", "a2", "a3"}

// fullCorrs maps every chain attribute to itself.
func fullCorrs() []schema.Correspondence {
	out := make([]schema.Correspondence, 0, len(chainAttrs))
	for _, a := range chainAttrs {
		out = append(out, schema.Correspondence{SourceAttr: a, TargetAttr: a, Confidence: 1})
	}
	return out
}

// buildChain publishes a mapping chain prefix→0 … prefix→depth (full
// attribute coverage) with a lossy single-attribute branch schema hanging
// off every non-root chain schema, and one a0 triple per (schema, entity).
// It returns the chain mappings in order.
func buildChain(t *testing.T, issuer *Peer, prefix string, depth, entities int) []schema.Mapping {
	t.Helper()
	ctx := context.Background()
	b := &Batch{Parallelism: 1}
	name := func(i int) string { return fmt.Sprintf("%s%d", prefix, i) }
	var chain []schema.Mapping
	for i := 0; i <= depth; i++ {
		b.PublishSchema(schema.NewSchema(name(i), "test", chainAttrs...))
		if i < depth {
			m := schema.NewMapping(name(i), name(i+1), schema.Equivalence, schema.Manual, fullCorrs())
			chain = append(chain, m)
			b.PublishMapping(m)
		}
		if i > 0 {
			// Lossy branch: only a0 survives, so the composed chain into the
			// branch loses 3 of the 4 first-hop attributes.
			branch := name(i) + "L"
			b.PublishSchema(schema.NewSchema(branch, "test", "a0"))
			b.PublishMapping(schema.NewMapping(name(i), branch, schema.Equivalence, schema.Manual,
				[]schema.Correspondence{{SourceAttr: "a0", TargetAttr: "a0", Confidence: 1}}))
		}
	}
	for e := 0; e < entities; e++ {
		subj := fmt.Sprintf("urn:%s:e%d", prefix, e)
		for i := 0; i <= depth; i++ {
			b.InsertTriple(triple.Triple{Subject: subj, Predicate: name(i) + "#a0", Object: fmt.Sprintf("v-%s-%d", name(i), e)})
			if i > 0 {
				b.InsertTriple(triple.Triple{Subject: subj, Predicate: name(i) + "L#a0", Object: fmt.Sprintf("v-%sL-%d", name(i), e)})
			}
		}
	}
	rec, err := issuer.Write(ctx, b)
	if err != nil || rec.FirstErr() != nil {
		t.Fatalf("chain write: %v / %v", err, rec.FirstErr())
	}
	return chain
}

// TestCompositeMatchesBFSProperty is the equivalence property: composite
// reformulation returns binding sets identical to the BFS across chain
// depths × reformulation modes × parallelism 1/default, for subject-bound
// and predicate-only queries — and again after every mapping replace, which
// exercises incremental invalidation (a stale closure would surface as a
// result diff immediately).
func TestCompositeMatchesBFSProperty(t *testing.T) {
	for _, depth := range []int{1, 2, 3, 5} {
		_, peers := testNetwork(t, 24, int64(100+depth))
		issuer := peers[depth%len(peers)]
		chain := buildChain(t, issuer, "S", depth, 3)

		queries := []triple.Pattern{
			{S: triple.Const("urn:S:e1"), P: triple.Const("S0#a0"), O: triple.Var("o")},
			{S: triple.Var("s"), P: triple.Const("S0#a0"), O: triple.Var("o")},
		}
		check := func(phase string) {
			t.Helper()
			for _, mode := range []Mode{Iterative, Recursive} {
				for _, par := range []int{1, 0} {
					for qi, q := range queries {
						base := SearchOptions{Mode: mode, MaxDepth: depth + 1, Parallelism: par}
						bfs, err := blockingSearchReformulated(issuer, q, base)
						if err != nil {
							t.Fatalf("%s: BFS %v/par=%d/q%d: %v", phase, mode, par, qi, err)
						}
						comp := base
						comp.ComposeMappings = true
						got, err := blockingSearchReformulated(issuer, q, comp)
						if err != nil {
							t.Fatalf("%s: composite %v/par=%d/q%d: %v", phase, mode, par, qi, err)
						}
						if len(bfs.Results) == 0 {
							t.Fatalf("%s: BFS returned nothing for q%d", phase, qi)
						}
						if !reflect.DeepEqual(got.Results, bfs.Results) {
							t.Fatalf("%s: depth %d %v/par=%d/q%d: composite results diverge\nbfs:  %+v\ncomp: %+v",
								phase, depth, mode, par, qi, bfs.Results, got.Results)
						}
						if got.Reformulations != bfs.Reformulations {
							t.Errorf("%s: depth %d %v/q%d: reformulations %d != bfs %d",
								phase, depth, mode, qi, got.Reformulations, bfs.Reformulations)
						}
					}
				}
			}
		}
		check("initial")

		// Replace every chain mapping in turn (confidence refresh, same ID —
		// the self-organization round's republication) and re-check: each
		// replace must invalidate the closures through it, so composite
		// answers track the new graph state exactly.
		for i, old := range chain {
			updated := old
			updated.Confidence = 0.9 - 0.05*float64(i)
			if err := issuer.ReplaceMappingContext(context.Background(), old, updated); err != nil {
				t.Fatalf("replace %d: %v", i, err)
			}
			chain[i] = updated
			check(fmt.Sprintf("after replace %d", i))
		}
	}
}

// TestCompositeInvalidationIsIncremental pins the invalidation scope: a
// mapping replace drops exactly the closures whose chains pass through it —
// the disjoint component's closure keeps serving cache hits, and no stale
// composite is ever served for the changed component.
func TestCompositeInvalidationIsIncremental(t *testing.T) {
	_, peers := testNetwork(t, 24, 7)
	issuer := peers[3]
	chainA := buildChain(t, issuer, "A", 2, 2)
	buildChain(t, issuer, "B", 2, 2)

	qA := triple.Pattern{S: triple.Const("urn:A:e0"), P: triple.Const("A0#a0"), O: triple.Var("o")}
	qB := triple.Pattern{S: triple.Const("urn:B:e0"), P: triple.Const("B0#a0"), O: triple.Var("o")}
	opts := SearchOptions{MaxDepth: 3, Parallelism: 1, ComposeMappings: true}

	for _, q := range []triple.Pattern{qA, qB} {
		if _, err := blockingSearchReformulated(issuer, q, opts); err != nil {
			t.Fatalf("warming query: %v", err)
		}
	}
	warm := issuer.ComposeStats()
	if warm.Entries < 2 {
		t.Fatalf("expected two warm closures, stats %+v", warm)
	}

	// Deprecate A's deep mapping (A1→A2): the A closure must be rebuilt and
	// lose the A2 results; B's closure must survive untouched.
	old := chainA[1]
	updated := old
	updated.Deprecated = true
	if err := issuer.ReplaceMappingContext(context.Background(), old, updated); err != nil {
		t.Fatalf("replace: %v", err)
	}
	afterReplace := issuer.ComposeStats()
	if afterReplace.Invalidations == warm.Invalidations {
		t.Fatal("replace did not invalidate any closure")
	}

	rsA, err := blockingSearchReformulated(issuer, qA, opts)
	if err != nil {
		t.Fatalf("A query after replace: %v", err)
	}
	for _, r := range rsA.Results {
		if r.Triple.Predicate == "A2#a0" {
			t.Fatalf("stale composite served: deprecated chain still answers %+v", r)
		}
	}
	bfsA, err := blockingSearchReformulated(issuer, qA, SearchOptions{MaxDepth: 3, Parallelism: 1})
	if err != nil {
		t.Fatalf("BFS after replace: %v", err)
	}
	if !reflect.DeepEqual(rsA.Results, bfsA.Results) {
		t.Fatalf("post-replace composite diverges from BFS\nbfs:  %+v\ncomp: %+v", bfsA.Results, rsA.Results)
	}

	// B's closure was untouched: the next B query is a pure cache hit.
	before := issuer.ComposeStats()
	if _, err := blockingSearchReformulated(issuer, qB, opts); err != nil {
		t.Fatalf("B query: %v", err)
	}
	after := issuer.ComposeStats()
	if after.Hits != before.Hits+1 || after.Builds != before.Builds {
		t.Errorf("disjoint closure was not preserved: before %+v after %+v", before, after)
	}
}

// TestCompositeLossPruning checks the recall/fan-out trade: pruning drops
// exactly the lossy-branch answers and nothing else, and spends no more
// messages than the unpruned composite.
func TestCompositeLossPruning(t *testing.T) {
	_, peers := testNetwork(t, 24, 11)
	issuer := peers[5]
	buildChain(t, issuer, "S", 3, 2)

	q := triple.Pattern{S: triple.Const("urn:S:e0"), P: triple.Const("S0#a0"), O: triple.Var("o")}
	full, err := blockingSearchReformulated(issuer, q, SearchOptions{MaxDepth: 4, Parallelism: 1, ComposeMappings: true})
	if err != nil {
		t.Fatalf("unpruned: %v", err)
	}
	pruned, err := blockingSearchReformulated(issuer, q, SearchOptions{MaxDepth: 4, Parallelism: 1, ComposeMappings: true, MaxLoss: 0.5})
	if err != nil {
		t.Fatalf("pruned: %v", err)
	}
	if len(pruned.Results) >= len(full.Results) {
		t.Fatalf("pruning dropped nothing: %d vs %d", len(pruned.Results), len(full.Results))
	}
	for _, r := range pruned.Results {
		name, _, _ := schema.SplitPredicateURI(r.Triple.Predicate)
		if len(name) > 0 && name[len(name)-1] == 'L' {
			t.Errorf("lossy-branch result survived pruning: %+v", r)
		}
	}
	// Every chain (non-branch) answer survives.
	want := 0
	for _, r := range full.Results {
		name, _, _ := schema.SplitPredicateURI(r.Triple.Predicate)
		if len(name) == 0 || name[len(name)-1] != 'L' {
			want++
		}
	}
	if len(pruned.Results) != want {
		t.Errorf("pruned kept %d results, want the %d chain answers", len(pruned.Results), want)
	}
}

// TestCompositeCutsMessages pins the cost claim at small scale: a warmed
// composite query answers a subject-bound reformulation in a fraction of
// the BFS's routed messages.
func TestCompositeCutsMessages(t *testing.T) {
	_, peers := testNetwork(t, 24, 13)
	issuer := peers[2]
	buildChain(t, issuer, "S", 4, 2)

	q := triple.Pattern{S: triple.Const("urn:S:e0"), P: triple.Const("S0#a0"), O: triple.Var("o")}
	bfs, err := blockingSearchReformulated(issuer, q, SearchOptions{MaxDepth: 5, Parallelism: 1})
	if err != nil {
		t.Fatalf("BFS: %v", err)
	}
	warm := SearchOptions{MaxDepth: 5, Parallelism: 1, ComposeMappings: true}
	if _, err := blockingSearchReformulated(issuer, q, warm); err != nil {
		t.Fatalf("warming: %v", err)
	}
	comp, err := blockingSearchReformulated(issuer, q, warm)
	if err != nil {
		t.Fatalf("composite: %v", err)
	}
	if comp.Messages*3 > bfs.Messages {
		t.Errorf("warmed composite spent %d messages, BFS %d — want ≥ 3x reduction", comp.Messages, bfs.Messages)
	}
}

// TestIterativeBFSEmitsBuildTargets asserts "one rule" end to end: on a
// graph with a cycle, a chord, a bidirectional and a sub-threshold mapping,
// the iterative BFS emits its (pattern, MappingPath, Confidence) sequence in
// exactly the order, and with exactly the provenance, of the closure Build
// computes for the same predicate. Every (schema, attribute) holds one
// matching triple, so each reformulated variant emits exactly one row.
func TestIterativeBFSEmitsBuildTargets(t *testing.T) {
	_, peers := testNetwork(t, 24, 31)
	issuer := peers[5]
	ctx := context.Background()
	mapping := func(src, tgt string, conf float64, corrs ...schema.Correspondence) schema.Mapping {
		m := schema.NewMapping(src, tgt, schema.Equivalence, schema.Manual, corrs)
		m.Confidence = conf
		return m
	}
	same := schema.Correspondence{SourceAttr: "a0", TargetAttr: "a0", Confidence: 1}
	back := mapping("G2", "G0", 1, same) // closes the cycle G0→G1→G2→G0
	both := mapping("G3", "G1", 0.8, schema.Correspondence{SourceAttr: "a1", TargetAttr: "a0", Confidence: 1})
	both.Bidirectional = true // reached from G1 through its reverse
	b := &Batch{Parallelism: 1}
	for _, m := range []schema.Mapping{
		mapping("G0", "G1", 0.9, same),
		mapping("G1", "G2", 0.9, same),
		back,
		mapping("G0", "G2", 0.7, same), // chord: G2 is claimed in wave 1, not via G1
		both,
		mapping("G2", "G4", 0.05, same), // below the gate once chained
	} {
		b.PublishMapping(m)
	}
	for i := 0; i < 5; i++ {
		for _, attr := range []string{"a0", "a1"} {
			b.InsertTriple(triple.Triple{Subject: fmt.Sprintf("urn:g:%d:%s", i, attr), Predicate: fmt.Sprintf("G%d#%s", i, attr), Object: "v"})
		}
	}
	if rec, err := issuer.Write(ctx, b); err != nil || rec.FirstErr() != nil {
		t.Fatalf("write: %v / %v", err, rec.FirstErr())
	}

	q := triple.Pattern{S: triple.Var("s"), P: triple.Const("G0#a0"), O: triple.Const("v")}
	opts := SearchOptions{Parallelism: 1}
	cur, err := issuer.Query(ctx, Request{Pattern: &q, Reformulate: true, Options: opts})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	var emitted []compose.Step
	for row, ok := cur.Next(ctx); ok; row, ok = cur.Next(ctx) {
		emitted = append(emitted, compose.Step{Predicate: row.Result.Pattern.P.Value, Path: row.Result.MappingPath, Confidence: row.Result.Confidence})
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("cursor: %v", err)
	}

	entry, err := compose.Build(ctx, issuer.mappingSource(), q.P.Value, composeOptions(opts.withDefaults()))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	want := []compose.Step{{Predicate: q.P.Value, Confidence: 1}}
	for _, tg := range entry.Targets {
		want = append(want, compose.Step{Predicate: tg.Predicate, Path: tg.Path, Confidence: tg.Confidence})
	}
	if len(want) != 4 { // root, G1, G2 (by the chord), G3 (by the reverse); G4 gated out
		t.Fatalf("closure = %+v — the graph no longer exercises the rule", want)
	}
	if !reflect.DeepEqual(emitted, want) {
		t.Errorf("BFS emission diverges from the closure:\nbfs   %+v\nbuild %+v", emitted, want)
	}
	if got := cur.Stats().Reformulations; got != entry.Reformulations {
		t.Errorf("reformulations: bfs %d, build %d", got, entry.Reformulations)
	}
}
