package mediation

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"gridvine/internal/keyspace"
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
	if _, err := issuer.InsertMappingContext(context.Background(), updated); err != nil {
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
	freshA, err := blockingSearchReformulated(issuer, qA, SearchOptions{MaxDepth: 3, Parallelism: 1})
	if err != nil {
		t.Fatalf("uncached query after replace: %v", err)
	}
	if !reflect.DeepEqual(rsA.Results, freshA.Results) {
		t.Fatalf("post-replace cached answer diverges from the uncached one\nuncached: %+v\ncached:   %+v", freshA.Results, rsA.Results)
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

// TestCompositeCutsMessages pins the cost claim at small scale: a warm
// closure answers a subject-bound reformulation in a fraction of the
// routed messages the per-query traversal spends on its mapping lookups.
func TestCompositeCutsMessages(t *testing.T) {
	_, peers := testNetwork(t, 24, 13)
	issuer := peers[2]
	buildChain(t, issuer, "S", 4, 2)

	q := triple.Pattern{S: triple.Const("urn:S:e0"), P: triple.Const("S0#a0"), O: triple.Var("o")}
	fresh, err := blockingSearchReformulated(issuer, q, SearchOptions{MaxDepth: 5, Parallelism: 1})
	if err != nil {
		t.Fatalf("uncached: %v", err)
	}
	warm := SearchOptions{MaxDepth: 5, Parallelism: 1, ComposeMappings: true}
	if _, err := blockingSearchReformulated(issuer, q, warm); err != nil {
		t.Fatalf("warming: %v", err)
	}
	comp, err := blockingSearchReformulated(issuer, q, warm)
	if err != nil {
		t.Fatalf("composite: %v", err)
	}
	if comp.Messages*3 > fresh.Messages {
		t.Errorf("warm closure spent %d messages, the traversal %d — want ≥ 3x reduction", comp.Messages, fresh.Messages)
	}
}

// TestReplicaAnsweredLookupIsNotCached: a closure assembled from a mapping
// list that a fallback replica served (the responsible peer the issuer tried
// first is down) answers its own query Degraded and is never installed —
// neither by the query path nor by WarmComposites — so no later query is
// served it without the flag. The issuer holds the data key itself, so only
// a mapping lookup can meet the failed peer, and the issuer newly suspecting
// that peer is the sign one did. Whether it does hangs on a routing
// tie-break, so the scenario runs over several overlays and must occur on
// both paths.
func TestReplicaAnsweredLookupIsNotCached(t *testing.T) {
	q := triple.Pattern{S: triple.Var("x"), P: triple.Const("S0#org"), O: triple.Const("aspergillus")}
	opts := SearchOptions{Parallelism: 1, ComposeMappings: true}
	met := map[bool]int{}
	for seed := int64(1); seed <= 8; seed++ {
		for _, warm := range []bool{true, false} {
			net, peers := chainNetwork(t, 3, seed)
			dataKey := keyspace.Hash("aspergillus", peers[0].depth)
			var issuer, victim *Peer
			for _, p := range peers {
				switch {
				case p.Node().Responsible(dataKey):
					issuer = p
				case p.Node().Responsible(p.schemaKey("S0")):
					victim = p
				}
			}
			if issuer == nil || victim == nil || issuer.Node().Responsible(issuer.schemaKey("S0")) {
				continue // this overlay keeps data and schema keys in one leaf
			}
			net.Fail(victim.Node().ID())

			var degraded bool
			if warm {
				built, err := issuer.WarmComposites(context.Background(), []string{q.P.Value}, opts)
				if err != nil {
					t.Fatalf("seed %d: warm: %v", seed, err)
				}
				degraded = built == 0
			} else {
				rs, err := blockingSearchReformulated(issuer, q, opts)
				if err != nil || len(rs.Results) != 3 {
					t.Fatalf("seed %d: %d rows, err %v — the replica holds every mapping", seed, len(rs.Results), err)
				}
				degraded = rs.Degraded
			}
			metFailed := issuer.Node().Suspected(victim.Node().ID())
			if metFailed {
				met[warm]++
			}
			if installed := issuer.ComposeStats().Entries > 0; degraded != metFailed || installed == metFailed {
				t.Errorf("seed %d warm=%v: lookup met the failed peer: %v, degraded: %v, closure installed: %v", seed, warm, metFailed, degraded, installed)
			}
			// The failed peer is suspected now and tried last: the next
			// traversal is clean, and only a clean one may be served again.
			for run := 0; run < 2; run++ {
				rs, err := blockingSearchReformulated(issuer, q, opts)
				if err != nil || len(rs.Results) != 3 || rs.Degraded {
					t.Fatalf("seed %d warm=%v run %d: %d rows, degraded %v, err %v", seed, warm, run, len(rs.Results), rs.Degraded, err)
				}
			}
			if st := issuer.ComposeStats(); st.Entries != 1 || st.Hits == 0 {
				t.Errorf("seed %d warm=%v: clean traversal was not installed and reused: %+v", seed, warm, st)
			}
		}
	}
	if met[true] == 0 || met[false] == 0 {
		t.Fatalf("lookups met the failed peer in %d warm-ups and %d queries: the scenario is not exercised", met[true], met[false])
	}
}
