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

// The reformulation oracle. It shares no code with the engines under test:
// the traversal is the plain FIFO enumerator of internal/compose's
// TestBuildMatchesReferenceClosure — one predicate at a time, never
// revisited — over mapping lists read straight from the overlay, and the
// answer is one non-reformulating Query per reached predicate.

// refVariant is one predicate the oracle reaches, with its provenance.
type refVariant struct {
	pred string
	path []string
	conf float64
}

func oracleVariants(t *testing.T, p *Peer, root string, maxDepth int, minConf float64) []refVariant {
	t.Helper()
	type item struct {
		schemaName, attr string
		path             []string
		conf             float64
	}
	s, a, _ := schema.SplitPredicateURI(root)
	seen := map[string]bool{root: true}
	queue := []item{{schemaName: s, attr: a, conf: 1}}
	out := []refVariant{{pred: root, conf: 1}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if len(it.path) >= maxDepth {
			continue
		}
		mappings, _, err := p.MappingsFrom(context.Background(), it.schemaName)
		if err != nil {
			t.Fatalf("oracle: mappings of %s: %v", it.schemaName, err)
		}
		for _, m := range mappings {
			for _, c := range m.Correspondences {
				if c.SourceAttr != it.attr {
					continue
				}
				pred := m.Target + "#" + c.TargetAttr
				if conf := it.conf * m.Confidence; conf >= minConf && !seen[pred] {
					seen[pred] = true
					path := append(append([]string{}, it.path...), m.ID)
					out = append(out, refVariant{pred: pred, path: path, conf: conf})
					queue = append(queue, item{schemaName: m.Target, attr: c.TargetAttr, path: path, conf: conf})
				}
				break // only the first correspondence of an attribute translates it
			}
		}
	}
	return out
}

// oracleRows is the raw (undeduplicated) row stream reformulating q must
// produce: every variant's plain answer, in the order the variants are
// reached.
func oracleRows(t *testing.T, p *Peer, q triple.Pattern, maxDepth int) (rows []Result, reformulations int) {
	t.Helper()
	variants := oracleVariants(t, p, q.P.Value, maxDepth, SearchOptions{}.withDefaults().MinConfidence)
	for _, v := range variants {
		pattern := q.WithTerm(triple.Predicate, triple.Const(v.pred))
		rs, err := blockingSearchFor(p, pattern)
		if err != nil {
			t.Fatalf("oracle: plain query %v: %v", pattern, err)
		}
		for _, r := range rs.Results {
			rows = append(rows, Result{Triple: r.Triple, Provenance: &Provenance{Pattern: pattern, MappingPath: v.path, Confidence: v.conf}})
		}
	}
	return rows, len(variants) - 1
}

// streamRows drains a reformulating query's cursor without aggregation.
func streamRows(t *testing.T, p *Peer, q triple.Pattern, limit int, opts SearchOptions) ([]Result, QueryStats) {
	t.Helper()
	ctx := context.Background()
	cur, err := p.Query(ctx, Request{Pattern: &q, Reformulate: true, Limit: limit, Options: opts})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	var rows []Result
	for row, ok := cur.Next(ctx); ok; row, ok = cur.Next(ctx) {
		rows = append(rows, *row.Result)
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("cursor: %v", err)
	}
	return rows, cur.Stats()
}

// checkAgainstOracle compares the engine with the oracle row for row, at
// serial and default width: through the closure cache as the previous phase
// left it (after a mapping replace, a closure the replace failed to
// invalidate shows here), without the cache, through a cold closure (built
// by the query itself) and through a warm one.
func checkAgainstOracle(t *testing.T, phase string, issuer *Peer, q triple.Pattern, maxDepth int) []Result {
	t.Helper()
	want, reforms := oracleRows(t, issuer, q, maxDepth)
	if reforms == 0 || len(want) < 2 {
		t.Fatalf("%s: oracle reached %d variants, %d rows for %v — nothing to compare", phase, reforms, len(want), q)
	}
	rootSchema, _, _ := schema.SplitPredicateURI(q.P.Value)
	for _, par := range []int{1, 0} {
		run := func(name string, opts SearchOptions) {
			t.Helper()
			got, st := streamRows(t, issuer, q, 0, opts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %v par=%d %s: rows diverge from the oracle\noracle %+v\nengine %+v", phase, q, par, name, want, got)
			}
			if st.Reformulations != reforms {
				t.Errorf("%s: %v par=%d %s: %d reformulations, oracle %d", phase, q, par, name, st.Reformulations, reforms)
			}
		}
		opts := SearchOptions{MaxDepth: maxDepth, Parallelism: par}
		cached := opts
		cached.ComposeMappings = true
		run("closure as left", cached)
		run("uncached", opts)
		issuer.composites.Invalidate(rootSchema)
		before := issuer.ComposeStats()
		run("cold closure", cached)
		run("warm closure", cached)
		if after := issuer.ComposeStats(); after.Builds != before.Builds+1 || after.Hits != before.Hits+1 {
			t.Errorf("%s: %v par=%d: cold and warm runs were not one build and one hit: %+v → %+v", phase, q, par, before, after)
		}
	}
	return want
}

// queryShapes are the three routable shapes of a reformulating pattern:
// subject-, object- and predicate-keyed. common is an object value every
// schema of the topology holds for its a0 attribute.
func queryShapes(pred, subject, common string) []triple.Pattern {
	return []triple.Pattern{
		{S: triple.Const(subject), P: triple.Const(pred), O: triple.Var("o")},
		{S: triple.Var("s"), P: triple.Const(pred), O: triple.Const(common)},
		{S: triple.Var("s"), P: triple.Const(pred), O: triple.Var("o")},
	}
}

// TestEngineMatchesOracleOnChains is the equivalence property: over chains
// of every depth (with a lossy branch per schema), every query shape returns
// exactly the oracle's rows in the oracle's order — uncached, cold and warm,
// serial and parallel — and all of it holds again after every mapping
// replace (a stale closure would surface as a row diff immediately).
func TestEngineMatchesOracleOnChains(t *testing.T) {
	for _, depth := range []int{1, 2, 3, 5} {
		_, peers := testNetwork(t, 24, int64(100+depth))
		issuer := peers[depth%len(peers)]
		chain := buildChain(t, issuer, "S", depth, 3)
		common := &Batch{Parallelism: 1}
		for i := 0; i <= depth; i++ {
			common.InsertTriple(triple.Triple{Subject: fmt.Sprintf("urn:S:c%d", i), Predicate: fmt.Sprintf("S%d#a0", i), Object: "shared"})
		}
		if rec, err := issuer.Write(context.Background(), common); err != nil || rec.FirstErr() != nil {
			t.Fatalf("write: %v / %v", err, rec.FirstErr())
		}

		check := func(phase string) {
			t.Helper()
			for _, q := range queryShapes("S0#a0", "urn:S:e1", "shared") {
				checkAgainstOracle(t, phase, issuer, q, depth+1)
			}
		}
		check("initial")

		// Replace every chain mapping in turn (confidence refresh, same ID —
		// the self-organization round's republication): each replace must
		// invalidate the closures through it.
		for i, old := range chain {
			updated := old
			updated.Confidence = 0.9 - 0.05*float64(i)
			if _, err := issuer.InsertMappingContext(context.Background(), updated); err != nil {
				t.Fatalf("replace %d: %v", i, err)
			}
			chain[i] = updated
			check(fmt.Sprintf("after replace %d", i))
		}
	}
}

// TestEngineMatchesOracleOnKnot runs the same comparison on a graph with a
// cycle, a chord, a bidirectional and a sub-threshold mapping, where claim
// order decides which path a predicate is reported under.
func TestEngineMatchesOracleOnKnot(t *testing.T) {
	_, peers := testNetwork(t, 24, 31)
	issuer := peers[5]
	mapping := func(src, tgt string, conf float64, corrs ...schema.Correspondence) schema.Mapping {
		m := schema.NewMapping(src, tgt, schema.Equivalence, schema.Manual, corrs)
		m.Confidence = conf
		return m
	}
	same := schema.Correspondence{SourceAttr: "a0", TargetAttr: "a0", Confidence: 1}
	both := mapping("G3", "G1", 0.8, schema.Correspondence{SourceAttr: "a1", TargetAttr: "a0", Confidence: 1})
	both.Bidirectional = true // reached from G1 through its reverse
	b := &Batch{Parallelism: 1}
	for _, m := range []schema.Mapping{
		mapping("G0", "G1", 0.9, same),
		mapping("G1", "G2", 0.9, same),
		mapping("G2", "G0", 1, same),   // closes the cycle G0→G1→G2→G0
		mapping("G0", "G2", 0.7, same), // chord: G2 is claimed in wave 1, not via G1
		both,
		mapping("G2", "G4", 0.05, same), // below the gate once chained
	} {
		b.PublishMapping(m)
	}
	for i := 0; i < 5; i++ {
		for _, attr := range []string{"a0", "a1"} {
			b.InsertTriple(triple.Triple{Subject: fmt.Sprintf("urn:g:%d:%s", i, attr), Predicate: fmt.Sprintf("G%d#%s", i, attr), Object: "v"})
			b.InsertTriple(triple.Triple{Subject: "urn:g:all", Predicate: fmt.Sprintf("G%d#%s", i, attr), Object: fmt.Sprintf("w%d", i)})
		}
	}
	if rec, err := issuer.Write(context.Background(), b); err != nil || rec.FirstErr() != nil {
		t.Fatalf("write: %v / %v", err, rec.FirstErr())
	}
	for _, q := range queryShapes("G0#a0", "urn:g:all", "v") {
		rows := checkAgainstOracle(t, "knot", issuer, q, SearchOptions{}.withDefaults().MaxDepth)
		reached := map[string]bool{}
		for _, r := range rows {
			reached[r.Pattern.P.Value] = true
		}
		// root, G1, G2 (by the chord), G3 (by the reverse); G4 gated out.
		if len(reached) != 4 || reached["G4#a0"] || !reached["G3#a1"] {
			t.Fatalf("oracle reached %v — the graph no longer exercises the rule", reached)
		}
	}
}

// TestReformulationMessageCounts pins what a reformulated query spends, op
// by op. The overlay has two leaves of two replicas, so every routed
// operation costs exactly one message unless the issuer holds its key: an
// object-constant query over a depth-k chain is the root pattern's route, k
// mapping lookups and one PatternQuery for all k variants; a row limit the
// root satisfies ends it after the root's route, and a limit reached at wave
// w has shipped w groups after w lookups.
func TestReformulationMessageCounts(t *testing.T) {
	const k = 4
	_, peers := testNetwork(t, 4, 3)
	publishChain(t, peers[0], k+1)
	q := triple.Pattern{S: triple.Var("x"), P: triple.Const("S0#org"), O: triple.Const("aspergillus")}
	opts := SearchOptions{MaxDepth: k, Parallelism: 1}

	for _, issuer := range peers {
		cost := func(key keyspace.Key) int {
			if issuer.Node().Responsible(key) {
				return 0
			}
			return 1
		}
		// Every "schema:"-prefixed key shares one leaf under the
		// order-preserving hash, so all k lookups cost the same.
		data, lookup := cost(keyspace.Hash("aspergillus", issuer.depth)), cost(issuer.schemaKey("S0"))
		for _, c := range []struct {
			limit, rows, want int
		}{
			{0, k + 1, data + k*lookup + data},
			{1, 1, data},
			{3, 3, data + 2*(lookup+data)},
		} {
			rows, st := streamRows(t, issuer, q, c.limit, opts)
			if len(rows) != c.rows || st.Messages != c.want {
				t.Errorf("issuer %s limit %d: %d rows for %d messages, want %d rows for %d",
					issuer.Node().ID(), c.limit, len(rows), st.Messages, c.rows, c.want)
			}
		}
	}
}
