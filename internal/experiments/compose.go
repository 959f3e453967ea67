package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"

	"gridvine/internal/mediation"
	"gridvine/internal/metrics"
	"gridvine/internal/schema"
	"gridvine/internal/triple"
)

// ComposeConfig parameterizes EXP-R: what a cached composite closure saves
// over the reformulation engine's per-query traversal as the mapping chain
// deepens. Each depth builds a fresh overlay holding a chain of equivalence
// mappings S0→…→Sk (full attribute coverage) with a lossy single-attribute
// branch hanging off every interior schema, then resolves subject-bound
// queries with and without the closure cache.
type ComposeConfig struct {
	Peers    int   // overlay size per depth (default 32)
	Depths   []int // chain depths to sweep (default 1,2,4,6,8)
	Entities int   // instances per schema (default 4)
	Queries  int   // subject-bound queries per depth (default 8)
	Seed     int64
}

func (c ComposeConfig) withDefaults() ComposeConfig {
	setDefault(&c.Peers, 32)
	if len(c.Depths) == 0 {
		c.Depths = []int{1, 2, 4, 6, 8}
	}
	setDefault(&c.Entities, 4)
	setDefault(&c.Queries, 8)
	return c
}

var expR = declare("R", "cached composite closures vs per-query traversal as mapping chains deepen (key-grouped shipping, loss pruning)",
	func(quick bool, seed int64) (ComposeResult, error) {
		cfg := ComposeConfig{Seed: seed}
		if quick {
			cfg.Peers, cfg.Depths, cfg.Entities, cfg.Queries = 24, []int{1, 2, 4}, 2, 3
		}
		return RunCompose(cfg)
	})

// ComposePoint is one chain depth's measurement row.
type ComposePoint struct {
	Depth int `json:"depth"`
	// Reformulations per query (identical with and without the cache by the
	// equivalence property).
	Reformulations int `json:"reformulations"`
	// Routed messages per query. The traversal pays the root pattern, one
	// mapping retrieval per expandable schema and one key-grouped batch for
	// every variant (subject-bound, so one key); the warm closure skips the
	// retrievals and ships root and variants in that one batch.
	TraversalMsgsPerQuery float64 `json:"traversal_messages_per_query"`
	CompositeMsgsPerQuery float64 `json:"composite_messages_per_query"`
	MessageReduction      float64 `json:"message_reduction"`
	// ColdBuildMessages is what the one-time closure build cost — the
	// first query's surcharge, amortized over every query after it.
	ColdBuildMessages int `json:"cold_build_messages"`
	// Wall-clock per query, microseconds.
	TraversalMicrosPerQuery float64 `json:"traversal_micros_per_query"`
	CompositeMicrosPerQuery float64 `json:"composite_micros_per_query"`
	// CompositeMatchesTraversal: every query's cached results were
	// byte-identical to the uncached engine's.
	CompositeMatchesTraversal bool `json:"composite_matches_traversal"`
	// Recall of loss-pruned (MaxLoss 0.5) vs unpruned composite answers:
	// overall fraction retained, and the fraction of full-coverage chain
	// answers retained (pruning must only shed the lossy branches).
	RecallPruned     float64 `json:"recall_pruned"`
	ChainRecallKept  float64 `json:"pruned_chain_recall"`
	PrunedMsgsPerQry float64 `json:"pruned_messages_per_query"`
	// InvalidationConsistent: after replacing a mid-chain mapping cached
	// and uncached answers agreed again — the replace invalidated exactly
	// the stale closure.
	InvalidationConsistent bool `json:"invalidation_consistent"`
}

// ComposeResult is the full EXP-R sweep.
type ComposeResult struct {
	Points []ComposePoint `json:"points"`
}

const composeAttrs = 4

// composeChain publishes the depth-k chain workload through one batch and
// returns the chain mappings in order. Schemas are named R<i>, lossy
// branches R<i>L; every (schema, entity) pair holds one a0 triple.
func composeChain(issuer *mediation.Peer, depth, entities int) ([]schema.Mapping, error) {
	attrs := make([]string, composeAttrs)
	corrs := make([]schema.Correspondence, composeAttrs)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("a%d", i)
		corrs[i] = schema.Correspondence{SourceAttr: attrs[i], TargetAttr: attrs[i], Confidence: 1}
	}
	name := func(i int) string { return fmt.Sprintf("R%d", i) }
	b := &mediation.Batch{Parallelism: 1}
	var chain []schema.Mapping
	for i := 0; i <= depth; i++ {
		b.PublishSchema(schema.NewSchema(name(i), "bench", attrs...))
		if i < depth {
			m := schema.NewMapping(name(i), name(i+1), schema.Equivalence, schema.Manual, corrs)
			chain = append(chain, m)
			b.PublishMapping(m)
		}
		if i > 0 {
			branch := name(i) + "L"
			b.PublishSchema(schema.NewSchema(branch, "bench", "a0"))
			b.PublishMapping(schema.NewMapping(name(i), branch, schema.Equivalence, schema.Manual,
				[]schema.Correspondence{{SourceAttr: "a0", TargetAttr: "a0", Confidence: 1}}))
		}
	}
	for e := 0; e < entities; e++ {
		subj := fmt.Sprintf("urn:acc:e%d", e)
		for i := 0; i <= depth; i++ {
			b.InsertTriple(triple.Triple{Subject: subj, Predicate: name(i) + "#a0", Object: fmt.Sprintf("v-%d-%d", i, e)})
			if i > 0 {
				b.InsertTriple(triple.Triple{Subject: subj, Predicate: name(i) + "L#a0", Object: fmt.Sprintf("vL-%d-%d", i, e)})
			}
		}
	}
	rec, err := issuer.Write(context.Background(), b)
	if err != nil {
		return nil, err
	}
	if ferr := rec.FirstErr(); ferr != nil {
		return nil, fmt.Errorf("chain workload: %w", ferr)
	}
	return chain, nil
}

// RunCompose sweeps chain depth and scores cached closures against the
// per-query traversal on messages, wall-clock, result equivalence,
// loss-pruned recall, and post-replace consistency.
func RunCompose(cfg ComposeConfig) (ComposeResult, error) {
	cfg = cfg.withDefaults()
	out := ComposeResult{}
	ctx := context.Background()

	for _, depth := range cfg.Depths {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(depth)))
		net, peers, err := newSimPeers(cfg.Peers, nil, rng)
		if err != nil {
			return out, err
		}
		issuer := peers[rng.Intn(len(peers))]
		chain, err := composeChain(issuer, depth, cfg.Entities)
		if err != nil {
			return out, err
		}

		queries := make([]triple.Pattern, cfg.Queries)
		for i := range queries {
			queries[i] = triple.Pattern{
				S: triple.Const(fmt.Sprintf("urn:acc:e%d", i%cfg.Entities)),
				P: triple.Const("R0#a0"),
				O: triple.Var("o"),
			}
		}

		base := mediation.SearchOptions{MaxDepth: depth + 1, Parallelism: 1}
		comp := base
		comp.ComposeMappings = true
		pruned := comp
		pruned.MaxLoss = 0.5

		point := ComposePoint{Depth: depth, CompositeMatchesTraversal: true, ChainRecallKept: 1}

		// Cold query: charged the closure build, recorded separately so
		// the steady-state rate is honest about what amortizes.
		cold, err := searchWithReformulation(ctx, issuer, queries[0], comp)
		if err != nil {
			return out, err
		}
		point.ColdBuildMessages = cold.Messages

		travArm, compArm := armCost{net: net}, armCost{net: net}
		var prunedMsgs metrics.Distribution
		prunedKept, prunedTotal := 0, 0
		chainKept, chainTotal := 0, 0
		for _, q := range queries {
			travArm.begin()
			trav, err := searchWithReformulation(ctx, issuer, q, base)
			if err != nil {
				return out, err
			}
			travArm.add(0)
			point.Reformulations = trav.Reformulations

			compArm.begin()
			cr, err := searchWithReformulation(ctx, issuer, q, comp)
			if err != nil {
				return out, err
			}
			compArm.add(0)
			if !reflect.DeepEqual(cr.Results, trav.Results) {
				point.CompositeMatchesTraversal = false
			}

			pr, err := searchWithReformulation(ctx, issuer, q, pruned)
			if err != nil {
				return out, err
			}
			prunedMsgs.Add(float64(pr.Messages))
			prunedTotal += len(cr.Results)
			prunedKept += len(pr.Results)
			kept := map[string]bool{}
			for _, r := range pr.Results {
				kept[r.Triple.Predicate+"\x00"+r.Triple.Object] = true
			}
			for _, r := range cr.Results {
				name, _, ok := schema.SplitPredicateURI(r.Triple.Predicate)
				if !ok || name[len(name)-1] == 'L' {
					continue
				}
				chainTotal++
				if kept[r.Triple.Predicate+"\x00"+r.Triple.Object] {
					chainKept++
				}
			}
		}
		point.TraversalMsgsPerQuery = travArm.msgs.Mean()
		point.TraversalMicrosPerQuery = travArm.wallMicros.Mean()
		point.CompositeMsgsPerQuery = compArm.msgs.Mean()
		point.CompositeMicrosPerQuery = compArm.wallMicros.Mean()
		point.PrunedMsgsPerQry = prunedMsgs.Mean()
		if point.CompositeMsgsPerQuery > 0 {
			point.MessageReduction = point.TraversalMsgsPerQuery / point.CompositeMsgsPerQuery
		}
		if prunedTotal > 0 {
			point.RecallPruned = float64(prunedKept) / float64(prunedTotal)
		}
		if chainTotal > 0 {
			point.ChainRecallKept = float64(chainKept) / float64(chainTotal)
		}

		// Replace a mid-chain mapping (a confidence refresh, as the
		// self-organization rounds publish) and require cached and uncached
		// answers to agree again: the stale closure must have been
		// invalidated, nothing else.
		point.InvalidationConsistent = true
		mid := chain[len(chain)/2]
		updated := mid
		updated.Confidence = 0.9
		if _, err := issuer.InsertMappingContext(ctx, updated); err != nil {
			return out, err
		}
		for _, q := range queries {
			trav, err := searchWithReformulation(ctx, issuer, q, base)
			if err != nil {
				return out, err
			}
			cr, err := searchWithReformulation(ctx, issuer, q, comp)
			if err != nil {
				return out, err
			}
			if !reflect.DeepEqual(cr.Results, trav.Results) {
				point.InvalidationConsistent = false
			}
		}

		out.Points = append(out.Points, point)
	}
	return out, nil
}

// Check is EXP-R's gate: at every depth ≥ 4 (the sweep must reach one)
// cached answers match uncached ones byte for byte and survive a mapping
// replace, and the message cut sits where key-grouped shipping puts it. With
// r reformulations the traversal is r mapping retrievals and two data
// operations against the warm closure's one, an (r+2)× bill; shipping every
// variant on its own would make it (2r+1)×. The gate takes ≥ 3× (a closure
// still pays for its cache) and at most the midpoint of the two.
func (r ComposeResult) Check() error {
	deep := 0
	for _, p := range r.Points {
		if p.Depth < 4 {
			continue
		}
		deep++
		switch ungrouped := 1.5*float64(p.Reformulations) + 1.5; {
		case !p.CompositeMatchesTraversal:
			return fmt.Errorf("depth %d: cached reformulation diverged from the traversal", p.Depth)
		case !p.InvalidationConsistent:
			return fmt.Errorf("depth %d: stale composite served after a mapping replace", p.Depth)
		case p.MessageReduction < 3:
			return fmt.Errorf("depth %d: message reduction %.1fx, want ≥3x", p.Depth, p.MessageReduction)
		case p.MessageReduction > ungrouped:
			return fmt.Errorf("depth %d: the traversal spent %.1fx the warm closure's messages, want ≤%.1fx — are its variants still shipped grouped by key?", p.Depth, p.MessageReduction, ungrouped)
		}
	}
	if deep == 0 {
		return errors.New("no chain of depth ≥ 4 measured")
	}
	return nil
}

// Table renders the depth sweep.
func (r ComposeResult) Table() string {
	t := metrics.NewTable("depth", "reforms", "msg/q trav", "msg/q comp", "cut", "build", "µs trav", "µs comp", "recall pruned", "match", "inval ok")
	for _, p := range r.Points {
		t.AddRow(
			fmt.Sprint(p.Depth), fmt.Sprint(p.Reformulations),
			fmt.Sprintf("%.1f", p.TraversalMsgsPerQuery), fmt.Sprintf("%.1f", p.CompositeMsgsPerQuery),
			fmt.Sprintf("%.1fx", p.MessageReduction), fmt.Sprint(p.ColdBuildMessages),
			fmt.Sprintf("%.0f", p.TraversalMicrosPerQuery), fmt.Sprintf("%.0f", p.CompositeMicrosPerQuery),
			fmt.Sprintf("%.2f", p.RecallPruned),
			fmt.Sprint(p.CompositeMatchesTraversal), fmt.Sprint(p.InvalidationConsistent),
		)
	}
	return t.String()
}
