package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"gridvine/internal/mediation"
	"gridvine/internal/metrics"
	"gridvine/internal/schema"
	"gridvine/internal/triple"
)

// ComposeConfig parameterizes EXP-R: composite-mapping reformulation vs the
// BFS engine as the mapping chain deepens. Each depth builds a fresh
// overlay holding a chain of equivalence mappings S0→…→Sk (full attribute
// coverage) with a lossy single-attribute branch hanging off every interior
// schema, then resolves subject-bound queries through both engines.
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

var expR = declare("R", "composite-mapping reformulation vs BFS as mapping chains deepen (precomposed closures, loss pruning)",
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
	// Reformulations per query (identical for both engines by the
	// equivalence property).
	Reformulations int `json:"reformulations"`
	// Routed messages per query: the BFS pays a pattern lookup plus a
	// mapping retrieval per reachable schema; the warmed composite ships
	// key-grouped variant batches.
	BFSMsgsPerQuery       float64 `json:"bfs_messages_per_query"`
	CompositeMsgsPerQuery float64 `json:"composite_messages_per_query"`
	MessageReduction      float64 `json:"message_reduction"`
	// ColdBuildMessages is what the one-time closure build cost — the
	// first query's surcharge, amortized over every query after it.
	ColdBuildMessages int `json:"cold_build_messages"`
	// Wall-clock per query, microseconds.
	BFSMicrosPerQuery       float64 `json:"bfs_micros_per_query"`
	CompositeMicrosPerQuery float64 `json:"composite_micros_per_query"`
	// CompositeMatchesBFS: every query's composite results were
	// byte-identical to both BFS modes.
	CompositeMatchesBFS bool `json:"composite_matches_bfs"`
	// Recall of loss-pruned (MaxLoss 0.5) vs unpruned composite answers:
	// overall fraction retained, and the fraction of full-coverage chain
	// answers retained (pruning must only shed the lossy branches).
	RecallPruned     float64 `json:"recall_pruned"`
	ChainRecallKept  float64 `json:"pruned_chain_recall"`
	PrunedMsgsPerQry float64 `json:"pruned_messages_per_query"`
	// InvalidationConsistent: after replacing a mid-chain mapping the
	// composite engine agreed with the BFS again — the replace invalidated
	// exactly the stale closure.
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

// RunCompose sweeps chain depth and scores the composite engine against the
// BFS oracle on messages, wall-clock, result equivalence, loss-pruned
// recall, and post-replace consistency.
func RunCompose(cfg ComposeConfig) (ComposeResult, error) {
	cfg = cfg.withDefaults()
	out := ComposeResult{}
	ctx := context.Background()

	for _, depth := range cfg.Depths {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(depth)))
		_, peers, err := newSimPeers(cfg.Peers, nil, rng)
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

		point := ComposePoint{Depth: depth, CompositeMatchesBFS: true, ChainRecallKept: 1}

		// Cold query: charged the closure build, recorded separately so
		// the steady-state rate is honest about what amortizes.
		cold, err := searchWithReformulation(ctx, issuer, queries[0], comp)
		if err != nil {
			return out, err
		}
		point.ColdBuildMessages = cold.Messages

		var bfsArm, compArm armCost
		var prunedMsgs metrics.Distribution
		prunedKept, prunedTotal := 0, 0
		chainKept, chainTotal := 0, 0
		for _, q := range queries {
			start := time.Now()
			bfs, err := searchWithReformulation(ctx, issuer, q, base)
			if err != nil {
				return out, err
			}
			bfsArm.add(start, bfs.Messages, 0)
			point.Reformulations = bfs.Reformulations

			start = time.Now()
			cr, err := searchWithReformulation(ctx, issuer, q, comp)
			if err != nil {
				return out, err
			}
			compArm.add(start, cr.Messages, 0)
			if !reflect.DeepEqual(cr.Results, bfs.Results) {
				point.CompositeMatchesBFS = false
			}
			rec, err := searchWithReformulation(ctx, issuer, q, mediation.SearchOptions{
				Mode: mediation.Recursive, MaxDepth: depth + 1, Parallelism: 1,
			})
			if err != nil {
				return out, err
			}
			if !reflect.DeepEqual(cr.Results, rec.Results) {
				point.CompositeMatchesBFS = false
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
		point.BFSMsgsPerQuery = bfsArm.msgs.Mean()
		point.BFSMicrosPerQuery = bfsArm.wallMicros.Mean()
		point.CompositeMsgsPerQuery = compArm.msgs.Mean()
		point.CompositeMicrosPerQuery = compArm.wallMicros.Mean()
		point.PrunedMsgsPerQry = prunedMsgs.Mean()
		if point.CompositeMsgsPerQuery > 0 {
			point.MessageReduction = point.BFSMsgsPerQuery / point.CompositeMsgsPerQuery
		}
		if prunedTotal > 0 {
			point.RecallPruned = float64(prunedKept) / float64(prunedTotal)
		}
		if chainTotal > 0 {
			point.ChainRecallKept = float64(chainKept) / float64(chainTotal)
		}

		// Replace a mid-chain mapping (a confidence refresh, as the
		// self-organization rounds publish) and require the composite
		// engine to agree with the BFS again: the stale closure must have
		// been invalidated, nothing else.
		point.InvalidationConsistent = true
		mid := chain[len(chain)/2]
		updated := mid
		updated.Confidence = 0.9
		if err := issuer.ReplaceMappingContext(ctx, mid, updated); err != nil {
			return out, err
		}
		for _, q := range queries {
			bfs, err := searchWithReformulation(ctx, issuer, q, base)
			if err != nil {
				return out, err
			}
			cr, err := searchWithReformulation(ctx, issuer, q, comp)
			if err != nil {
				return out, err
			}
			if !reflect.DeepEqual(cr.Results, bfs.Results) {
				point.InvalidationConsistent = false
			}
		}

		out.Points = append(out.Points, point)
	}
	return out, nil
}

// Check is EXP-R's gate: at every depth ≥ 4 (the sweep must reach one) the
// composite engine matches the BFS byte for byte, survives a mapping
// replace, and cuts routed messages at least 3x.
func (r ComposeResult) Check() error {
	deep := 0
	for _, p := range r.Points {
		if p.Depth < 4 {
			continue
		}
		deep++
		switch {
		case !p.CompositeMatchesBFS:
			return fmt.Errorf("depth %d: composite reformulation diverged from the BFS", p.Depth)
		case !p.InvalidationConsistent:
			return fmt.Errorf("depth %d: stale composite served after a mapping replace", p.Depth)
		case p.MessageReduction < 3:
			return fmt.Errorf("depth %d: message reduction %.1fx, want ≥3x", p.Depth, p.MessageReduction)
		}
	}
	if deep == 0 {
		return errors.New("no chain of depth ≥ 4 measured")
	}
	return nil
}

// Table renders the depth sweep.
func (r ComposeResult) Table() string {
	t := metrics.NewTable("depth", "reforms", "msg/q bfs", "msg/q comp", "cut", "build", "µs bfs", "µs comp", "recall pruned", "match", "inval ok")
	for _, p := range r.Points {
		t.AddRow(
			fmt.Sprint(p.Depth), fmt.Sprint(p.Reformulations),
			fmt.Sprintf("%.1f", p.BFSMsgsPerQuery), fmt.Sprintf("%.1f", p.CompositeMsgsPerQuery),
			fmt.Sprintf("%.1fx", p.MessageReduction), fmt.Sprint(p.ColdBuildMessages),
			fmt.Sprintf("%.0f", p.BFSMicrosPerQuery), fmt.Sprintf("%.0f", p.CompositeMicrosPerQuery),
			fmt.Sprintf("%.2f", p.RecallPruned),
			fmt.Sprint(p.CompositeMatchesBFS), fmt.Sprint(p.InvalidationConsistent),
		)
	}
	return t.String()
}
