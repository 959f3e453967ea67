package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"gridvine/internal/mediation"
	"gridvine/internal/metrics"
	"gridvine/internal/schema"
	"gridvine/internal/triple"
)

// StreamingConfig parameterizes EXP-M, the streaming query API evaluation.
// Two measurements share one network:
//
//  1. Time-to-first-row: a reformulating pattern query over a linear
//     mapping chain of ChainSchemas schemas (EntitiesPerSchema matching
//     triples each) is consumed through a cursor under WAN-style transit
//     and bandwidth delays. The first row surfaces after the first wave;
//     the blocking aggregate needs every wave.
//  2. Top-k lookup cut: a conjunctive join whose final stage pushes
//     HotEntities bound values down as point lookups is run unbounded and
//     with Limit TopK; the bounded run must issue fewer routed lookups.
type StreamingConfig struct {
	Peers             int // default 64
	ChainSchemas      int // mapping-chain length; default 8
	EntitiesPerSchema int // matching triples per schema; default 50
	HotEntities       int // bound values of the top-k join; default 300
	TopK              int // row limit of the bounded run; default 10
	Queries           int // measured repetitions; default 2
	WANModel
	// Parallelism is the engine worker-pool width (default
	// mediation.DefaultParallelism); it is also the streaming pushdown
	// chunk size.
	Parallelism int
	Seed        int64
}

func (c StreamingConfig) withDefaults() StreamingConfig {
	setDefault(&c.Peers, 64)
	setDefault(&c.ChainSchemas, 8)
	setDefault(&c.EntitiesPerSchema, 50)
	setDefault(&c.HotEntities, 300)
	setDefault(&c.TopK, 10)
	setDefault(&c.Queries, 2)
	c.WANModel = c.WANModel.withDefaults()
	return c
}

var expM = declare("M", "streaming query API: time-to-first-row and Limit-bounded top-k lookup cut",
	func(quick bool, seed int64) (StreamingResult, error) {
		cfg := StreamingConfig{Seed: seed}
		if quick {
			cfg.Peers, cfg.ChainSchemas, cfg.EntitiesPerSchema, cfg.HotEntities, cfg.Queries = 24, 5, 12, 80, 1
		}
		return RunStreaming(cfg)
	})

// StreamingResult reports EXP-M. Per-query figures are means over
// cfg.Queries repetitions.
type StreamingResult struct {
	Triples int  `json:"triples"`
	Rows    int  `json:"pattern_rows"`
	Match   bool `json:"streamed_matches_blocking"`

	// Pattern-query streaming: time to first row vs draining the cursor vs
	// the blocking aggregate (CollectPattern).
	FirstRowMs      float64 `json:"first_row_ms"`
	FullWallMs      float64 `json:"full_wall_ms"`
	BlockingWallMs  float64 `json:"blocking_wall_ms"`
	FirstRowSpeedup float64 `json:"first_row_speedup_vs_full"`

	// Top-k: routed pattern lookups and total messages, bounded vs not.
	TopK             int     `json:"topk_limit"`
	TopKRows         int     `json:"topk_rows"`
	UnboundedLookups float64 `json:"unbounded_lookups_per_query"`
	TopKLookups      float64 `json:"topk_lookups_per_query"`
	LookupReduction  float64 `json:"topk_lookup_reduction"`
	UnboundedMsgs    float64 `json:"unbounded_messages_per_query"`
	TopKMsgs         float64 `json:"topk_messages_per_query"`
}

// RunStreaming builds the chained-mapping workload, then measures streaming
// time-to-first-row against full and blocking wall-clock, and the routed
// lookups a Limit-bounded top-k saves over the unbounded run.
func RunStreaming(cfg StreamingConfig) (StreamingResult, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	net, peers, err := newSimPeers(cfg.Peers, nil, rng)
	if err != nil {
		return StreamingResult{}, err
	}

	var dataset []triple.Triple
	insert := func(s, p, o string) {
		dataset = append(dataset, triple.Triple{Subject: s, Predicate: p, Object: o})
	}

	// Mapping chain S0→S1→…→S(n-1), each schema with its own extension.
	// Mappings ride the same bulk batch as the triples.
	issuerPeer := peers[rng.Intn(len(peers))]
	batch := &mediation.Batch{}
	for i := 0; i < cfg.ChainSchemas; i++ {
		name := fmt.Sprintf("S%d", i)
		for e := 0; e < cfg.EntitiesPerSchema; e++ {
			insert(fmt.Sprintf("seq:%s-%04d", name, e), name+"#org", fmt.Sprintf("organism-%d", e%7))
		}
		if i+1 < cfg.ChainSchemas {
			m := schema.NewMapping(name, fmt.Sprintf("S%d", i+1), schema.Equivalence, schema.Manual,
				[]schema.Correspondence{{SourceAttr: "org", TargetAttr: "org", Confidence: 1}})
			m.Bidirectional = true
			batch.PublishMapping(m)
		}
	}
	// Top-k join workload: HotEntities bound values, one length triple each.
	for e := 0; e < cfg.HotEntities; e++ {
		s := fmt.Sprintf("acc:%06d", e)
		insert(s, "A#grp", "grp-hot")
		insert(s, "A#len", fmt.Sprint(100+e))
	}
	for _, t := range dataset {
		batch.InsertTriple(t)
	}
	triples := len(dataset)
	if rec, err := issuerPeer.Write(context.Background(), batch); err != nil {
		return StreamingResult{}, err
	} else if rec.Applied != batch.Len() {
		return StreamingResult{}, fmt.Errorf("bulk load applied %d of %d entries: %w", rec.Applied, batch.Len(), rec.FirstErr())
	}

	cfg.apply(net)

	out := StreamingResult{Triples: triples, Match: true, TopK: cfg.TopK}
	opts := mediation.SearchOptions{Parallelism: cfg.Parallelism, MaxDepth: cfg.ChainSchemas}

	// 1. Streaming pattern query over the chain.
	chainQ := triple.Pattern{S: triple.Var("x"), P: triple.Const("S0#org"), O: triple.Var("o")}
	firstRow, fullWall, blockWall := metrics.NewDistribution(), metrics.NewDistribution(), metrics.NewDistribution()
	for q := 0; q < cfg.Queries; q++ {
		issuer := peers[rng.Intn(len(peers))]

		cur, err := issuer.Query(context.Background(), mediation.Request{Pattern: &chainQ, Reformulate: true, Options: opts})
		if err != nil {
			return out, fmt.Errorf("streaming query %d: %w", q, err)
		}
		streamed := map[triple.Triple]bool{}
		for {
			row, ok := cur.Next(context.Background())
			if !ok {
				break
			}
			streamed[row.Result.Triple] = true
		}
		cur.Close()
		if err := cur.Err(); err != nil {
			return out, fmt.Errorf("streaming query %d: %w", q, err)
		}
		st := cur.Stats()
		firstRow.Add(float64(st.FirstRow.Microseconds()) / 1000)
		fullWall.Add(float64(st.Elapsed.Microseconds()) / 1000)

		start := time.Now()
		rs, err := searchWithReformulation(context.Background(), issuer, chainQ, opts)
		if err != nil {
			return out, fmt.Errorf("blocking query %d: %w", q, err)
		}
		blockWall.Add(float64(time.Since(start).Microseconds()) / 1000)
		out.Rows = len(rs.Results)
		if len(streamed) != len(rs.Triples()) {
			out.Match = false
		}
		for _, tr := range rs.Triples() {
			if !streamed[tr] {
				out.Match = false
			}
		}
	}
	out.FirstRowMs = firstRow.Mean()
	out.FullWallMs = fullWall.Mean()
	out.BlockingWallMs = blockWall.Mean()
	if out.FirstRowMs > 0 {
		out.FirstRowSpeedup = out.FullWallMs / out.FirstRowMs
	}

	// 2. Top-k lookup cut on the pushdown join. The pushdown cap is lifted
	// above the fan-out so the final stage resolves by chunked point
	// lookups — the stage Limit reaches into.
	join := []triple.Pattern{
		{S: triple.Var("x"), P: triple.Const("A#grp"), O: triple.Const("grp-hot")},
		{S: triple.Var("x"), P: triple.Const("A#len"), O: triple.Var("len")},
	}
	joinOpts := opts
	joinOpts.PushdownLimit = cfg.HotEntities * 2
	unboundedLk, topkLk := metrics.NewDistribution(), metrics.NewDistribution()
	unboundedMsg, topkMsg := metrics.NewDistribution(), metrics.NewDistribution()
	for q := 0; q < cfg.Queries; q++ {
		issuer := peers[rng.Intn(len(peers))]
		for _, limit := range []int{0, cfg.TopK} {
			cur, err := issuer.Query(context.Background(), mediation.Request{Patterns: join, Limit: limit, Options: joinOpts})
			if err != nil {
				return out, fmt.Errorf("top-k query %d: %w", q, err)
			}
			rows := 0
			for {
				if _, ok := cur.Next(context.Background()); !ok {
					break
				}
				rows++
			}
			cur.Close()
			if err := cur.Err(); err != nil {
				return out, fmt.Errorf("top-k query %d (limit %d): %w", q, limit, err)
			}
			st := cur.Stats().Conjunctive
			if limit == 0 {
				if rows != cfg.HotEntities {
					return out, fmt.Errorf("unbounded run yielded %d rows, want %d", rows, cfg.HotEntities)
				}
				unboundedLk.Add(float64(st.PatternLookups))
				unboundedMsg.Add(float64(st.RouteMessages))
			} else {
				if rows != cfg.TopK {
					return out, fmt.Errorf("top-%d run yielded %d rows", cfg.TopK, rows)
				}
				out.TopKRows = rows
				topkLk.Add(float64(st.PatternLookups))
				topkMsg.Add(float64(st.RouteMessages))
			}
		}
	}
	out.UnboundedLookups = unboundedLk.Mean()
	out.TopKLookups = topkLk.Mean()
	out.UnboundedMsgs = unboundedMsg.Mean()
	out.TopKMsgs = topkMsg.Mean()
	if out.TopKLookups > 0 {
		out.LookupReduction = out.UnboundedLookups / out.TopKLookups
	}
	return out, net.SizeErr()
}

// Check is EXP-M's gate: the first row lands before the full traversal
// ends, the Limit reaches the planner, and streaming loses no row.
func (r StreamingResult) Check() error {
	switch {
	case !r.Match:
		return errors.New("streamed result diverged from the blocking aggregate")
	case !(r.FirstRowMs < r.FullWallMs):
		return fmt.Errorf("first row %.2fms not before full wall %.2fms", r.FirstRowMs, r.FullWallMs)
	case !(r.TopKLookups < r.UnboundedLookups):
		return fmt.Errorf("top-k lookups %.0f not below unbounded %.0f", r.TopKLookups, r.UnboundedLookups)
	}
	return nil
}

// Table renders the comparison.
func (r StreamingResult) Table() string {
	t := metrics.NewTable("measurement", "streaming", "full/unbounded", "gain")
	t.AddRow("first row (ms)", fmt.Sprintf("%.1f", r.FirstRowMs), fmt.Sprintf("%.1f", r.FullWallMs),
		fmt.Sprintf("%.1fx", r.FirstRowSpeedup))
	t.AddRow(fmt.Sprintf("top-%d lookups", r.TopK), fmt.Sprintf("%.0f", r.TopKLookups),
		fmt.Sprintf("%.0f", r.UnboundedLookups), fmt.Sprintf("%.1fx", r.LookupReduction))
	t.AddRow(fmt.Sprintf("top-%d messages", r.TopK), fmt.Sprintf("%.0f", r.TopKMsgs),
		fmt.Sprintf("%.0f", r.UnboundedMsgs), "")
	return t.String() +
		fmt.Sprintf("pattern rows %d over %d triples; blocking wall %.1fms; streamed matches blocking: %v\n",
			r.Rows, r.Triples, r.BlockingWallMs, r.Match)
}
