package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"gridvine/internal/mediation"
	"gridvine/internal/metrics"
	"gridvine/internal/triple"
)

// SemiJoinConfig parameterizes EXP-L, the semi-join shipping evaluation:
// a high-fan-out join — the selective pattern binds the shared variable to
// far more distinct values than SearchOptions.PushdownLimit — executed by
// the naive evaluator (every pattern ships its full network-wide
// extension) and by the semi-join engine (the bound-value set ships to the
// data instead). Every peer publishes its statistics digest first, so the
// planner orders by estimated cardinalities rather than static position
// weights.
type SemiJoinConfig struct {
	Peers       int // default 64
	HotEntities int // entities carrying the hot predicate; default 20000
	BoundFanout int // entities matching the selective constant; default 400 (≫ PushdownLimit)
	Groups      int // spread of the unselective group values; default 40
	Queries     int // measured repetitions per evaluator; default 2
	WANModel
	// Parallelism is the engine's worker-pool width (default
	// mediation.DefaultParallelism).
	Parallelism int
	Seed        int64
}

func (c SemiJoinConfig) withDefaults() SemiJoinConfig {
	setDefault(&c.Peers, 64)
	setDefault(&c.HotEntities, 20000)
	setDefault(&c.BoundFanout, 400)
	setDefault(&c.Groups, 40)
	setDefault(&c.Queries, 2)
	c.WANModel = c.WANModel.withDefaults()
	return c
}

var expL = declare("L", "semi-join shipping vs the naive evaluator on high-fan-out joins (cost-based statistics)",
	func(quick bool, seed int64) (SemiJoinResult, error) {
		cfg := SemiJoinConfig{Seed: seed}
		if quick {
			cfg.Peers, cfg.HotEntities, cfg.BoundFanout, cfg.Queries = 32, 3000, 120, 2
		}
		return RunSemiJoin(cfg)
	})

// SemiJoinResult reports the comparison. All per-query figures are means
// over cfg.Queries repetitions.
type SemiJoinResult struct {
	Triples       int  `json:"triples"`
	Rows          int  `json:"rows"`
	Match         bool `json:"planned_matches_naive"`
	PushdownLimit int  `json:"pushdown_limit"`
	BoundFanout   int  `json:"bound_fanout"`
	StatsDigests  int  `json:"stats_digests_used"`

	NaiveMessages    float64 `json:"naive_messages_per_query"`
	SemiJoinMessages float64 `json:"semijoin_messages_per_query"`

	// The semi-join arm's frame bytes include the filters its requests carry.
	NaiveFrameBytes    float64 `json:"naive_frame_bytes_per_query"`
	SemiJoinFrameBytes float64 `json:"semijoin_frame_bytes_per_query"`

	NaiveTriplesShipped    float64 `json:"naive_triples_shipped_per_query"`
	SemiJoinTriplesShipped float64 `json:"semijoin_triples_shipped_per_query"`

	// ShippingReduction is naive-vs-semi-join triples shipped — the
	// headline figure.
	ShippingReduction float64 `json:"semijoin_vs_naive_shipping_reduction"`

	NaiveWallMs    float64 `json:"naive_wall_ms_per_query"`
	SemiJoinWallMs float64 `json:"semijoin_wall_ms_per_query"`
	Speedup        float64 `json:"semijoin_vs_naive_wall_clock_speedup"`
}

// RunSemiJoin builds the high-fan-out workload, publishes statistics
// digests, runs the same join through both evaluators, and reports the
// messages and frame bytes the transport carried, the triples shipped and
// wall-clock costs, plus result equivalence.
func RunSemiJoin(cfg SemiJoinConfig) (SemiJoinResult, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	net, peers, err := newSimPeers(cfg.Peers, nil, rng)
	if err != nil {
		return SemiJoinResult{}, err
	}

	var dataset []triple.Triple
	insert := func(s, p, o string) {
		dataset = append(dataset, triple.Triple{Subject: s, Predicate: p, Object: o})
	}
	for e := 0; e < cfg.HotEntities; e++ {
		s := fmt.Sprintf("acc:%06d", e)
		grp := fmt.Sprintf("grp-%d", 1+zipfish(rng, cfg.Groups))
		if e < cfg.BoundFanout {
			grp = "grp-hot"
		}
		insert(s, "A#grp", grp)
		insert(s, "A#len", fmt.Sprint(100+e))
	}
	if err := bulkInsert(peers[rng.Intn(len(peers))], dataset); err != nil {
		return SemiJoinResult{}, err
	}
	triples := len(dataset)

	ctx := context.Background()
	// Publish every peer's cardinality digest so planning runs cost-based.
	for _, p := range peers {
		if _, _, err := p.PublishStats(ctx); err != nil {
			return SemiJoinResult{}, err
		}
	}

	cfg.apply(net)

	// The selective pattern binds x to BoundFanout distinct subjects —
	// far above the pushdown cap — before the hot pattern resolves.
	patterns := []triple.Pattern{
		{S: triple.Var("x"), P: triple.Const("A#len"), O: triple.Var("len")},
		{S: triple.Var("x"), P: triple.Const("A#grp"), O: triple.Const("grp-hot")},
	}
	opts := mediation.SearchOptions{Parallelism: cfg.Parallelism}

	out := SemiJoinResult{
		Triples:       triples,
		Match:         true,
		PushdownLimit: mediation.DefaultPushdownLimit,
		BoundFanout:   cfg.BoundFanout,
	}
	naiveArm, sjArm := armCost{net: net}, armCost{net: net}
	for q := 0; q < cfg.Queries; q++ {
		issuer := peers[rng.Intn(len(peers))]

		naiveArm.begin()
		naive, naiveStats, err := issuer.SearchConjunctiveNaive(ctx, patterns, false, opts)
		if err != nil {
			return out, fmt.Errorf("naive query %d: %w", q, err)
		}
		naiveArm.add(naiveStats.TriplesShipped)

		// The semi-join run pays its own cold statistics fetch (the
		// issuer's digest cache is empty): the naive evaluator never plans.
		sjArm.begin()
		sj, sjStats, err := searchConjunctiveSet(ctx, issuer, patterns, false, opts)
		if err != nil {
			return out, fmt.Errorf("semijoin query %d: %w", q, err)
		}
		sjArm.add(sjStats.TriplesShipped)
		out.StatsDigests = sjStats.StatsDigests
		if sjStats.SemiJoins == 0 {
			return out, fmt.Errorf("semijoin query %d: no semi-join fired (stats %+v)", q, sjStats)
		}

		out.Rows = sj.Len()
		if !sameBindings(naive, sj.ToBindings()) {
			out.Match = false
		}
	}

	out.NaiveMessages = naiveArm.msgs.Mean()
	out.SemiJoinMessages = sjArm.msgs.Mean()
	out.NaiveFrameBytes = naiveArm.bytes.Mean()
	out.SemiJoinFrameBytes = sjArm.bytes.Mean()
	out.NaiveTriplesShipped = naiveArm.shipped.Mean()
	out.SemiJoinTriplesShipped = sjArm.shipped.Mean()
	out.NaiveWallMs = naiveArm.wallMs()
	out.SemiJoinWallMs = sjArm.wallMs()
	if out.SemiJoinTriplesShipped > 0 {
		out.ShippingReduction = out.NaiveTriplesShipped / out.SemiJoinTriplesShipped
	}
	if out.SemiJoinWallMs > 0 {
		out.Speedup = out.NaiveWallMs / out.SemiJoinWallMs
	}
	return out, net.SizeErr()
}

// Check is EXP-L's gate: the semi-join engine returns the naive
// evaluator's rows.
func (r SemiJoinResult) Check() error {
	if !r.Match {
		return errors.New("semi-join execution diverged from the naive evaluator")
	}
	return nil
}

// Table renders the comparison.
func (r SemiJoinResult) Table() string {
	t := metrics.NewTable("evaluator", "msgs/query", "frame bytes/query", "triples shipped", "wall ms/query")
	t.AddRow("naive", fmt.Sprintf("%.1f", r.NaiveMessages), fmt.Sprintf("%.0f", r.NaiveFrameBytes), fmt.Sprintf("%.0f", r.NaiveTriplesShipped), fmt.Sprintf("%.1f", r.NaiveWallMs))
	t.AddRow("semi-join", fmt.Sprintf("%.1f", r.SemiJoinMessages), fmt.Sprintf("%.0f", r.SemiJoinFrameBytes), fmt.Sprintf("%.0f", r.SemiJoinTriplesShipped), fmt.Sprintf("%.1f", r.SemiJoinWallMs))
	return t.String() +
		fmt.Sprintf("fan-out %d over cap %d; shipping reduction %.1fx, wall-clock speedup %.1fx, rows %d, digests %d, match: %v\n",
			r.BoundFanout, r.PushdownLimit, r.ShippingReduction, r.Speedup, r.Rows, r.StatsDigests, r.Match)
}
