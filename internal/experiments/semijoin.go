package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"gridvine/internal/mediation"
	"gridvine/internal/metrics"
	"gridvine/internal/triple"
)

// SemiJoinConfig parameterizes EXP-L, the semi-join shipping evaluation:
// a high-fan-out join — the selective pattern binds the shared variable to
// far more distinct values than SearchOptions.PushdownLimit — executed by
// the naive evaluator, by the PR 2 planner (semi-join disabled, so the
// over-cap pattern ships its full network-wide extension), and by the
// semi-join engine (the bound-value set ships to the data instead). Every
// peer publishes its statistics digest first, so the planner orders by
// estimated cardinalities rather than static position weights.
type SemiJoinConfig struct {
	Peers       int // default 64
	HotEntities int // entities carrying the hot predicate; default 20000
	BoundFanout int // entities matching the selective constant; default 400 (≫ PushdownLimit)
	Groups      int // spread of the unselective group values; default 40
	Queries     int // measured repetitions per evaluator; default 2
	// TransitDelay is the per-message wall-clock delay (default 1ms;
	// negative disables). PerTripleDelay models bandwidth: extra delay per
	// result-triple equivalent a message carries (default 50µs; negative
	// disables).
	TransitDelay   time.Duration
	PerTripleDelay time.Duration
	// Parallelism is the engine's worker-pool width (default
	// mediation.DefaultParallelism).
	Parallelism int
	Seed        int64
}

func (c SemiJoinConfig) withDefaults() SemiJoinConfig {
	if c.Peers == 0 {
		c.Peers = 64
	}
	if c.HotEntities == 0 {
		c.HotEntities = 20000
	}
	if c.BoundFanout == 0 {
		c.BoundFanout = 400
	}
	if c.Groups == 0 {
		c.Groups = 40
	}
	if c.Queries == 0 {
		c.Queries = 2
	}
	if c.TransitDelay == 0 {
		c.TransitDelay = time.Millisecond
	}
	if c.PerTripleDelay == 0 {
		c.PerTripleDelay = 50 * time.Microsecond
	}
	return c
}

// SemiJoinResult reports the three-way comparison. All per-query figures
// are means over cfg.Queries repetitions.
type SemiJoinResult struct {
	Triples       int  `json:"triples"`
	Rows          int  `json:"rows"`
	Match         bool `json:"planned_matches_naive"`
	PushdownLimit int  `json:"pushdown_limit"`
	BoundFanout   int  `json:"bound_fanout"`
	StatsDigests  int  `json:"stats_digests_used"`

	NaiveMessages    float64 `json:"naive_messages_per_query"`
	PlannedMessages  float64 `json:"planned_messages_per_query"`
	SemiJoinMessages float64 `json:"semijoin_messages_per_query"`

	NaiveTriplesShipped    float64 `json:"naive_triples_shipped_per_query"`
	PlannedTriplesShipped  float64 `json:"planned_triples_shipped_per_query"`
	SemiJoinTriplesShipped float64 `json:"semijoin_triples_shipped_per_query"`
	FilterTriplesShipped   float64 `json:"semijoin_filter_triples_shipped_per_query"`

	// ShippingReduction is planned-vs-semi-join triples shipped (the filter
	// payload counted against semi-join) — the headline figure; ≥5x is the
	// acceptance bar.
	ShippingReduction float64 `json:"semijoin_vs_planned_shipping_reduction"`

	NaiveWallMs    float64 `json:"naive_wall_ms_per_query"`
	PlannedWallMs  float64 `json:"planned_wall_ms_per_query"`
	SemiJoinWallMs float64 `json:"semijoin_wall_ms_per_query"`
	Speedup        float64 `json:"semijoin_vs_planned_wall_clock_speedup"`
}

// RunSemiJoin builds the high-fan-out workload, publishes statistics
// digests, runs the same join through all three evaluators, and reports
// message, shipping, and wall-clock costs plus result equivalence.
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

	// Delays only once the data is loaded: setup is not the measurement.
	if cfg.TransitDelay > 0 {
		net.SetSendDelay(cfg.TransitDelay)
	}
	if cfg.PerTripleDelay > 0 {
		net.SetPayloadDelay(cfg.PerTripleDelay, mediation.PayloadTriples)
	}

	// The selective pattern binds x to BoundFanout distinct subjects —
	// far above the pushdown cap — before the hot pattern resolves.
	patterns := []triple.Pattern{
		{S: triple.Var("x"), P: triple.Const("A#len"), O: triple.Var("len")},
		{S: triple.Var("x"), P: triple.Const("A#grp"), O: triple.Const("grp-hot")},
	}
	base := mediation.SearchOptions{Parallelism: cfg.Parallelism}
	plannedOpts := base
	plannedOpts.DisableSemiJoin = true

	out := SemiJoinResult{
		Triples:       triples,
		Match:         true,
		PushdownLimit: mediation.DefaultPushdownLimit,
		BoundFanout:   cfg.BoundFanout,
	}
	naiveWall, plannedWall, sjWall := metrics.NewDistribution(), metrics.NewDistribution(), metrics.NewDistribution()
	naiveMsgs, plannedMsgs, sjMsgs := metrics.NewDistribution(), metrics.NewDistribution(), metrics.NewDistribution()
	naiveShip, plannedShip, sjShip := metrics.NewDistribution(), metrics.NewDistribution(), metrics.NewDistribution()
	sjFilter := metrics.NewDistribution()
	for q := 0; q < cfg.Queries; q++ {
		issuer := peers[rng.Intn(len(peers))]

		start := time.Now()
		naive, naiveStats, err := issuer.SearchConjunctiveNaive(ctx, patterns, false, base)
		if err != nil {
			return out, fmt.Errorf("naive query %d: %w", q, err)
		}
		naiveWall.Add(float64(time.Since(start).Microseconds()) / 1000)
		naiveMsgs.Add(float64(naiveStats.TotalMessages()))
		naiveShip.Add(float64(naiveStats.TriplesShipped))

		// Semi-join runs before the planned baseline so it pays its own
		// cold statistics fetch (the issuer's digest cache is empty); the
		// baseline inheriting the warm cache biases the message comparison
		// against the semi-join engine, never for it.
		start = time.Now()
		sj, sjStats, err := searchConjunctiveSet(ctx, issuer, patterns, false, base)
		if err != nil {
			return out, fmt.Errorf("semijoin query %d: %w", q, err)
		}
		sjWall.Add(float64(time.Since(start).Microseconds()) / 1000)
		sjMsgs.Add(float64(sjStats.TotalMessages()))
		sjShip.Add(float64(sjStats.TriplesShipped + sjStats.FilterTriplesShipped))
		sjFilter.Add(float64(sjStats.FilterTriplesShipped))
		out.StatsDigests = sjStats.StatsDigests
		if sjStats.SemiJoins == 0 {
			return out, fmt.Errorf("semijoin query %d: no semi-join fired (stats %+v)", q, sjStats)
		}

		start = time.Now()
		planned, plannedStats, err := searchConjunctiveSet(ctx, issuer, patterns, false, plannedOpts)
		if err != nil {
			return out, fmt.Errorf("planned query %d: %w", q, err)
		}
		plannedWall.Add(float64(time.Since(start).Microseconds()) / 1000)
		plannedMsgs.Add(float64(plannedStats.TotalMessages()))
		plannedShip.Add(float64(plannedStats.TriplesShipped + plannedStats.FilterTriplesShipped))

		out.Rows = sj.Len()
		if !sameBindings(naive, planned.ToBindings()) || !sameBindings(naive, sj.ToBindings()) {
			out.Match = false
		}
	}

	out.NaiveMessages = naiveMsgs.Mean()
	out.PlannedMessages = plannedMsgs.Mean()
	out.SemiJoinMessages = sjMsgs.Mean()
	out.NaiveTriplesShipped = naiveShip.Mean()
	out.PlannedTriplesShipped = plannedShip.Mean()
	out.SemiJoinTriplesShipped = sjShip.Mean()
	out.FilterTriplesShipped = sjFilter.Mean()
	out.NaiveWallMs = naiveWall.Mean()
	out.PlannedWallMs = plannedWall.Mean()
	out.SemiJoinWallMs = sjWall.Mean()
	if out.SemiJoinTriplesShipped > 0 {
		out.ShippingReduction = out.PlannedTriplesShipped / out.SemiJoinTriplesShipped
	}
	if out.SemiJoinWallMs > 0 {
		out.Speedup = out.PlannedWallMs / out.SemiJoinWallMs
	}
	return out, nil
}

// Table renders the comparison.
func (r SemiJoinResult) Table() string {
	t := metrics.NewTable("evaluator", "msgs/query", "shipped (incl. filters)", "wall ms/query")
	t.AddRow("naive", fmt.Sprintf("%.0f", r.NaiveMessages), fmt.Sprintf("%.0f", r.NaiveTriplesShipped), fmt.Sprintf("%.1f", r.NaiveWallMs))
	t.AddRow("planned (PR 2)", fmt.Sprintf("%.0f", r.PlannedMessages), fmt.Sprintf("%.0f", r.PlannedTriplesShipped), fmt.Sprintf("%.1f", r.PlannedWallMs))
	t.AddRow("semi-join", fmt.Sprintf("%.0f", r.SemiJoinMessages), fmt.Sprintf("%.0f", r.SemiJoinTriplesShipped), fmt.Sprintf("%.1f", r.SemiJoinWallMs))
	return t.String() +
		fmt.Sprintf("fan-out %d over cap %d; shipping reduction %.1fx, wall-clock speedup %.1fx, rows %d, digests %d, all match: %v\n",
			r.BoundFanout, r.PushdownLimit, r.ShippingReduction, r.Speedup, r.Rows, r.StatsDigests, r.Match)
}
