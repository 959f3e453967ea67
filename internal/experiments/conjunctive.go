package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"gridvine/internal/mediation"
	"gridvine/internal/metrics"
	"gridvine/internal/triple"
)

// ConjunctiveConfig parameterizes EXP-K, the conjunctive query planner
// evaluation: a skewed selective-join workload (two hot predicates whose
// extensions cover every entity, one rare constant matching a handful)
// executed by the naive left-to-right evaluator and by the planning engine
// (selectivity ordering, bound-value pushdown, hash joins), over a simnet
// with WAN-scale transit and bandwidth delays.
type ConjunctiveConfig struct {
	Peers       int // default 64
	HotEntities int // entities carrying the hot predicates; default 8000
	RareMatches int // entities matching the selective constant; default 6
	Species     int // spread of the skewed A#org distribution; default 50
	Queries     int // measured repetitions per evaluator; default 2
	WANModel
	// Parallelism is the engine's worker-pool width (default
	// mediation.DefaultParallelism).
	Parallelism int
	Seed        int64
}

func (c ConjunctiveConfig) withDefaults() ConjunctiveConfig {
	setDefault(&c.Peers, 64)
	setDefault(&c.HotEntities, 8000)
	setDefault(&c.RareMatches, 6)
	setDefault(&c.Species, 50)
	setDefault(&c.Queries, 2)
	c.WANModel = c.WANModel.withDefaults()
	return c
}

var expK = declare("K", "conjunctive query planner vs naive evaluator (selectivity ordering, pushdown, hash joins)",
	func(quick bool, seed int64) (ConjunctiveResult, error) {
		cfg := ConjunctiveConfig{Seed: seed}
		if quick {
			cfg.Peers, cfg.HotEntities, cfg.RareMatches, cfg.Queries = 32, 1500, 4, 2
		}
		return RunConjunctive(cfg)
	})

// ConjunctiveResult reports the planner-vs-naive comparison. All per-query
// figures are means over cfg.Queries repetitions.
type ConjunctiveResult struct {
	Triples int  `json:"triples"`
	Rows    int  `json:"rows"`
	Match   bool `json:"planned_matches_naive"`

	NaiveMessages   float64 `json:"naive_messages_per_query"`
	PlannedMessages float64 `json:"planned_messages_per_query"`

	NaiveFrameBytes   float64 `json:"naive_frame_bytes_per_query"`
	PlannedFrameBytes float64 `json:"planned_frame_bytes_per_query"`
	ByteReduction     float64 `json:"frame_byte_reduction"`

	NaiveTriplesShipped   float64 `json:"naive_triples_shipped_per_query"`
	PlannedTriplesShipped float64 `json:"planned_triples_shipped_per_query"`

	NaiveWallMs   float64 `json:"naive_wall_ms_per_query"`
	PlannedWallMs float64 `json:"planned_wall_ms_per_query"`
	Speedup       float64 `json:"wall_clock_speedup"`
}

// RunConjunctive builds the workload, runs the same worst-case-ordered
// conjunctive query through both evaluators, and reports the messages and
// frame bytes the transport carried, the triples shipped and wall-clock
// costs, plus a result-equivalence check.
func RunConjunctive(cfg ConjunctiveConfig) (ConjunctiveResult, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	net, peers, err := newSimPeers(cfg.Peers, nil, rng)
	if err != nil {
		return ConjunctiveResult{}, err
	}

	var dataset []triple.Triple
	insert := func(s, p, o string) {
		dataset = append(dataset, triple.Triple{Subject: s, Predicate: p, Object: o})
	}
	for e := 0; e < cfg.HotEntities; e++ {
		s := fmt.Sprintf("acc:%06d", e)
		org := fmt.Sprintf("species-%d", zipfish(rng, cfg.Species))
		if e < cfg.RareMatches {
			org = "species-rare"
		}
		insert(s, "A#org", org)
		insert(s, "A#len", fmt.Sprint(100+e))
		insert(s, "A#ref", fmt.Sprintf("ref-%d", e%97))
	}
	if err := bulkInsert(peers[rng.Intn(len(peers))], dataset); err != nil {
		return ConjunctiveResult{}, err
	}
	triples := len(dataset)

	cfg.apply(net)

	// Worst-case declaration order: both hot patterns before the rare one.
	patterns := []triple.Pattern{
		{S: triple.Var("x"), P: triple.Const("A#len"), O: triple.Var("len")},
		{S: triple.Var("x"), P: triple.Const("A#ref"), O: triple.Var("ref")},
		{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Const("species-rare")},
	}
	opts := mediation.SearchOptions{Parallelism: cfg.Parallelism}

	out := ConjunctiveResult{Triples: triples, Match: true}
	naiveArm, plannedArm := armCost{net: net}, armCost{net: net}
	ctx := context.Background()
	for q := 0; q < cfg.Queries; q++ {
		issuer := peers[rng.Intn(len(peers))]

		naiveArm.begin()
		naive, naiveStats, err := issuer.SearchConjunctiveNaive(ctx, patterns, false, opts)
		if err != nil {
			return out, fmt.Errorf("naive query %d: %w", q, err)
		}
		naiveArm.add(naiveStats.TriplesShipped)

		plannedArm.begin()
		planned, plannedStats, err := searchConjunctiveSet(ctx, issuer, patterns, false, opts)
		if err != nil {
			return out, fmt.Errorf("planned query %d: %w", q, err)
		}
		plannedArm.add(plannedStats.TriplesShipped)

		out.Rows = planned.Len()
		if !sameBindings(naive, planned.ToBindings()) {
			out.Match = false
		}
	}

	out.NaiveMessages = naiveArm.msgs.Mean()
	out.PlannedMessages = plannedArm.msgs.Mean()
	out.NaiveFrameBytes = naiveArm.bytes.Mean()
	out.PlannedFrameBytes = plannedArm.bytes.Mean()
	out.NaiveTriplesShipped = naiveArm.shipped.Mean()
	out.PlannedTriplesShipped = plannedArm.shipped.Mean()
	out.NaiveWallMs = naiveArm.wallMs()
	out.PlannedWallMs = plannedArm.wallMs()
	if out.PlannedFrameBytes > 0 {
		out.ByteReduction = out.NaiveFrameBytes / out.PlannedFrameBytes
	}
	if out.PlannedWallMs > 0 {
		out.Speedup = out.NaiveWallMs / out.PlannedWallMs
	}
	return out, net.SizeErr()
}

// zipfish draws a skewed species index: low indices are hot, the tail long.
func zipfish(rng *rand.Rand, n int) int {
	v := int(rng.ExpFloat64() * float64(n) / 4)
	if v >= n {
		v = n - 1
	}
	return v
}

// sameBindings compares two binding lists as sets of canonical rows.
func sameBindings(a, b []triple.Bindings) bool {
	key := func(bs []triple.Bindings) string {
		rows := make([]string, 0, len(bs))
		seen := map[string]bool{}
		for _, m := range bs {
			vars := make([]string, 0, len(m))
			for v := range m {
				vars = append(vars, v)
			}
			sort.Strings(vars)
			var sb strings.Builder
			for _, v := range vars {
				fmt.Fprintf(&sb, "%s=%s;", v, m[v])
			}
			if !seen[sb.String()] {
				seen[sb.String()] = true
				rows = append(rows, sb.String())
			}
		}
		sort.Strings(rows)
		return strings.Join(rows, "\n")
	}
	return key(a) == key(b)
}

// Check is EXP-K's gate: the planner returns the naive evaluator's rows
// with at most half the frame bytes and a tenth of the shipped triples. It
// may send more messages: each pushdown lookup is one more small request.
func (r ConjunctiveResult) Check() error {
	switch {
	case !r.Match:
		return errors.New("planned execution diverged from the naive evaluator")
	case r.ByteReduction < 2:
		return fmt.Errorf("frame bytes: planned %.0f vs naive %.0f, want ≥2x reduction",
			r.PlannedFrameBytes, r.NaiveFrameBytes)
	case r.PlannedTriplesShipped*10 > r.NaiveTriplesShipped:
		return fmt.Errorf("triples shipped: planned %.0f vs naive %.0f, want ≥10x reduction",
			r.PlannedTriplesShipped, r.NaiveTriplesShipped)
	}
	return nil
}

// Table renders the comparison.
func (r ConjunctiveResult) Table() string {
	t := metrics.NewTable("evaluator", "msgs/query", "frame bytes/query", "triples shipped", "wall ms/query")
	t.AddRow("naive", fmt.Sprintf("%.1f", r.NaiveMessages), fmt.Sprintf("%.0f", r.NaiveFrameBytes), fmt.Sprintf("%.0f", r.NaiveTriplesShipped), fmt.Sprintf("%.1f", r.NaiveWallMs))
	t.AddRow("planned", fmt.Sprintf("%.1f", r.PlannedMessages), fmt.Sprintf("%.0f", r.PlannedFrameBytes), fmt.Sprintf("%.0f", r.PlannedTriplesShipped), fmt.Sprintf("%.1f", r.PlannedWallMs))
	return t.String() +
		fmt.Sprintf("frame-byte reduction %.1fx, wall-clock speedup %.1fx, rows %d, planned==naive: %v\n",
			r.ByteReduction, r.Speedup, r.Rows, r.Match)
}
