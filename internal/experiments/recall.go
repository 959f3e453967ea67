package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"gridvine/internal/bioworkload"
	"gridvine/internal/mediation"
	"gridvine/internal/metrics"
	"gridvine/internal/selforg"
)

// RecallConfig parameterizes EXP-D, the §4 demonstration storyline: "In a
// sparse network of mappings, few results get returned initially (low
// recall), while more and more results are retrieved as mappings get
// created automatically to ensure the global interoperability of the
// system."
type RecallConfig struct {
	Peers        int // default 64
	Schemas      int // default 20
	Entities     int // default 120
	SeedMappings int // default 3 (the sparse manual start)
	Rounds       int // default 8 self-organization rounds
	Queries      int // default 50
	// Parallelism is the reformulation fan-out width per query. Default 1:
	// serial keeps routing tie-breaks, and with them per-seed message
	// counts, exactly reproducible; raise it to exercise the concurrent
	// query path at experiment scale.
	Parallelism int
	Seed        int64
}

func (c RecallConfig) withDefaults() RecallConfig {
	setDefault(&c.Peers, 64)
	setDefault(&c.Parallelism, 1)
	setDefault(&c.Schemas, 20)
	setDefault(&c.Entities, 120)
	setDefault(&c.SeedMappings, 3)
	setDefault(&c.Rounds, 8)
	setDefault(&c.Queries, 50)
	return c
}

// RecallExperiment declares EXP-D at the given reformulation fan-out width.
// The registry holds the serial declaration (exactly reproducible message
// counts); gridvine-bench -parallel swaps in a wider one.
func RecallExperiment(parallelism int) Experiment {
	return declare("D", "recall growth under self-organization (paper §4 demonstration)",
		func(quick bool, seed int64) (RecallResult, error) {
			cfg := RecallConfig{Seed: seed, Parallelism: parallelism}
			if quick {
				cfg.Peers, cfg.Schemas, cfg.Entities, cfg.Rounds, cfg.Queries = 32, 10, 60, 5, 30
			}
			return RunRecall(cfg)
		})
}

// RecallPoint is one row of the recall-growth curve.
type RecallPoint struct {
	Round          int
	ActiveMappings int
	Deprecated     int
	CI             float64
	MeanRecall     float64
	MsgPerQuery    float64
}

// RecallResult is the full demonstration run.
type RecallResult struct {
	Triples int
	Points  []RecallPoint
}

// RunRecall reproduces the demonstration: insert the bio workload and a
// sparse set of manual mappings, measure recall, then alternate
// self-organization rounds with recall measurements while the network of
// mappings densifies.
func RunRecall(cfg RecallConfig) (RecallResult, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	w := bioworkload.Generate(bioworkload.Config{
		Schemas:  cfg.Schemas,
		Entities: cfg.Entities,
		Seed:     cfg.Seed + 1,
	})

	_, peers, err := newSimPeers(cfg.Peers, workloadKeySample(w, 2000, rng), rng)
	if err != nil {
		return RecallResult{}, err
	}
	if err := bulkInsert(peers[rng.Intn(len(peers))], w.Triples()); err != nil {
		return RecallResult{}, err
	}

	org, err := selforg.New(peers[0], selforg.Config{
		Domain:              w.Domain,
		MaxMappingsPerRound: 6,
		Rng:                 rand.New(rand.NewSource(cfg.Seed + 2)),
	})
	if err != nil {
		return RecallResult{}, err
	}
	ctx := context.Background()
	for _, info := range w.Schemas {
		if err := org.RegisterSchema(ctx, info.Schema); err != nil {
			return RecallResult{}, err
		}
	}
	for _, m := range w.SeedMappings(cfg.SeedMappings) {
		if _, err := peers[0].InsertMappingContext(ctx, m); err != nil {
			return RecallResult{}, err
		}
	}
	ms, err := org.GatherMappings(ctx)
	if err != nil {
		return RecallResult{}, err
	}
	if err := org.RefreshDegrees(ctx, ms); err != nil {
		return RecallResult{}, err
	}

	queries := w.Queries(cfg.Queries, rng)
	subjects := w.Subjects()

	out := RecallResult{Triples: len(w.Triples())}
	measure := func(round int) error {
		ms, err := org.GatherMappings(ctx)
		if err != nil {
			return err
		}
		report, err := org.Connectivity(ctx)
		if err != nil {
			return err
		}
		point := RecallPoint{
			Round:          round,
			ActiveMappings: len(ms.Active()),
			Deprecated:     ms.Len() - len(ms.Active()),
			CI:             report.CI,
		}
		point.MeanRecall, point.MsgPerQuery = measureRecall(peers, queries, rng, cfg.Parallelism)
		// Draw a second issuer per query, as when a recursive arm ran here, so
		// the curve stays comparable with the figures recorded before.
		for range queries {
			rng.Intn(len(peers))
		}
		out.Points = append(out.Points, point)
		return nil
	}

	if err := measure(0); err != nil {
		return out, err
	}
	for round := 1; round <= cfg.Rounds; round++ {
		if _, err := org.Round(ctx, subjects); err != nil {
			return out, err
		}
		if err := measure(round); err != nil {
			return out, err
		}
	}
	return out, nil
}

func measureRecall(peers []*mediation.Peer, queries []bioworkload.Query, rng *rand.Rand, parallelism int) (meanRecall, meanMsgs float64) {
	recall := metrics.NewDistribution()
	msgs := metrics.NewDistribution()
	ctx := context.Background()
	for _, q := range queries {
		issuer := peers[rng.Intn(len(peers))]
		rs, err := searchWithReformulation(ctx, issuer, q.Pattern, mediation.SearchOptions{Parallelism: parallelism})
		if err != nil {
			recall.Add(0)
			continue
		}
		recall.Add(q.Recall(rs.Triples()))
		msgs.Add(float64(rs.Messages))
	}
	return recall.Mean(), msgs.Mean()
}

// Table renders the growth curve.
func (r RecallResult) Table() string {
	t := metrics.NewTable("round", "active maps", "deprecated", "ci", "recall", "msg/q")
	for _, p := range r.Points {
		t.AddRow(
			fmt.Sprint(p.Round), fmt.Sprint(p.ActiveMappings), fmt.Sprint(p.Deprecated),
			fmt.Sprintf("%+.2f", p.CI),
			fmt.Sprintf("%.2f", p.MeanRecall), fmt.Sprintf("%.0f", p.MsgPerQuery),
		)
	}
	return fmt.Sprintf("workload: %d triples\n", r.Triples) + t.String()
}
