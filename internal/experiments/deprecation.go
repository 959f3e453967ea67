package experiments

import (
	"fmt"
	"math/rand"

	"gridvine/internal/bayes"
	"gridvine/internal/bioworkload"
	"gridvine/internal/metrics"
	"gridvine/internal/schema"
)

// DeprecationConfig parameterizes EXP-E: erroneous mappings are detected by
// the Bayesian analysis comparing transitive closures and deprecated
// (paper §3.2, §4).
type DeprecationConfig struct {
	Schemas int // default 20
	// GoodMappings is the number of correct (ground-truth) mappings laid
	// over the schemas. Default 30.
	GoodMappings int
	// BadCounts sweeps the number of planted erroneous mappings. Default
	// {1, 2, 4, 8}.
	BadCounts []int
	// Trials per point. Default 10.
	Trials int
	Seed   int64
}

func (c DeprecationConfig) withDefaults() DeprecationConfig {
	setDefault(&c.Schemas, 20)
	setDefault(&c.GoodMappings, 30)
	if len(c.BadCounts) == 0 {
		c.BadCounts = []int{1, 2, 4, 8}
	}
	setDefault(&c.Trials, 10)
	return c
}

var expE = declare("E", "Bayesian deprecation of erroneous mappings (paper §3.2)",
	func(quick bool, seed int64) (DeprecationResult, error) {
		cfg := DeprecationConfig{Seed: seed}
		if quick {
			cfg.Trials = 4
			cfg.BadCounts = []int{2, 4}
		}
		return RunDeprecation(cfg), nil
	})

// DeprecationPoint is one row of the detection-quality table.
type DeprecationPoint struct {
	Planted   int
	Detected  float64 // mean true positives
	FalsePos  float64 // mean good mappings wrongly deprecated
	Precision float64
	Recall    float64 // over all planted mappings
	Covered   float64 // mean planted mappings participating in ≥1 cycle
	// RecallCovered conditions recall on cycle coverage: a mapping that no
	// transitive closure traverses is undetectable by construction (the
	// analysis compares closures, §3.2), so this is the analysis's true
	// hit rate.
	RecallCovered float64
	MeanCycles    float64
}

// DeprecationResult is the sweep.
type DeprecationResult struct {
	Points []DeprecationPoint
}

// RunDeprecation plants corrupted mappings among ground-truth ones over
// bio-workload schemas and measures the Bayesian analysis's detection
// precision/recall.
func RunDeprecation(cfg DeprecationConfig) DeprecationResult {
	cfg = cfg.withDefaults()
	var out DeprecationResult
	for _, bad := range cfg.BadCounts {
		var tp, fp, fn, cycles, covered, tpCovered float64
		for trial := 0; trial < cfg.Trials; trial++ {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(bad*1000+trial)))
			ms, badIDs := plantedMappingSet(cfg, bad, rng)
			assessment := bayes.Assess(ms, bayes.AssessorConfig{MaxCycleLen: 5})
			cycles += float64(len(assessment.Evidence))
			inCycle := map[string]bool{}
			for _, ev := range assessment.Evidence {
				for _, id := range ev.MappingIDs {
					inCycle[id] = true
				}
			}
			deprecated := map[string]bool{}
			for _, id := range assessment.ToDeprecate {
				deprecated[id] = true
			}
			for id := range badIDs {
				if inCycle[id] {
					covered++
				}
				if deprecated[id] {
					tp++
					if inCycle[id] {
						tpCovered++
					}
				} else {
					fn++
				}
			}
			for _, id := range assessment.ToDeprecate {
				if !badIDs[id] {
					fp++
				}
			}
		}
		n := float64(cfg.Trials)
		point := DeprecationPoint{
			Planted:    bad,
			Detected:   tp / n,
			FalsePos:   fp / n,
			Covered:    covered / n,
			MeanCycles: cycles / n,
		}
		if tp+fp > 0 {
			point.Precision = tp / (tp + fp)
		} else {
			point.Precision = 1
		}
		if tp+fn > 0 {
			point.Recall = tp / (tp + fn)
		}
		if covered > 0 {
			point.RecallCovered = tpCovered / covered
		}
		out.Points = append(out.Points, point)
	}
	return out
}

// plantedMappingSet builds GoodMappings correct mappings from workload
// ground truth plus badCount corrupted mappings (shifted correspondences),
// returning the set and the bad IDs.
func plantedMappingSet(cfg DeprecationConfig, badCount int, rng *rand.Rand) (*schema.MappingSet, map[string]bool) {
	w := bioworkload.Generate(bioworkload.Config{
		Schemas:  cfg.Schemas,
		Entities: 10, // schemas only; entities irrelevant here
		Seed:     rng.Int63(),
	})
	names := w.SchemaNames()
	ms := schema.NewMappingSet()

	// Good mappings: a ring (guaranteeing cycles) plus random chords.
	addGood := func(a, b string) {
		if m, ok := w.GroundTruthMapping(a, b); ok {
			// Automatic origin with an optimistic prior: the analysis must
			// judge them on cycle evidence, not on trust.
			am := schema.NewMapping(m.Source, m.Target, m.Type, schema.Automatic, m.Correspondences)
			am.Bidirectional = true
			am.Confidence = 0.8
			ms.Add(am)
		}
	}
	for i := range names {
		addGood(names[i], names[(i+1)%len(names)])
	}
	for ms.Len() < cfg.GoodMappings {
		a := names[rng.Intn(len(names))]
		b := names[rng.Intn(len(names))]
		if a != b {
			addGood(a, b)
		}
	}

	// Bad mappings: ground-truth pairs with correspondences derived from a
	// cyclic shift of the target attributes — plausible shape, wrong
	// semantics.
	badIDs := map[string]bool{}
	attempts := 0
	planted := 0
	for planted < badCount && attempts < 1000 {
		attempts++
		a := names[rng.Intn(len(names))]
		b := names[rng.Intn(len(names))]
		if a == b {
			continue
		}
		gt, ok := w.GroundTruthMapping(a, b)
		if !ok || len(gt.Correspondences) < 2 {
			continue
		}
		corrs := make([]schema.Correspondence, len(gt.Correspondences))
		for i, c := range gt.Correspondences {
			corrs[i] = schema.Correspondence{
				SourceAttr: c.SourceAttr,
				TargetAttr: gt.Correspondences[(i+1)%len(gt.Correspondences)].TargetAttr,
				Confidence: 0.8,
			}
		}
		bad := schema.NewMapping(a, b, schema.Equivalence, schema.Automatic, corrs)
		bad.Bidirectional = true
		bad.Confidence = 0.8
		if _, exists := ms.Get(bad.ID); exists {
			continue
		}
		ms.Add(bad)
		badIDs[bad.ID] = true
		planted++
	}
	return ms, badIDs
}

// Table renders the sweep.
func (r DeprecationResult) Table() string {
	t := metrics.NewTable("planted bad", "in cycles", "detected", "false pos", "precision", "recall", "recall|covered", "cycles")
	for _, p := range r.Points {
		t.AddRow(
			fmt.Sprint(p.Planted),
			fmt.Sprintf("%.1f", p.Covered),
			fmt.Sprintf("%.1f", p.Detected),
			fmt.Sprintf("%.1f", p.FalsePos),
			fmt.Sprintf("%.2f", p.Precision),
			fmt.Sprintf("%.2f", p.Recall),
			fmt.Sprintf("%.2f", p.RecallCovered),
			fmt.Sprintf("%.0f", p.MeanCycles),
		)
	}
	return t.String()
}
