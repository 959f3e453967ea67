package experiments

import (
	"errors"
	"fmt"
	"math/rand"

	"gridvine/internal/graph"
	"gridvine/internal/metrics"
	"gridvine/internal/schema"
)

// ConnectivityConfig parameterizes EXP-C: the connectivity indicator
// ci = Σ (jk − k) p_jk crosses zero exactly when a giant connected
// component emerges in the graph of schemas and mappings (paper §3.1).
type ConnectivityConfig struct {
	// Schemas is the schema count (paper demonstration: 50).
	Schemas int
	// MappingCounts is the sweep over the number of mappings. Default
	// 0..150 step 10.
	MappingCounts []int
	// Trials per point. Default 30.
	Trials int
	Seed   int64
}

func (c ConnectivityConfig) withDefaults() ConnectivityConfig {
	setDefault(&c.Schemas, 50)
	if len(c.MappingCounts) == 0 {
		for m := 0; m <= 150; m += 10 {
			c.MappingCounts = append(c.MappingCounts, m)
		}
	}
	setDefault(&c.Trials, 30)
	return c
}

var expC = declare("C", "connectivity indicator vs giant component (paper §3.1), 50 schemas",
	func(quick bool, seed int64) (ConnectivityResult, error) {
		cfg := ConnectivityConfig{Seed: seed}
		if quick {
			cfg.Trials = 10
		}
		return RunConnectivity(cfg), nil
	})

// ConnectivityPoint is one row of the emergence curve.
type ConnectivityPoint struct {
	Mappings     int
	MeanCI       float64
	FracCIPos    float64 // fraction of trials with ci ≥ 0
	MeanWCCFrac  float64 // mean largest weakly connected component fraction
	MeanSCCFrac  float64 // mean largest strongly connected component fraction
	GiantPredict bool    // indicator's verdict at the mean
}

// ConnectivityResult is the sweep.
type ConnectivityResult struct {
	Schemas int
	Points  []ConnectivityPoint
}

// RunConnectivity sweeps the number of random mappings over a fixed schema
// population, computing the ci indicator from the mapping set's degree
// distribution (exactly the statistic the domain registry aggregates) and
// comparing it against the directly measured component structure.
func RunConnectivity(cfg ConnectivityConfig) ConnectivityResult {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	names := make([]string, cfg.Schemas)
	for i := range names {
		names[i] = fmt.Sprintf("S%02d", i)
	}

	out := ConnectivityResult{Schemas: cfg.Schemas}
	for _, m := range cfg.MappingCounts {
		var ciSum, wccSum, sccSum float64
		ciPos := 0
		for trial := 0; trial < cfg.Trials; trial++ {
			ms := randomMappingSet(names, m, rng)
			g := ms.Graph(names)
			ci := graph.ConnectivityIndicatorOf(g)
			ciSum += ci
			if ci >= 0 {
				ciPos++
			}
			wccSum += g.LargestWCCFraction()
			sccSum += g.LargestSCCFraction()
		}
		n := float64(cfg.Trials)
		out.Points = append(out.Points, ConnectivityPoint{
			Mappings:     m,
			MeanCI:       ciSum / n,
			FracCIPos:    float64(ciPos) / n,
			MeanWCCFrac:  wccSum / n,
			MeanSCCFrac:  sccSum / n,
			GiantPredict: ciSum/n >= 0,
		})
	}
	return out
}

// randomMappingSet builds m distinct unidirectional mappings between random
// schema pairs.
func randomMappingSet(names []string, m int, rng *rand.Rand) *schema.MappingSet {
	ms := schema.NewMappingSet()
	seen := map[[2]string]bool{}
	attempts := 0
	for ms.Len() < m && attempts < 50*m+100 {
		attempts++
		a := names[rng.Intn(len(names))]
		b := names[rng.Intn(len(names))]
		if a == b || seen[[2]string{a, b}] {
			continue
		}
		seen[[2]string{a, b}] = true
		ms.Add(schema.NewMapping(a, b, schema.Equivalence, schema.Automatic,
			[]schema.Correspondence{{SourceAttr: "attr", TargetAttr: "attr", Confidence: 0.9}}))
	}
	return ms
}

// Table renders the emergence curve.
func (r ConnectivityResult) Table() string {
	t := metrics.NewTable("mappings", "mean ci", "P(ci≥0)", "largest WCC", "largest SCC")
	for _, p := range r.Points {
		t.AddRow(
			fmt.Sprint(p.Mappings),
			fmt.Sprintf("%+.3f", p.MeanCI),
			fmt.Sprintf("%.2f", p.FracCIPos),
			fmt.Sprintf("%.2f", p.MeanWCCFrac),
			fmt.Sprintf("%.2f", p.MeanSCCFrac),
		)
	}
	return t.String() + fmt.Sprintf("ci crosses 0 at ≈%d mappings\n", r.CrossoverMappings())
}

// giantFraction is the share of the schemas a largest weakly connected
// component must hold to count as giant: a majority.
const giantFraction = 0.5

// Check holds the paper's claim (§3.1): where every trial's ci is ≥ 0 the
// largest weakly connected component is giant, and where none is it is
// not. The 0-mapping row is left out — its ci is 0 by construction — and
// at least one row of each kind must exist.
func (r ConnectivityResult) Check() error {
	var errs []error
	positive, negative := 0, 0
	for _, p := range r.Points {
		switch {
		case p.Mappings == 0:
		case p.FracCIPos == 1:
			positive++
			if p.MeanWCCFrac <= giantFraction {
				errs = append(errs, fmt.Errorf("%d mappings: P(ci≥0) = 1 but largest WCC = %.2f, want > %.1f", p.Mappings, p.MeanWCCFrac, giantFraction))
			}
		case p.FracCIPos == 0:
			negative++
			if p.MeanWCCFrac >= giantFraction {
				errs = append(errs, fmt.Errorf("%d mappings: P(ci≥0) = 0 but largest WCC = %.2f, want < %.1f", p.Mappings, p.MeanWCCFrac, giantFraction))
			}
		}
	}
	if positive == 0 || negative == 0 {
		errs = append(errs, fmt.Errorf("%d rows with P(ci≥0) = 1 and %d with 0 among those with mappings, want at least one of each", positive, negative))
	}
	return errors.Join(errs...)
}

// CrossoverMappings returns the first non-degenerate mapping count at which
// the mean ci turns non-negative (-1 if never). The empty graph is skipped:
// with no mappings at all every degree is zero and the indicator is
// trivially 0 without signalling connectivity.
func (r ConnectivityResult) CrossoverMappings() int {
	for _, p := range r.Points {
		if p.Mappings > 0 && p.MeanCI >= 0 {
			return p.Mappings
		}
	}
	return -1
}
