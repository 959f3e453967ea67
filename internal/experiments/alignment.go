package experiments

import (
	"fmt"
	"math/rand"

	"gridvine/internal/align"
	"gridvine/internal/bioworkload"
	"gridvine/internal/metrics"
)

// AlignmentConfig parameterizes EXP-J, the ablation of §4's matcher design:
// mappings are created "using a combination of lexicographical measures and
// set distance measures between the predicates defined in both schemas".
// This ablation scores the two measures separately and combined against the
// workload's ground-truth correspondences, as a function of how many shared
// instances are available.
type AlignmentConfig struct {
	Schemas  int // default 20
	Entities int // default 150
	// SharedSamples sweeps the number of shared instances the matcher may
	// inspect. Default {0, 2, 5, 10, 25}.
	SharedSamples []int
	// Pairs is the number of schema pairs evaluated per point. Default 40.
	Pairs int
	Seed  int64
}

func (c AlignmentConfig) withDefaults() AlignmentConfig {
	setDefault(&c.Schemas, 20)
	setDefault(&c.Entities, 150)
	if len(c.SharedSamples) == 0 {
		c.SharedSamples = []int{0, 2, 5, 10, 25}
	}
	setDefault(&c.Pairs, 40)
	return c
}

var expJ = declare("J", "ablation: lexical vs set-distance vs combined matcher (paper §4 design)",
	func(quick bool, seed int64) (AlignmentResult, error) {
		cfg := AlignmentConfig{Seed: seed}
		if quick {
			cfg.Schemas, cfg.Entities, cfg.Pairs = 10, 80, 20
		}
		return RunAlignment(cfg), nil
	})

// AlignmentPoint is one row of the matcher-quality table.
type AlignmentPoint struct {
	SharedInstances int
	// Precision/recall of emitted correspondences vs ground truth.
	LexPrecision, LexRecall           float64
	SetPrecision, SetRecall           float64
	CombinedPrecision, CombinedRecall float64
}

// AlignmentResult is the sweep.
type AlignmentResult struct {
	Points []AlignmentPoint
}

// RunAlignment evaluates the three matcher variants on random schema pairs
// of the bio workload, using entity values directly (ground-truth instance
// data) so the measurement isolates matcher quality from network effects.
func RunAlignment(cfg AlignmentConfig) AlignmentResult {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := bioworkload.Generate(bioworkload.Config{
		Schemas:  cfg.Schemas,
		Entities: cfg.Entities,
		Seed:     cfg.Seed + 1,
	})

	variants := []struct {
		name string
		cfg  align.MatcherConfig
	}{
		{"lex", align.MatcherConfig{LexWeight: 1, SetWeight: 0.0001}},
		{"set", align.MatcherConfig{LexWeight: 0.0001, SetWeight: 1}},
		{"combined", align.MatcherConfig{LexWeight: 0.4, SetWeight: 0.6}},
	}

	var out AlignmentResult
	for _, shared := range cfg.SharedSamples {
		scores := map[string]*prf{}
		for _, v := range variants {
			scores[v.name] = &prf{}
		}
		for pair := 0; pair < cfg.Pairs; pair++ {
			a := w.Schemas[rng.Intn(len(w.Schemas))]
			b := w.Schemas[rng.Intn(len(w.Schemas))]
			if a.Schema.Name == b.Schema.Name {
				continue
			}
			srcData, tgtData := pairAttrData(w, a, b, shared, rng)
			truth := map[[2]string]bool{}
			for concept, attrA := range a.ConceptAttr {
				if attrB, ok := b.ConceptAttr[concept]; ok {
					truth[[2]string{attrA, attrB}] = true
				}
			}
			for _, v := range variants {
				corrs := align.Align(srcData, tgtData, v.cfg)
				s := scores[v.name]
				for _, c := range corrs {
					if truth[[2]string{c.SourceAttr, c.TargetAttr}] {
						s.tp++
					} else {
						s.fp++
					}
				}
				s.truth += len(truth)
			}
		}
		point := AlignmentPoint{SharedInstances: shared}
		point.LexPrecision, point.LexRecall = scores["lex"].rates()
		point.SetPrecision, point.SetRecall = scores["set"].rates()
		point.CombinedPrecision, point.CombinedRecall = scores["combined"].rates()
		out.Points = append(out.Points, point)
	}
	return out
}

type prf struct {
	tp, fp, truth int
}

func (s *prf) rates() (precision, recall float64) {
	if s.tp+s.fp > 0 {
		precision = float64(s.tp) / float64(s.tp+s.fp)
	} else {
		precision = 1
	}
	if s.truth > 0 {
		recall = float64(s.tp) / float64(s.truth)
	}
	return precision, recall
}

// pairAttrData builds the matcher inputs for a schema pair from up to
// `shared` entities covered by both schemas.
func pairAttrData(w *bioworkload.Workload, a, b bioworkload.SchemaInfo, shared int, rng *rand.Rand) (src, tgt []align.AttrData) {
	valuesA := map[string][]string{}
	valuesB := map[string][]string{}
	count := 0
	perm := rng.Perm(len(w.Entities))
	for _, idx := range perm {
		if count >= shared {
			break
		}
		e := w.Entities[idx]
		inA, inB := false, false
		for _, s := range e.Schemas {
			if s == a.Schema.Name {
				inA = true
			}
			if s == b.Schema.Name {
				inB = true
			}
		}
		if !inA || !inB {
			continue
		}
		count++
		for concept, attr := range a.ConceptAttr {
			valuesA[attr] = append(valuesA[attr], e.Values[concept])
		}
		for concept, attr := range b.ConceptAttr {
			valuesB[attr] = append(valuesB[attr], e.Values[concept])
		}
	}
	for _, attr := range a.Schema.Attributes {
		src = append(src, align.AttrData{Name: attr, Values: valuesA[attr]})
	}
	for _, attr := range b.Schema.Attributes {
		tgt = append(tgt, align.AttrData{Name: attr, Values: valuesB[attr]})
	}
	return src, tgt
}

// Table renders the sweep.
func (r AlignmentResult) Table() string {
	t := metrics.NewTable("shared inst", "lex P", "lex R", "set P", "set R", "comb P", "comb R")
	for _, p := range r.Points {
		t.AddRow(
			fmt.Sprint(p.SharedInstances),
			fmt.Sprintf("%.2f", p.LexPrecision), fmt.Sprintf("%.2f", p.LexRecall),
			fmt.Sprintf("%.2f", p.SetPrecision), fmt.Sprintf("%.2f", p.SetRecall),
			fmt.Sprintf("%.2f", p.CombinedPrecision), fmt.Sprintf("%.2f", p.CombinedRecall),
		)
	}
	return t.String()
}
