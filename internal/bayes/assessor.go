package bayes

import (
	"math"
	"sort"

	"gridvine/internal/schema"
)

// AssessorConfig tunes the probabilistic analysis.
type AssessorConfig struct {
	// MaxCycleLen bounds the transitive closures compared. Default 4.
	MaxCycleLen int
}

const (
	// epsilon is P(cycle observed inconsistent | all mappings correct):
	// noise from partial correspondences.
	epsilon = 0.05
	// delta is P(cycle observed consistent | ≥1 mapping incorrect): the
	// chance a wrong mapping still returns attributes to themselves.
	delta = 0.1
	// consistencyThreshold classifies a cycle as consistent when the
	// identity fraction is at least this.
	consistencyThreshold = 0.7
	// deprecationThreshold deprecates automatic mappings whose posterior
	// falls below it.
	deprecationThreshold = 0.4
	// maxIterations bounds message passing.
	maxIterations = 50
	// damping mixes old and new beliefs per iteration.
	damping = 0.3
)

// CycleEvidence is one observed transitive closure with its verdict.
type CycleEvidence struct {
	MappingIDs  []string
	Schemas     []string
	Consistency float64
	Consistent  bool
}

// Assessment is the outcome of one analysis round.
type Assessment struct {
	// Posteriors maps every active mapping ID to P(correct | evidence).
	Posteriors map[string]float64
	// Evidence lists the informative cycles that were evaluated.
	Evidence []CycleEvidence
	// ToDeprecate lists automatic mappings whose posterior fell below the
	// deprecation threshold.
	ToDeprecate []string
	// Iterations is the number of message-passing rounds run.
	Iterations int
}

// Assess runs cycle enumeration and probabilistic message passing over the
// active mappings of the set. It does not mutate the set; callers apply
// ToDeprecate themselves (e.g. by publishing deprecations into the overlay).
func Assess(ms *schema.MappingSet, cfg AssessorConfig) Assessment {
	if cfg.MaxCycleLen == 0 {
		cfg.MaxCycleLen = 4
	}

	active := ms.Active()
	prior := map[string]float64{}
	manual := map[string]bool{}
	for _, m := range active {
		p := m.Confidence
		if m.Origin == schema.Manual {
			manual[m.ID] = true
			p = 1.0
		}
		prior[m.ID] = clampProb(p)
	}

	cycles := EnumerateCycles(ms, cfg.MaxCycleLen)
	var evidence []CycleEvidence
	type factor struct {
		members    []string
		consistent bool
	}
	var factors []factor
	byMapping := map[string][]int{}
	for _, c := range cycles {
		if !c.Informative {
			continue
		}
		ev := CycleEvidence{
			MappingIDs:  c.MappingIDs(),
			Schemas:     c.Schemas,
			Consistency: c.Consistency,
			Consistent:  c.Consistency >= consistencyThreshold,
		}
		evidence = append(evidence, ev)
		idx := len(factors)
		factors = append(factors, factor{members: ev.MappingIDs, consistent: ev.Consistent})
		for _, id := range ev.MappingIDs {
			byMapping[id] = append(byMapping[id], idx)
		}
	}

	// Iterative belief update: for each automatic mapping, combine its prior
	// with the likelihood of each incident cycle observation, using current
	// beliefs for the other members.
	belief := map[string]float64{}
	for id, p := range prior {
		belief[id] = p
	}
	iterations := 0
	for iter := 0; iter < maxIterations; iter++ {
		iterations = iter + 1
		maxDelta := 0.0
		for _, m := range active {
			id := m.ID
			if manual[id] {
				continue
			}
			logL1 := 0.0 // log P(evidence | correct)
			logL0 := 0.0 // log P(evidence | incorrect)
			for _, fi := range byMapping[id] {
				f := factors[fi]
				// q = P(all other members correct) under current beliefs.
				q := 1.0
				for _, other := range f.members {
					if other != id {
						q *= belief[other]
					}
				}
				var l1, l0 float64
				if f.consistent {
					l1 = q*(1-epsilon) + (1-q)*delta
					l0 = delta
				} else {
					l1 = q*epsilon + (1-q)*(1-delta)
					l0 = 1 - delta
				}
				logL1 += math.Log(clampProb(l1))
				logL0 += math.Log(clampProb(l0))
			}
			p := prior[id]
			num := p * math.Exp(logL1)
			den := num + (1-p)*math.Exp(logL0)
			post := p
			if den > 0 {
				post = num / den
			}
			post = damping*belief[id] + (1-damping)*post
			if d := math.Abs(post - belief[id]); d > maxDelta {
				maxDelta = d
			}
			belief[id] = post
		}
		if maxDelta < 1e-6 {
			break
		}
	}

	out := Assessment{Posteriors: belief, Evidence: evidence, Iterations: iterations}
	for _, m := range active {
		if manual[m.ID] {
			continue
		}
		if belief[m.ID] < deprecationThreshold {
			out.ToDeprecate = append(out.ToDeprecate, m.ID)
		}
	}
	sort.Strings(out.ToDeprecate)
	return out
}

func clampProb(p float64) float64 {
	const eps = 1e-6
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
}
