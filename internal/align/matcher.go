package align

import (
	"sort"

	"gridvine/internal/schema"
)

// AttrData is one attribute of a schema together with the values it takes
// on the instances shared with the candidate partner schema. Empty Values
// means no shared instances carried this attribute; the matcher then falls
// back to the lexical signal alone.
type AttrData struct {
	Name   string
	Values []string
}

// MatcherConfig tunes the combined matcher.
type MatcherConfig struct {
	// LexWeight and SetWeight combine the two measures; they are normalized
	// internally. Defaults 0.4 / 0.6 (value evidence is stronger than name
	// evidence when shared instances exist).
	LexWeight float64
	SetWeight float64
}

// threshold is the minimum combined score for a correspondence to be
// emitted.
const threshold = 0.5

func (c MatcherConfig) withDefaults() MatcherConfig {
	if c.LexWeight == 0 && c.SetWeight == 0 {
		c.LexWeight, c.SetWeight = 0.4, 0.6
	}
	return c
}

// PairScore is the matcher's verdict on one attribute pair.
type PairScore struct {
	SourceAttr string
	TargetAttr string
	Lexical    float64
	Set        float64
	Combined   float64
}

// ScorePairs computes the combined score of every source×target attribute
// pair, sorted by descending combined score (ties broken by names for
// determinism).
func ScorePairs(source, target []AttrData, cfg MatcherConfig) []PairScore {
	cfg = cfg.withDefaults()
	wl, ws := cfg.LexWeight, cfg.SetWeight
	norm := wl + ws
	wl, ws = wl/norm, ws/norm

	var out []PairScore
	for _, s := range source {
		for _, t := range target {
			lex := LexicalSimilarity(s.Name, t.Name)
			var combined, set float64
			if len(s.Values) == 0 || len(t.Values) == 0 {
				// No shared-instance evidence: lexical only, discounted so a
				// name-only match cannot outrank a value-confirmed one.
				combined = lex * wl
			} else {
				set = SetSimilarity(s.Values, t.Values)
				combined = wl*lex + ws*set
			}
			out = append(out, PairScore{
				SourceAttr: s.Name,
				TargetAttr: t.Name,
				Lexical:    lex,
				Set:        set,
				Combined:   combined,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Combined != out[j].Combined {
			return out[i].Combined > out[j].Combined
		}
		if out[i].SourceAttr != out[j].SourceAttr {
			return out[i].SourceAttr < out[j].SourceAttr
		}
		return out[i].TargetAttr < out[j].TargetAttr
	})
	return out
}

// Align produces one-to-one attribute correspondences between two schemas
// by greedy best-first assignment over the scored pairs, keeping only pairs
// at or above the threshold. The Confidence of each correspondence is its
// combined score.
func Align(source, target []AttrData, cfg MatcherConfig) []schema.Correspondence {
	cfg = cfg.withDefaults()
	usedSrc := map[string]bool{}
	usedTgt := map[string]bool{}
	var out []schema.Correspondence
	for _, p := range ScorePairs(source, target, cfg) {
		if p.Combined < threshold {
			break
		}
		if usedSrc[p.SourceAttr] || usedTgt[p.TargetAttr] {
			continue
		}
		usedSrc[p.SourceAttr] = true
		usedTgt[p.TargetAttr] = true
		out = append(out, schema.Correspondence{
			SourceAttr: p.SourceAttr,
			TargetAttr: p.TargetAttr,
			Confidence: p.Combined,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SourceAttr < out[j].SourceAttr })
	return out
}
