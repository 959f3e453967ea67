// Package selforg implements GridVine's self-organizing mapping maintenance
// (paper §3–§4): monitoring the connectivity of the mediation layer through
// the domain degree registry and the ci indicator, automatically creating
// additional schema mappings when the schema graph is insufficiently
// connected — selecting candidate schema pairs through shared instance
// references and aligning their attributes with combined lexical/set
// measures — and periodically assessing mapping quality with the Bayesian
// cycle analysis, deprecating mappings detected as erroneous.
package selforg

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"gridvine/internal/align"
	"gridvine/internal/bayes"
	"gridvine/internal/mediation"
	"gridvine/internal/schema"
	"gridvine/internal/triple"
)

// Config tunes the self-organization loop.
type Config struct {
	// Domain is the application domain whose registry is monitored.
	Domain string
	// MaxMappingsPerRound bounds mapping creation per round. Default 3.
	MaxMappingsPerRound int
	// Rng drives sampling; required.
	Rng *rand.Rand
	// Compose, when non-nil, has every round warm the peer's
	// composite-mapping closures for each registered schema attribute under
	// these search options, so steady-state ComposeMappings queries hit
	// precomposed entries — the maintenance loop is the cache's background
	// warmer. Closures invalidated by this round's own mapping publishes and
	// replacements are rebuilt in the same round (warming runs after
	// creation and assessment).
	Compose *mediation.SearchOptions
}

func (c Config) withDefaults() Config {
	if c.Domain == "" {
		c.Domain = "default"
	}
	if c.MaxMappingsPerRound == 0 {
		c.MaxMappingsPerRound = 3
	}
	return c
}

const (
	// maxSharedSubjects bounds the instance sample per candidate pair.
	maxSharedSubjects = 40
	// minSharedSubjects is the minimum shared-reference support needed to
	// attempt an alignment.
	minSharedSubjects = 2
)

// Organizer drives self-organization rounds from one peer (any peer can run
// maintenance; in the paper every schema keeper contributes — a single
// driver is behaviourally equivalent in a simulation and keeps rounds
// deterministic).
type Organizer struct {
	peer *mediation.Peer
	cfg  Config
}

// New creates an organizer bound to a peer.
func New(peer *mediation.Peer, cfg Config) (*Organizer, error) {
	if cfg.Rng == nil {
		return nil, fmt.Errorf("selforg: Rng is required")
	}
	return &Organizer{peer: peer, cfg: cfg.withDefaults()}, nil
}

// RegisterSchema publishes a schema and its initial (0,0) degree report so
// the domain registry knows about it.
func (o *Organizer) RegisterSchema(ctx context.Context, s schema.Schema) error {
	if _, err := o.peer.InsertSchemaContext(ctx, s); err != nil {
		return err
	}
	return o.peer.ReportDomainDegree(ctx, o.cfg.Domain, s.Name, 0, 0)
}

// SchemaNames returns the schemas registered in the domain, sorted.
func (o *Organizer) SchemaNames(ctx context.Context) ([]string, error) {
	degrees, err := o.peer.DomainDegrees(ctx, o.cfg.Domain)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(degrees))
	for _, d := range degrees {
		names = append(names, d.Schema)
	}
	sort.Strings(names)
	return names, nil
}

// GatherMappings assembles the current mapping working set by retrieving
// every schema's key space (deprecated mappings included — the analysis
// needs to know what was already rejected).
func (o *Organizer) GatherMappings(ctx context.Context) (*schema.MappingSet, error) {
	names, err := o.SchemaNames(ctx)
	if err != nil {
		return nil, err
	}
	ms := schema.NewMappingSet()
	for _, name := range names {
		mappings, err := o.peer.MappingsAt(ctx, name)
		if err != nil {
			return nil, err
		}
		for _, m := range mappings {
			// A deprecated copy anywhere wins over an active copy (the two
			// keys of a bidirectional mapping may briefly disagree).
			if prev, ok := ms.Get(m.ID); ok && prev.Deprecated {
				continue
			}
			ms.Add(m)
		}
	}
	return ms, nil
}

// RefreshDegrees recomputes each schema's in/out mapping degrees from the
// active mapping set and publishes them to the domain registry (paper §3.1:
// Update(Domain Connectivity)).
func (o *Organizer) RefreshDegrees(ctx context.Context, ms *schema.MappingSet) error {
	names, err := o.SchemaNames(ctx)
	if err != nil {
		return err
	}
	for _, name := range names {
		in, out := ms.DegreeOf(name)
		if err := o.peer.ReportDomainDegree(ctx, o.cfg.Domain, name, in, out); err != nil {
			return err
		}
	}
	return nil
}

// Connectivity inquires the domain key space for the current indicator.
func (o *Organizer) Connectivity(ctx context.Context) (mediation.ConnectivityReport, error) {
	return o.peer.DomainConnectivity(ctx, o.cfg.Domain)
}

// CandidatePair is a schema pair sharing instance references.
type CandidatePair struct {
	A, B   string
	Shared int // number of sample subjects carrying both schemas
}

// CandidatePairs inspects a sample of instance subjects and returns schema
// pairs co-occurring on the same instances, ordered by decreasing shared
// support (paper §4: "shared references to the same protein sequence to
// select pairs of candidate schemas").
func (o *Organizer) CandidatePairs(ctx context.Context, subjects []string) ([]CandidatePair, error) {
	counts := map[[2]string]int{}
	for _, subj := range subjects {
		rs, err := o.searchSubject(ctx, subj)
		if err != nil {
			continue // unreachable subject key: skip, candidates are a heuristic
		}
		schemas := map[string]bool{}
		for _, r := range rs.Results {
			if name, _, ok := schema.SplitPredicateURI(r.Triple.Predicate); ok {
				schemas[name] = true
			}
		}
		var names []string
		for n := range schemas {
			names = append(names, n)
		}
		sort.Strings(names)
		for i := 0; i < len(names); i++ {
			for j := i + 1; j < len(names); j++ {
				counts[[2]string{names[i], names[j]}]++
			}
		}
	}
	out := make([]CandidatePair, 0, len(counts))
	for pair, c := range counts {
		out = append(out, CandidatePair{A: pair[0], B: pair[1], Shared: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Shared != out[j].Shared {
			return out[i].Shared > out[j].Shared
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out, nil
}

// AlignPair aligns two schemas over the attribute values observed on their
// shared instances and returns the automatic mapping, or ok=false when the
// matcher finds no correspondence above threshold.
func (o *Organizer) AlignPair(ctx context.Context, a, b string, subjects []string) (schema.Mapping, bool, error) {
	sa, err := o.peer.LookupSchema(ctx, a)
	if err != nil {
		return schema.Mapping{}, false, err
	}
	sb, err := o.peer.LookupSchema(ctx, b)
	if err != nil {
		return schema.Mapping{}, false, err
	}

	valuesA := map[string][]string{}
	valuesB := map[string][]string{}
	shared := 0
	for _, subj := range subjects {
		if shared >= maxSharedSubjects {
			break
		}
		rs, err := o.searchSubject(ctx, subj)
		if err != nil {
			continue
		}
		var fromA, fromB []triple.Triple
		for _, r := range rs.Results {
			name, _, ok := schema.SplitPredicateURI(r.Triple.Predicate)
			if !ok {
				continue
			}
			switch name {
			case a:
				fromA = append(fromA, r.Triple)
			case b:
				fromB = append(fromB, r.Triple)
			}
		}
		if len(fromA) == 0 || len(fromB) == 0 {
			continue // not a shared reference
		}
		shared++
		for _, t := range fromA {
			if _, attr, ok := schema.SplitPredicateURI(t.Predicate); ok {
				valuesA[attr] = append(valuesA[attr], t.Object)
			}
		}
		for _, t := range fromB {
			if _, attr, ok := schema.SplitPredicateURI(t.Predicate); ok {
				valuesB[attr] = append(valuesB[attr], t.Object)
			}
		}
	}
	if shared < minSharedSubjects {
		return schema.Mapping{}, false, nil
	}

	dataA := make([]align.AttrData, 0, len(sa.Attributes))
	for _, attr := range sa.Attributes {
		dataA = append(dataA, align.AttrData{Name: attr, Values: valuesA[attr]})
	}
	dataB := make([]align.AttrData, 0, len(sb.Attributes))
	for _, attr := range sb.Attributes {
		dataB = append(dataB, align.AttrData{Name: attr, Values: valuesB[attr]})
	}
	corrs := align.Align(dataA, dataB, align.MatcherConfig{})
	if len(corrs) == 0 {
		return schema.Mapping{}, false, nil
	}
	m := schema.NewMapping(a, b, schema.Equivalence, schema.Automatic, corrs)
	m.Bidirectional = true
	return m, true, nil
}

// RoundReport summarizes one self-organization round.
type RoundReport struct {
	Domain     string
	CIBefore   float64
	CIAfter    float64
	Schemas    int
	Created    []schema.Mapping
	Deprecated []string
	Evidence   int // informative cycles evaluated
	// StatsDigests is the number of statistics digests (one per schema
	// with local data) the round republished at the schema keys.
	StatsDigests int
	// CompositesWarmed is the number of composite-mapping closures the
	// round built into the peer's cache (0 when warming is disabled or
	// every closure was already warm).
	CompositesWarmed int
}

// Round runs one self-organization round: inquire connectivity; if below
// target, create mappings between the best-supported unconnected candidate
// pairs; assess all mappings with the Bayesian cycle analysis, publishing
// deprecations; refresh the degree registry (paper §3.1–3.2).
func (o *Organizer) Round(ctx context.Context, subjects []string) (RoundReport, error) {
	report := RoundReport{Domain: o.cfg.Domain}

	before, err := o.Connectivity(ctx)
	if err != nil {
		return report, err
	}
	report.CIBefore = before.CI
	report.Schemas = before.Schemas

	ms, err := o.GatherMappings(ctx)
	if err != nil {
		return report, err
	}

	// 1. Creation: while insufficiently connected (paper: ci ≥ 0 signals
	// the giant component), add mappings for the best-supported schema
	// pairs that are not already actively mapped. ci ≥ 0 is a necessary
	// condition only (Cudré-Mauroux & Aberer, ODBASE'04): a schema with no
	// mappings at all is unreachable whatever the indicator says, and the
	// degree registry exposes exactly that, so isolated schemas also
	// trigger creation.
	if before.CI < 0 || noActiveMappings(ms) || o.hasIsolatedSchema(ctx) {
		candidates, err := o.CandidatePairs(ctx, subjects)
		if err != nil {
			return report, err
		}
		created := 0
		for _, cand := range candidates {
			if created >= o.cfg.MaxMappingsPerRound {
				break
			}
			if activelyMapped(ms, cand.A, cand.B) {
				continue
			}
			m, ok, err := o.AlignPair(ctx, cand.A, cand.B, subjects)
			if err != nil || !ok {
				continue
			}
			if rejected, okPrev := ms.Get(m.ID); okPrev && rejected.Deprecated {
				continue // the analysis already rejected this exact mapping
			}
			if _, err := o.peer.InsertMappingContext(ctx, m); err != nil {
				continue
			}
			ms.Add(m)
			report.Created = append(report.Created, m)
			created++
		}
	}

	// 2. Assessment: compare transitive closures, deprecate bad mappings.
	assessment := bayes.Assess(ms, bayes.AssessorConfig{})
	report.Evidence = len(assessment.Evidence)
	for _, id := range assessment.ToDeprecate {
		old, ok := ms.Get(id)
		if !ok || old.Deprecated {
			continue
		}
		updated := old
		updated.Deprecated = true
		updated.Confidence = assessment.Posteriors[id]
		if _, err := o.peer.InsertMappingContext(ctx, updated); err != nil {
			continue
		}
		ms.Add(updated)
		report.Deprecated = append(report.Deprecated, id)
	}
	// Publish refreshed confidences of surviving automatic mappings.
	for id, post := range assessment.Posteriors {
		old, ok := ms.Get(id)
		if !ok || old.Deprecated || old.Origin != schema.Automatic {
			continue
		}
		if diff := post - old.Confidence; diff > 0.05 || diff < -0.05 {
			updated := old
			updated.Confidence = post
			if _, err := o.peer.InsertMappingContext(ctx, updated); err == nil {
				ms.Add(updated)
			}
		}
	}

	// 3. Statistics republication: refresh this peer's cardinality digests
	// once per round so the conjunctive planners keep seeing fresh numbers
	// (stale digests age out after mediation.DefaultStatsTTL — without the
	// maintenance loop republishing, publication stayed a manual,
	// experiment-driven act). The overlay's atomic replace supersedes the
	// previous round's digest per (origin, schema) pair. Publication
	// failures are tolerated: planners fall back to static weights.
	if n, _, err := o.peer.PublishStats(ctx); err == nil {
		report.StatsDigests = n
	}

	// 4. Composite-cache warming: rebuild the mapping closures this round's
	// publishes and replacements invalidated (and any still-cold ones), so
	// steady-state queries keep hitting precomposed entries. Synchronous at
	// the end of the round — the maintenance loop is the background — and
	// best-effort per predicate: a schema whose key is unreachable is
	// simply warmed next round.
	if o.cfg.Compose != nil {
		if n, err := o.warmComposites(ctx); err == nil {
			report.CompositesWarmed = n
		}
	}

	// 5. Degree registry refresh.
	if err := o.RefreshDegrees(ctx, ms); err != nil {
		return report, err
	}
	after, err := o.Connectivity(ctx)
	if err != nil {
		return report, err
	}
	report.CIAfter = after.CI
	return report, nil
}

// warmComposites builds the composite-mapping closure of every attribute of
// every schema registered in the domain, under the configured search
// options. Schemas whose definition cannot be retrieved this round are
// skipped (their closures stay cold until a later round); only already-warm
// closures cost nothing.
func (o *Organizer) warmComposites(ctx context.Context) (int, error) {
	names, err := o.SchemaNames(ctx)
	if err != nil {
		return 0, err
	}
	var preds []string
	for _, name := range names {
		s, err := o.peer.LookupSchema(ctx, name)
		if err != nil {
			continue
		}
		for _, attr := range s.Attributes {
			preds = append(preds, s.PredicateURI(attr))
		}
	}
	return o.peer.WarmComposites(ctx, preds, *o.cfg.Compose)
}

// searchSubject retrieves every triple stored under a subject's key — the
// instance probe both candidate selection and alignment sample from.
func (o *Organizer) searchSubject(ctx context.Context, subj string) (*mediation.ResultSet, error) {
	q := triple.Pattern{S: triple.Const(subj), P: triple.Var("p"), O: triple.Var("o")}
	return mediation.CollectPattern(ctx, o.peer, mediation.Request{Pattern: &q})
}

func noActiveMappings(ms *schema.MappingSet) bool {
	return len(ms.Active()) == 0
}

// hasIsolatedSchema reports whether any registered schema has no active
// mappings at all according to the domain registry.
func (o *Organizer) hasIsolatedSchema(ctx context.Context) bool {
	degrees, err := o.peer.DomainDegrees(ctx, o.cfg.Domain)
	if err != nil || len(degrees) <= 1 {
		return false
	}
	for _, d := range degrees {
		if d.InDegree == 0 && d.OutDegree == 0 {
			return true
		}
	}
	return false
}

func activelyMapped(ms *schema.MappingSet, a, b string) bool {
	for _, m := range ms.Active() {
		if (m.Source == a && m.Target == b) || (m.Source == b && m.Target == a) {
			return true
		}
	}
	return false
}
