package mediation

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"

	"gridvine/internal/compose"
	"gridvine/internal/keyspace"
	"gridvine/internal/schema"
	"gridvine/internal/triple"
)

// Composite reformulation (SearchOptions.ComposeMappings): instead of
// walking the mapping graph per query, the peer consults its composite
// closure cache (internal/compose) — the precomposed transitive mapping
// chains of the queried predicate — and ships the reformulated pattern
// variants grouped by destination key: every variant routing to the same
// responsible key rides one CompositeQuery, so a subject-constant query
// whose variants all hash to the subject costs a single routed operation
// regardless of chain depth, where the BFS pays one pattern lookup plus one
// mapping retrieval per reachable schema. The BFS path (streamIterative /
// streamRecursive) remains the default engine and the equivalence oracle:
// with loss pruning disabled, a closure enumerates exactly the BFS's
// reformulations, in the same order.
//
// The cache is keyed on a schema-graph version counter: Peer.Write bumps it
// (issuer side) whenever a batch publishes or replaces a mapping, and the
// store hooks bump it (responsible-peer side) whenever a mapping value
// lands or leaves the local overlay store, invalidating only the closures
// whose build consulted the changed mapping's schemas.

// CompositeQuery ships a group of reformulated pattern variants that share
// one destination key; the responsible peer answers each variant from its
// local database in one round trip. Filters carry the issuer's semi-join
// filters, applied to every variant's answer before it ships.
type CompositeQuery struct {
	Patterns []triple.Pattern
	Filters  []VarFilter
}

// CompositeResponse answers a CompositeQuery: one (sorted, filtered) triple
// slice per requested pattern, index-aligned.
type CompositeResponse struct {
	Answers [][]triple.Triple
}

// handleComposite answers every variant of a composite query from the local
// database — the σ of a PatternQuery, batched.
func (p *Peer) handleComposite(req CompositeQuery) CompositeResponse {
	resp := CompositeResponse{Answers: make([][]triple.Triple, len(req.Patterns))}
	for i, q := range req.Patterns {
		resp.Answers[i] = filterTriples(q, req.Filters, p.db.SelectSorted(q))
	}
	return resp
}

// mappingSource adapts MappingsFrom to the compose build interface,
// reporting the retrieval's route messages so closure builds are charged
// like the BFS's mapping lookups.
func (p *Peer) mappingSource() compose.MappingSource {
	return func(ctx context.Context, name string) ([]schema.Mapping, int, error) {
		ms, route, err := p.MappingsFrom(ctx, name)
		return ms, route.Messages, err
	}
}

// composeOptions projects the search options onto the closure cache key.
func composeOptions(opts SearchOptions) compose.Options {
	return compose.Options{
		MaxDepth:      opts.MaxDepth,
		MinConfidence: opts.MinConfidence,
		MaxLoss:       opts.MaxLoss,
	}
}

// ComposeStats snapshots the peer's composite-closure cache counters.
func (p *Peer) ComposeStats() compose.Stats {
	return p.composites.Stats()
}

// WarmComposites builds (or refreshes) the composite closures of the given
// predicates under the given options, so subsequent ComposeMappings queries
// hit precomposed entries. It returns how many closures were actually
// built; predicates that are not Schema#Attr or whose schema keys are
// unreachable are skipped — warming is best-effort maintenance, the query
// path rebuilds on demand.
func (p *Peer) WarmComposites(ctx context.Context, predicates []string, opts SearchOptions) (int, error) {
	opts = opts.withDefaults()
	copts := composeOptions(opts)
	src := p.mappingSource()
	built := 0
	for _, pred := range predicates {
		if _, _, ok := schema.SplitPredicateURI(pred); !ok {
			continue
		}
		if _, b, err := p.composites.GetOrBuild(ctx, src, pred, copts); err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return built, ctxErr
			}
		} else if b {
			built++
		}
	}
	return built, nil
}

// invalidateComposites drops the cached closures that pass through any of
// the given mappings' schemas and advances the schema-graph version.
func (p *Peer) invalidateComposites(mappings []schema.Mapping) {
	if len(mappings) == 0 {
		return
	}
	seen := map[string]bool{}
	var schemas []string
	for _, m := range mappings {
		for _, s := range []string{m.Source, m.Target} {
			if !seen[s] {
				seen[s] = true
				schemas = append(schemas, s)
			}
		}
	}
	p.composites.Invalidate(schemas...)
}

// mappingSchemas collects the schemas a batch's mapping publishes and
// replacements touch; empty when the batch carries no mapping entries.
func (b *Batch) mappingSchemas() []schema.Mapping {
	var out []schema.Mapping
	for _, e := range b.entries {
		switch e.kind {
		case writePublishMapping:
			out = append(out, e.m)
		case writeReplaceMapping:
			out = append(out, e.old, e.m)
		}
	}
	return out
}

// compositeGroup is one destination key's share of a composite fan-out: the
// variant indices whose patterns route there, in variant order.
type compositeGroup struct {
	key      keyspace.Key
	variants []int
}

// streamComposite resolves a reformulating pattern query through the
// composite closure cache. Both reformulation modes route here when
// ComposeMappings is set: precomposition leaves nothing to delegate, so the
// iterative/recursive distinction collapses. On a cache miss the closure is
// built first (its mapping retrievals are charged to this query); if the
// build fails — some schema key unreachable mid-closure — the query falls
// back to the BFS engine of the selected mode, which tolerates per-branch
// failures.
func (p *Peer) streamComposite(ctx context.Context, q triple.Pattern, filters []VarFilter, opts SearchOptions, emit emitResult) (*ResultSet, bool, error) {
	entry, built, err := p.composites.GetOrBuild(ctx, p.mappingSource(), q.P.Value, composeOptions(opts))
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return &ResultSet{Query: q}, true, ctxErr
		}
		if opts.Mode == Recursive {
			return p.streamRecursive(ctx, q, filters, opts, emit)
		}
		return p.streamIterative(ctx, q, filters, opts, emit)
	}

	rs := &ResultSet{Query: q, Reformulations: entry.Reformulations}
	if built {
		rs.Messages += entry.BuildMessages
	}

	// The variants, in BFS emission order: the original pattern, then every
	// closure target in wave order.
	type variant struct {
		pattern    triple.Pattern
		path       []string
		confidence float64
	}
	variants := make([]variant, 0, len(entry.Targets)+1)
	variants = append(variants, variant{pattern: q, confidence: 1})
	for _, t := range entry.Targets {
		variants = append(variants, variant{
			pattern:    q.WithTerm(triple.Predicate, triple.Const(t.Predicate)),
			path:       t.Path,
			confidence: t.Confidence,
		})
	}

	// Group variants by destination key. A subject- or object-constant query
	// collapses to one group (reformulation only rewrites the predicate);
	// predicate-driven queries get one group per distinct predicate key —
	// still dropping every mapping-retrieval round trip the BFS pays.
	groups := make([]compositeGroup, 0, 1)
	groupIdx := map[string]int{}
	for i, v := range variants {
		_, constant, ok := v.pattern.MostSpecificConstant()
		if !ok {
			continue // unreachable: q.P is constant, so every variant is routable
		}
		key := keyspace.Hash(constant, p.depth)
		ks := key.String()
		gi, ok := groupIdx[ks]
		if !ok {
			gi = len(groups)
			groupIdx[ks] = gi
			groups = append(groups, compositeGroup{key: key})
		}
		groups[gi].variants = append(groups[gi].variants, i)
	}

	// One routed CompositeQuery per group, fanned out across the worker
	// pool and merged in group order for determinism.
	answers := make([][]triple.Triple, len(variants))
	groupErrs := make([]error, len(groups))
	groupMsgs := make([]int, len(groups))
	groupDegraded := make([]bool, len(groups))
	ran := make([]bool, len(groups))
	poolErr := runPoolCtx(ctx, len(groups), opts.Parallelism, func(i int) {
		g := groups[i]
		patterns := make([]triple.Pattern, len(g.variants))
		for j, vi := range g.variants {
			patterns[j] = variants[vi].pattern
		}
		result, route, err := p.node.Query(ctx, g.key, CompositeQuery{Patterns: patterns, Filters: filters})
		groupMsgs[i] = route.Messages
		groupDegraded[i] = route.Degraded
		ran[i] = true
		if err != nil {
			groupErrs[i] = err
			return
		}
		resp, ok := result.(CompositeResponse)
		if !ok || len(resp.Answers) != len(patterns) {
			groupErrs[i] = fmt.Errorf("mediation: unexpected composite result %T", result)
			return
		}
		for j, vi := range g.variants {
			answers[vi] = resp.Answers[j]
		}
	})

	var firstErr error
	for i := range groups {
		if !ran[i] {
			continue // cancelled before this group's turn
		}
		rs.Messages += groupMsgs[i]
		rs.Degraded = rs.Degraded || groupDegraded[i]
		if err := groupErrs[i]; err != nil && !errors.Is(err, ErrNotRoutable) {
			// A failed group is tolerated like a failed BFS branch, but the
			// aggregate is now partial.
			rs.Degraded = true
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if poolErr != nil {
		return rs, true, poolErr
	}
	if err := ctx.Err(); err != nil {
		return rs, true, err
	}

	emitted := 0
	for i, v := range variants {
		for _, t := range answers[i] {
			emitted++
			if !emit(Result{
				Triple:      t,
				Pattern:     v.pattern,
				MappingPath: v.path,
				Confidence:  v.confidence,
			}) {
				return rs, true, nil
			}
		}
	}
	if emitted == 0 && firstErr != nil {
		return rs, true, firstErr
	}
	return rs, true, nil
}

func init() {
	gob.Register(CompositeQuery{})
	gob.Register(CompositeResponse{})
}
