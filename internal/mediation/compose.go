package mediation

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"

	"gridvine/internal/compose"
	"gridvine/internal/keyspace"
	"gridvine/internal/pgrid"
	"gridvine/internal/schema"
	"gridvine/internal/triple"
)

// Key-grouped shipping and the composite closure cache. The reformulation
// engine (streamReformulated) ships its variants grouped by destination
// key: every variant routing to the same responsible key rides one
// CompositeQuery, so a subject- or object-constant query, whose variants all
// hash to that constant, pays one data operation for the whole closure
// whatever the chain depth. SearchOptions.ComposeMappings additionally lets
// the engine reuse a cached closure (internal/compose) — the precomposed
// transitive mapping chains of the queried predicate — instead of looking
// the mappings up again; with loss pruning disabled a closure enumerates
// exactly the traversal's reformulations, in the same order.
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
		resp.Answers[i] = filterTriples(q, req.Filters, p.node.DB().SelectSorted(q))
	}
	return resp
}

// errReplicaAnswered refuses a mapping list for a closure build: it came
// from a fallback replica, which may not have seen the latest publish.
var errReplicaAnswered = errors.New("mediation: mapping lookup answered by a fallback replica")

// mappingSource adapts MappingsFrom to the compose build interface for
// WarmComposites, reporting each retrieval's route messages. A
// replica-answered lookup is an error: a closure must never be cached from
// a mapping list the responsible peer did not serve.
func (p *Peer) mappingSource() compose.MappingSource {
	return func(ctx context.Context, name string) ([]schema.Mapping, int, error) {
		ms, route, err := p.MappingsFrom(ctx, name)
		if err == nil && route.Degraded {
			err = errReplicaAnswered
		}
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
// the given mappings' schemas and advances the schema-graph version; without
// mappings it does nothing.
func (p *Peer) invalidateComposites(mappings []schema.Mapping) {
	schemas := make([]string, 0, 2*len(mappings))
	for _, m := range mappings {
		schemas = append(schemas, m.Source, m.Target)
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

// flush ships the variants reached since the last flush — one routed
// CompositeQuery per destination key, fanned out across the worker pool —
// and emits their answers in variant order, so rows arrive as the serial
// traversal would produce them whatever the grouping, then flushes the sink:
// the engine goes back to the overlay next. A subject- or
// object-constant query collapses to one group (reformulation only rewrites
// the predicate); predicate-keyed queries get one group per variant. stopped
// reports that emit ended the search.
func (r *reformulation) flush(ctx context.Context) (stopped bool, err error) {
	pending := r.variants[r.shipped:]
	if len(pending) == 0 {
		return false, nil
	}

	type group struct {
		key      keyspace.Key
		variants []int // indices into pending, ascending
		req      CompositeQuery
		route    pgrid.Route // zero, like err, if cancellation skipped the group
		err      error
	}
	var groups []*group
	byKey := map[keyspace.Key]*group{}
	patterns := make([]triple.Pattern, len(pending))
	pos, constant, _ := r.q.MostSpecificConstant() // the predicate is constant: always routable
	key := keyspace.Hash(constant, r.p.depth)
	for i, v := range pending {
		patterns[i] = r.q.WithTerm(triple.Predicate, triple.Const(v.Predicate))
		if pos == triple.Predicate { // only then does rewriting it move the key
			key = keyspace.Hash(v.Predicate, r.p.depth)
		}
		g := byKey[key]
		if g == nil {
			g = &group{key: key, req: CompositeQuery{Filters: r.filters}}
			byKey[key] = g
			groups = append(groups, g)
		}
		g.variants = append(g.variants, i)
		g.req.Patterns = append(g.req.Patterns, patterns[i])
	}

	answers := make([][]triple.Triple, len(pending))
	poolErr := runPoolCtx(ctx, len(groups), r.workers, func(i int) {
		g := groups[i]
		var result any
		result, g.route, g.err = r.p.node.Query(ctx, g.key, g.req)
		if g.err != nil {
			return
		}
		resp, ok := result.(CompositeResponse)
		if !ok || len(resp.Answers) != len(g.variants) {
			g.err = fmt.Errorf("mediation: unexpected composite result %T", result)
			return
		}
		for j, vi := range g.variants {
			answers[vi] = resp.Answers[j]
		}
	})
	if r.shipped == 0 {
		r.rs.Route = groups[0].route // the root pattern's group
	}
	r.shipped = len(r.variants)
	for _, g := range groups {
		r.rs.Messages += g.route.Messages
		r.rs.Degraded = r.rs.Degraded || g.route.Degraded
		if g.err != nil {
			// A failed group is tolerated, but the aggregate is now partial.
			r.rs.Degraded = true
			if r.firstErr == nil {
				r.firstErr = g.err
			}
		}
	}
	if poolErr != nil {
		return false, poolErr // cancelled, possibly mid-group: the answer is incomplete and says so
	}
	for i, v := range pending {
		if len(answers[i]) == 0 {
			continue
		}
		r.emitted += len(answers[i])
		if !r.sink.emit(answers[i], Provenance{Pattern: patterns[i], MappingPath: v.Path, Confidence: v.Confidence}) {
			return true, nil
		}
	}
	r.sink.flush()
	return false, nil
}

func init() {
	gob.Register(CompositeQuery{})
	gob.Register(CompositeResponse{})
}
