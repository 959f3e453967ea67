package mediation

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"gridvine/internal/compose"
	"gridvine/internal/keyspace"
	"gridvine/internal/pgrid"
	"gridvine/internal/schema"
	"gridvine/internal/triple"
)

// Key-grouped shipping and the composite closure cache. The pattern-search
// engine (streamPattern) ships its variants grouped by destination key:
// every variant routing to the same responsible key rides one PatternQuery,
// so a subject- or object-constant query, whose variants all hash to that
// constant, pays one data operation for the whole closure whatever the
// chain depth. SearchOptions.ComposeMappings additionally lets
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

// mappingSchemas collects the mappings a batch publishes, whose schemas it
// touches; empty when the batch carries no mapping entries.
func (b *Batch) mappingSchemas() []schema.Mapping {
	var out []schema.Mapping
	for _, e := range b.entries {
		if e.kind == writePublishMapping {
			out = append(out, e.m)
		}
	}
	return out
}

// keyGroup is the variants of one flush that route to one key: the one
// PatternQuery that ships them and, once it has, its answer or failure.
type keyGroup struct {
	key    keyspace.Key
	req    PatternQuery
	answer []triple.Triple
	route  pgrid.Route // zero, like err, if cancellation skipped the group
	err    error
}

// ship sends the group's request to the peer responsible for its key.
func (g *keyGroup) ship(ctx context.Context, node *pgrid.Node) {
	var result any
	if result, g.route, g.err = node.Query(ctx, g.key, g.req); g.err == nil {
		var ok bool
		if g.answer, ok = result.([]triple.Triple); !ok {
			g.err = fmt.Errorf("mediation: unexpected pattern answer %T", result)
		}
	}
}

// next takes the answer of q, the group's next pattern, off the group's
// answer: all of it for a lone pattern, else the run of rows that carry q's
// predicate. A group's answer holds its patterns' answers in request order,
// and its patterns differ in predicate: the traversal claims each once.
func (g *keyGroup) next(q triple.Pattern) []triple.Triple {
	n := len(g.answer)
	if len(g.req.Patterns) > 1 {
		n = 0
		for n < len(g.answer) && g.answer[n].Predicate == q.P.Value {
			n++
		}
	}
	run := g.answer[:n:n]
	g.answer = g.answer[n:]
	return run
}

// group spells out the pending variants' patterns — the root ships q
// unchanged, every other variant rewrites the predicate only — and groups
// them by destination key, in order: in holds each variant's group.
func (r *reformulation) group(pending []compose.Step) (groups []keyGroup, patterns []triple.Pattern, in []int) {
	patterns = make([]triple.Pattern, len(pending))
	in = make([]int, len(pending))
	for i, v := range pending {
		patterns[i] = r.q
		if r.shipped+i > 0 {
			patterns[i] = r.q.WithTerm(triple.Predicate, triple.Const(v.Predicate))
		}
		_, constant, _ := patterns[i].MostSpecificConstant() // streamPattern checked q, whose constants variants keep
		key := keyspace.Hash(constant, r.p.depth)
		in[i] = slices.IndexFunc(groups, func(g keyGroup) bool { return g.key == key })
		if in[i] < 0 {
			in[i] = len(groups)
			groups = append(groups, keyGroup{key: key, req: PatternQuery{Patterns: patterns[i : i+1 : i+1], Filters: r.filters}})
		} else {
			groups[in[i]].req.Patterns = append(groups[in[i]].req.Patterns, patterns[i])
		}
	}
	return groups, patterns, in
}

// flush ships the variants reached since the last flush — one routed
// PatternQuery per destination key (one for a subject- or object-constant
// query, one per variant for a predicate-keyed one), fanned out across the
// worker pool — and emits their answers in variant order, as a serial
// traversal would. It flushes the sink first, as traverse does before a
// wave, so no row waits on the overlay. stopped reports that the sink ended
// the search. group and emit are functions of their own to keep the frames
// under a routed call small: a Cursor's goroutine and runPoolCtx's workers
// start afresh for one search, their stacks are copied each time they
// outgrow them, and an in-process answer is selected on those stacks.
func (r *reformulation) flush(ctx context.Context) (stopped bool, err error) {
	pending := r.variants[r.shipped:]
	if len(pending) == 0 {
		return false, nil
	}
	if !r.sink.flush() { // rows emitted so far leave before the engine waits on the overlay
		return true, nil
	}
	groups, patterns, in := r.group(pending)
	poolErr := runPoolCtx(ctx, len(groups), r.workers, func(i int) { groups[i].ship(ctx, r.p.node) })
	return r.emit(pending, groups, patterns, in, poolErr)
}

// emit accounts for the shipped groups' routes and failures, then emits the
// pending variants' answers in variant order.
func (r *reformulation) emit(pending []compose.Step, groups []keyGroup, patterns []triple.Pattern, in []int, poolErr error) (stopped bool, err error) {
	if r.shipped == 0 {
		r.rs.Route = groups[0].route // the root pattern's group
	}
	r.shipped = len(r.variants)
	failed := false
	for i := range groups {
		g := &groups[i]
		r.rs.Messages += g.route.Messages
		r.rs.Degraded = r.rs.Degraded || g.route.Degraded
		if g.err != nil && r.firstErr == nil {
			r.firstErr = g.err
		}
		failed = failed || g.err != nil
	}
	if failed && !r.tolerant {
		return false, r.firstErr // a search without waves: its one lookup failed
	}
	// A failed group is tolerated, but the aggregate is now partial.
	r.rs.Degraded = r.rs.Degraded || failed
	if poolErr != nil {
		return false, poolErr // cancelled, possibly mid-group: the answer is incomplete and says so
	}
	for i, v := range pending {
		answer := groups[in[i]].next(patterns[i]) // none if the group failed
		if len(answer) == 0 {
			continue
		}
		r.emitted += len(answer)
		if !r.sink.emit(answer, Provenance{Pattern: patterns[i], MappingPath: v.Path, Confidence: v.Confidence}) {
			return true, nil
		}
	}
	return false, nil
}
