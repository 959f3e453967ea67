package mediation

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"gridvine/internal/compose"
	"gridvine/internal/graph"
	"gridvine/internal/keyspace"
	"gridvine/internal/pgrid"
	"gridvine/internal/schema"
	"gridvine/internal/triple"
)

// ErrNotRoutable reports a pattern without any constant term: GridVine
// resolves triple pattern queries by hashing a constant term, so a fully
// unconstrained pattern has no destination key space.
var ErrNotRoutable = errors.New("mediation: pattern has no routable constant term")

// DefaultParallelism is the reformulation fan-out width used when
// SearchOptions.Parallelism is zero: wide enough to overlap overlay
// round-trips, bounded so a single query cannot monopolize the host.
var DefaultParallelism = min(8, runtime.GOMAXPROCS(0))

// SearchOptions tunes reformulating and conjunctive searches.
type SearchOptions struct {
	// MaxDepth bounds the mapping-path length. Default 5.
	MaxDepth int
	// MinConfidence prunes mapping paths whose composed confidence falls
	// below it. Default 0.05.
	MinConfidence float64
	// Parallelism bounds the worker pool that runs a wave's mapping lookups
	// and a flush's key groups over the overlay concurrently. 0 selects
	// DefaultParallelism; 1 executes serially (the fully deterministic mode
	// the seeded experiment harness uses — result sets are deterministic at
	// any width, but routing tie-breaks, and with them message counts, can
	// vary when queries race). Negative values are treated as 1.
	Parallelism int
	// PushdownLimit caps the bound-value fan-out of the conjunctive query
	// planner: when a pattern's shared variable is already bound to at most
	// this many distinct values (joint tuples, when several variables are
	// bound), the engine ships that many constrained point lookups instead
	// of one unconstrained (network-wide) pattern. Above the cap it resolves
	// the pattern by semi-join filter shipping. 0 selects
	// DefaultPushdownLimit; negative disables pushdown (except for patterns
	// that are not routable unconstrained, where pushdown is the only way
	// to resolve them).
	PushdownLimit int
	// ComposeMappings lets the reformulation engine reuse a cached composite
	// closure (internal/compose) in place of its mapping lookups: the
	// transitive mapping chains of the queried predicate, precomposed by the
	// first query that traverses them to completion or by WarmComposites,
	// and served until a mapping publish or replace this peer observes
	// invalidates them. Rows are identical to the uncached traversal's
	// unless MaxLoss prunes, and ship the same way, one routed operation per
	// distinct destination key. Off by default: invalidation reaches only
	// the issuer and the peers storing the mapping (DESIGN.md §9).
	ComposeMappings bool
	// MaxLoss prunes composite chains whose attribute loss — the fraction
	// of the chain's first-hop source attributes that no longer survive the
	// composed correspondences — exceeds it, before any fan-out. Only
	// meaningful with ComposeMappings: chains are composed only for the
	// closure cache. 0 disables pruning (full recall); setting it trades
	// recall for fan-out.
	MaxLoss float64
}

func (o SearchOptions) withDefaults() SearchOptions {
	if o.MaxDepth == 0 {
		o.MaxDepth = 5
	}
	if o.MinConfidence == 0 {
		o.MinConfidence = 0.05
	}
	if o.Parallelism == 0 {
		o.Parallelism = DefaultParallelism
	}
	if o.Parallelism < 1 {
		o.Parallelism = 1
	}
	if o.PushdownLimit == 0 {
		o.PushdownLimit = DefaultPushdownLimit
	}
	return o
}

// Result is one retrieved triple with its reformulation provenance. The
// provenance is never nil, and the rows of one answer share it.
type Result struct {
	Triple triple.Triple
	*Provenance
}

// Provenance is how an answer was reached.
type Provenance struct {
	// Pattern is the (possibly reformulated) pattern that matched.
	Pattern triple.Pattern
	// MappingPath lists the IDs of the mappings traversed to reach the
	// pattern's schema; empty for results of the original query.
	MappingPath []string
	// Confidence is the product of the traversed mappings' confidences
	// (1 for the original query).
	Confidence float64
}

// ResultSet aggregates the answers of a (possibly reformulated) query.
type ResultSet struct {
	Query          triple.Pattern
	Results        []Result
	Messages       int
	Reformulations int
	// Route is the overlay route of the primary (non-reformulated) overlay
	// operation: the peers the issuer contacted, in order. The experiment
	// harness replays these traces through the discrete-event simulator.
	Route pgrid.Route
	// Degraded reports that the answer was assembled while routing around
	// unreachable peers — some lookup fell back to a live replica or a
	// reformulation branch was tolerated as failed — so it may be missing
	// writes that have not finished an anti-entropy round.
	Degraded bool
}

// Triples returns the distinct result triples, sorted.
func (rs *ResultSet) Triples() []triple.Triple {
	seen := map[triple.Triple]bool{}
	var out []triple.Triple
	for _, r := range rs.Results {
		if !seen[r.Triple] {
			seen[r.Triple] = true
			out = append(out, r.Triple)
		}
	}
	triple.SortTriples(out)
	return out
}

// CollectPattern runs a pattern request under ctx and returns the
// aggregate ResultSet: every streamed raw result collected in order,
// deduplicated (best confidence per triple) and sorted, plus the message
// and route accounting. After an error the set is nil.
func CollectPattern(ctx context.Context, p *Peer, req Request) (*ResultSet, error) {
	if req.Pattern == nil {
		return nil, errors.New("mediation: CollectPattern needs a Pattern request")
	}
	var results []Result
	_, stats, err := p.Run(ctx, req, func(chunk []QueryRow, _ []string) bool {
		for _, row := range chunk {
			results = append(results, *row.Result)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	rs := &ResultSet{Query: *req.Pattern, Results: results, Messages: stats.Messages,
		Reformulations: stats.Reformulations, Route: stats.Route, Degraded: stats.Degraded}
	dedupeResults(rs)
	return rs, nil
}

// answerSink receives the raw (undeduplicated) answers of a pattern search,
// in deterministic order. The engine invokes it from a single goroutine.
type answerSink struct {
	// emit delivers the triples one variant of the query matched, which the
	// engine does not touch again; returning false stops the search early
	// (row limit reached or the consumer is gone).
	emit func(ts []triple.Triple, via Provenance) bool
	// flush runs whenever the engine goes back to the overlay after emitting:
	// a consumer that batches rows hands them over now, so no row waits on a
	// lookup it does not depend on. Returning false stops the search, as
	// emit's does.
	flush func() bool
}

// streamPattern is the pattern-search engine (paper §2.3 SearchFor, §4
// reformulation) behind Run and the conjunctive engine: it
// resolves q, with optional semi-join filters riding every shipped request,
// delivering every raw (undeduplicated) answer through sink in deterministic
// order, and returns the ResultSet skeleton (Query, Messages,
// Reformulations, Route, Degraded; Results stays empty — they went through
// the sink). A nil *ResultSet (with ErrNotRoutable) reports a pattern
// without a routable constant.
//
// The variants reached ship grouped by destination key (flush) under one
// rule: the root pattern at once, so the first row costs one routed
// operation; after every wave of the traversal while limited says a row
// limit could still end it early; otherwise once, after the last wave. Only
// a constant Schema#Attr predicate can be rewritten through the mapping
// network, and only when reformulate is set: any other search has no waves
// and is its root flush alone — q shipped unchanged, whose failure is the
// search's error. Under ComposeMappings a cached closure is the traversal
// already in hand, and root and targets ship in one flush.
//
// Cancelling ctx stops the traversal between hops and between routed
// operations: the results already emitted stand, and ctx.Err() is returned.
func (p *Peer) streamPattern(ctx context.Context, q triple.Pattern, filters []VarFilter, reformulate bool, opts SearchOptions, limited bool, sink answerSink) (*ResultSet, error) {
	if _, _, ok := q.MostSpecificConstant(); !ok {
		return nil, ErrNotRoutable
	}
	opts = opts.withDefaults()
	root := compose.Step{Predicate: q.P.Value, Confidence: 1}
	rewritable := false
	if reformulate && q.P.Kind == triple.Constant {
		root.SchemaName, root.Attr, rewritable = schema.SplitPredicateURI(q.P.Value)
	}
	rs := &ResultSet{Query: q}
	r := &reformulation{p: p, q: q, filters: filters, workers: opts.Parallelism, sink: sink, rs: rs, variants: []compose.Step{root}, tolerant: rewritable}

	if !(rewritable && opts.ComposeMappings && r.cached(composeOptions(opts))) {
		if stopped, err := r.flush(ctx); stopped || err != nil {
			return rs, err
		}
		if rewritable {
			if stopped, err := r.traverse(ctx, root, opts, limited); stopped || err != nil {
				return rs, err
			}
		}
	}
	if _, err := r.flush(ctx); err != nil {
		return rs, err
	}
	if r.emitted == 0 && r.firstErr != nil {
		return rs, r.firstErr
	}
	return rs, nil
}

// cached adds the targets of the root's cached closure to the variants, if
// the cache holds one under copts, and reports whether it did. It is out of
// streamPattern's frame, which sits under every routed call (see flush).
func (r *reformulation) cached(copts compose.Options) bool {
	entry, ok := r.p.composites.Lookup(r.q.P.Value, copts)
	if ok {
		for i := range entry.Targets {
			r.variants = append(r.variants, entry.Targets[i].Step)
		}
		r.rs.Reformulations = entry.Reformulations
	}
	return ok
}

// traverse is the issuer-side reformulation: one wave loop over
// compose.Expand from root. Each wave looks its schemas' mappings up
// through the worker pool and claims the predicates they reach in wave
// order, adding them to the variants; while limited, it flushes them after
// every wave (stopped: a flush's emit ended the search). Under
// ComposeMappings the traversal builds the root's closure and installs it if
// it ran to completion. A failed or replica-answered lookup truncates its
// branch and marks the answer Degraded; such a traversal installs nothing.
func (r *reformulation) traverse(ctx context.Context, root compose.Step, opts SearchOptions, limited bool) (stopped bool, err error) {
	p, rs := r.p, r.rs
	visited := map[string]bool{root.Predicate: true}
	expand := func(next []compose.Step, from compose.Step, mappings []schema.Mapping) []compose.Step {
		return compose.Expand(next, from, mappings, opts.MinConfidence, func(pred string, _ schema.Mapping) bool {
			claimed := !visited[pred]
			visited[pred] = true
			return claimed
		})
	}
	var closure *compose.Builder
	var version uint64
	if opts.ComposeMappings {
		version = p.composites.Version()
		closure = compose.NewBuilder(root, composeOptions(opts))
		expand = closure.Expand
	}

	lookupMsgs, complete := 0, true
	wave := []compose.Step{root}
	// Every step of wave k has a path of length k: MaxDepth bounds the waves.
	for depth := 0; len(wave) > 0 && depth < opts.MaxDepth; depth++ {
		if !r.sink.flush() {
			return true, nil
		}
		mappings := make([][]schema.Mapping, len(wave))
		routes := make([]pgrid.Route, len(wave))
		errs := make([]error, len(wave))
		poolErr := runPoolCtx(ctx, len(wave), opts.Parallelism, func(i int) {
			mappings[i], routes[i], errs[i] = p.MappingsFrom(ctx, wave[i].SchemaName)
		})
		var next []compose.Step
		for i, step := range wave {
			rs.Messages += routes[i].Messages
			lookupMsgs += routes[i].Messages
			complete = complete && errs[i] == nil && !routes[i].Degraded
			next = expand(next, step, mappings[i])
		}
		// The pool reports ctx's state as it returns, so a cancellation any
		// lookup observed is terminal here, never a lost branch to tolerate.
		if poolErr != nil {
			return false, poolErr
		}
		rs.Degraded = rs.Degraded || !complete
		rs.Reformulations += len(next)
		r.variants = append(r.variants, next...)
		if limited {
			if stopped, err := r.flush(ctx); stopped || err != nil {
				return stopped, err
			}
		}
		wave = next
	}
	if closure != nil && complete {
		entry := closure.Entry()
		entry.Version, entry.BuildMessages = version, lookupMsgs
		p.composites.PutIfCurrent(entry)
	}
	return false, nil
}

// patternTriples resolves one pattern into the triples it matches — the
// conjunctive engine's per-pattern primitive, ctx threaded through every
// hop. When one variant answered (always so without reformulation), ts is
// that responsible peer's sorted σ exactly as it was decoded, and plain is
// true: distinct stored triples that agree at every constant position of
// the variant, which differs from q at most in its constant predicate.
// Otherwise ts is the union of the variants' answers, deduplicated and
// sorted. rs carries the message accounting.
func (p *Peer) patternTriples(ctx context.Context, q triple.Pattern, filters []VarFilter, reformulate bool, opts SearchOptions) (ts []triple.Triple, rs *ResultSet, plain bool, err error) {
	answers := 0
	collect := answerSink{
		emit: func(answer []triple.Triple, _ Provenance) bool {
			if answers++; answers == 1 {
				ts = answer
			} else {
				ts = append(ts, answer...)
			}
			return true
		},
		flush: func() bool { return true },
	}
	rs, err = p.streamPattern(ctx, q, filters, reformulate, opts, false, collect)
	if answers > 1 {
		triple.SortTriples(ts)
		ts = slices.Compact(ts)
	}
	return ts, rs, answers <= 1, err
}

// runPoolCtx executes fn(0)…fn(n-1) across at most workers goroutines,
// blocking until all complete; workers ≤ 1 runs inline. fn must only write
// state owned by its index, so callers merge results in index order and
// stay deterministic regardless of completion order. Once ctx is done,
// workers stop claiming new indices (in-flight fn calls finish — they
// observe ctx at their own next hop) and the pool returns ctx.Err(). All
// pool goroutines have exited by the time it returns, whatever the outcome.
func runPoolCtx(ctx context.Context, n, workers int, fn func(int)) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// reformulation is one issuer-side search: the variants reached so far —
// the root pattern's step first, then every claimed predicate in wave order
// — and how many of them have shipped. tolerant reports that the search
// traverses the mapping graph, so a failed key group is a lost branch
// rather than the search's failure.
type reformulation struct {
	p        *Peer
	q        triple.Pattern
	filters  []VarFilter
	workers  int
	sink     answerSink
	rs       *ResultSet
	variants []compose.Step
	tolerant bool
	shipped  int
	emitted  int
	firstErr error
}

// handleQuery dispatches application queries arriving at this peer.
func (p *Peer) handleQuery(key keyspace.Key, payload any) (any, error) {
	switch req := payload.(type) {
	case PatternQuery:
		return p.answer(req), nil
	case ConnectivityQuery:
		return p.handleConnectivity(key, req), nil
	default:
		return nil, fmt.Errorf("mediation: unknown query payload %T", payload)
	}
}

// answer runs σ for each of req's patterns and returns the answers end to
// end in one slice, in request order, each sorted so the wire format stays
// deterministic across runs. Semi-join filters, when present, drop
// non-joining rows before they ship: a request's patterns differ only in
// their constant predicate, so their variables sit at the same positions
// and one pass filters every answer (SelectSorted returns a fresh slice, so
// the in-place filter is safe).
func (p *Peer) answer(req PatternQuery) []triple.Triple {
	ts := p.node.DB().SelectSorted(req.Patterns...)
	if len(req.Patterns) > 0 {
		ts = filterTriples(req.Patterns[0], req.Filters, ts)
	}
	return ts
}

// handleConnectivity derives the connectivity indicator from the degree
// reports stored locally under the domain key (paper §3.1: the peer
// responsible for Hash(Domain) locally derives the degree distribution).
func (p *Peer) handleConnectivity(key keyspace.Key, req ConnectivityQuery) ConnectivityReport {
	dist := graph.NewDegreeDistribution()
	n := 0
	for _, v := range p.node.Values(key) {
		if d, ok := v.(DomainDegree); ok {
			dist.Observe(d.InDegree, d.OutDegree)
			n++
		}
	}
	return ConnectivityReport{Domain: req.Domain, Schemas: n, CI: dist.ConnectivityIndicator()}
}

// dedupeResults keeps, per distinct triple, the result with the highest
// confidence (shortest path on ties), and orders results deterministically.
func dedupeResults(rs *ResultSet) {
	best := map[triple.Triple]Result{}
	for _, r := range rs.Results {
		cur, ok := best[r.Triple]
		if !ok || r.Confidence > cur.Confidence ||
			(r.Confidence == cur.Confidence && len(r.MappingPath) < len(cur.MappingPath)) {
			best[r.Triple] = r
		}
	}
	out := make([]Result, 0, len(best))
	for _, r := range best {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Triple, out[j].Triple
		if a.Subject != b.Subject {
			return a.Subject < b.Subject
		}
		if a.Predicate != b.Predicate {
			return a.Predicate < b.Predicate
		}
		return a.Object < b.Object
	})
	rs.Results = out
}
