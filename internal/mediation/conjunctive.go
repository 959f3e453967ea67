package mediation

import (
	"context"
	"errors"
	"fmt"
	"math"

	"gridvine/internal/triple"
)

// The conjunctive query execution engine (paper §2.3: conjunctive RDQL over
// triple patterns). The naive evaluator — resolve every pattern in
// declaration order, unconstrained, and nested-loop-join the binding sets —
// ships the full network-wide answer of every pattern even when earlier
// patterns already bound the shared variable to a handful of values. The
// planner here replaces it with four coordinated techniques:
//
//  1. Cost-based ordering: patterns are resolved greedily, cheapest first.
//     Cardinalities are estimated from the distributed statistics digests
//     peers publish at schema keys (see stats.go), aged by
//     DefaultStatsTTL; when no fresh digest covers a pattern's
//     schema the planner degrades to the static position weights
//     (subject > object > predicate), LIKE discounts, and shared-variable
//     connectivity of the PR 2 engine.
//  2. Bound-value pushdown: once shared variables are bound, subsequent
//     patterns are shipped as k constrained point lookups — one per
//     distinct bound value, or per distinct joint tuple when several
//     variables are bound, fanned out across the SearchOptions.Parallelism
//     pool — instead of one full-scan pattern, capped by
//     SearchOptions.PushdownLimit.
//  3. Semi-join filter shipping above the cap: instead of falling back to
//     the full unconstrained pattern, the engine ships the bound-value set
//     itself (exact list or Bloom filter, whichever is smaller on the
//     wire; see semijoin.go) and only remotely matching rows return.
//  4. Hash joins over the flattened triple.BindingSet representation
//     instead of the O(|L|·|R|) map-merge nested loop, built on the
//     smaller side.
//
// Patterns in different join components (no shared variables, transitively)
// are independent and execute concurrently; their results combine by
// cartesian product, exactly as the natural join semantics dictate.
//
// The planned engine returns the same binding set as the naive evaluator
// for every pattern order, with and without reformulation (pushdown never
// substitutes a predicate-position variable when reformulation is on, since
// turning a variable predicate into a constant would unlock reformulations
// the naive evaluator does not perform; semi-join filters never substitute
// terms, so they are safe at every position, and their Bloom false
// positives are dropped by the issuer-side join).

// DefaultPushdownLimit is the bound-value fan-out cap used when
// SearchOptions.PushdownLimit is zero: large enough to cover selective
// joins, small enough that a mis-estimated pushdown never floods the
// overlay with more lookups than the unconstrained pattern would cost.
const DefaultPushdownLimit = 32

// ConjunctiveStats reports how a conjunctive query was executed.
type ConjunctiveStats struct {
	// RouteMessages is the overlay message cost: every send of every
	// pattern lookup, mapping retrieval and statistics fetch, however much
	// data the send carried.
	RouteMessages int
	// TriplesShipped counts result triples transferred to the issuer.
	TriplesShipped int
	// PatternLookups is the number of routed pattern operations issued.
	PatternLookups int
	// Pushdowns counts patterns resolved via bound-value pushdown.
	Pushdowns int
	// SemiJoins counts patterns resolved via semi-join filter shipping.
	SemiJoins int
	// FullScans counts patterns shipped unconstrained.
	FullScans int
	// Reformulations aggregates per-pattern reformulation counts.
	Reformulations int
	// StatsFetches counts overlay retrievals of statistics digests (cache
	// misses of the per-schema TTL window); their route messages are
	// included in RouteMessages.
	StatsFetches int
	// StatsDigests counts the fresh digests aggregated for this query's
	// cost estimates; 0 means the planner ran on static position weights.
	StatsDigests int
	// Degraded reports that at least one pattern lookup succeeded only by
	// routing around unreachable peers (replica fallback): the join input
	// may trail writes awaiting anti-entropy.
	Degraded bool
}

func (s *ConjunctiveStats) add(o ConjunctiveStats) {
	s.RouteMessages += o.RouteMessages
	s.TriplesShipped += o.TriplesShipped
	s.PatternLookups += o.PatternLookups
	s.Pushdowns += o.Pushdowns
	s.SemiJoins += o.SemiJoins
	s.FullScans += o.FullScans
	s.Reformulations += o.Reformulations
	s.StatsFetches += o.StatsFetches
	s.StatsDigests += o.StatsDigests
	s.Degraded = s.Degraded || o.Degraded
}

// CollectSet runs a conjunctive or RDQL request under ctx and returns the
// sorted BindingSet of the whole join, alongside the full execution
// statistics.
func CollectSet(ctx context.Context, p *Peer, req Request) (*triple.BindingSet, ConjunctiveStats, error) {
	var rows [][]string
	cols, stats, err := p.Run(ctx, req, func(chunk []QueryRow, _ []string) bool {
		for _, row := range chunk {
			rows = append(rows, row.Values)
		}
		return true
	})
	if err != nil {
		return nil, stats.Conjunctive, err
	}
	bs := &triple.BindingSet{Vars: cols, Rows: rows}
	bs.SortRows()
	return bs, stats.Conjunctive, nil
}

// rowSink receives the streamed output of the conjunctive engine. cols is
// called exactly once, with the final variable schema and whether the rows
// to come ascend in column 0, before the first emit (and also when the
// query ends up with zero rows, so aggregating consumers know the schema).
// emit delivers one row; returning false stops the engine, which skips
// every lookup the remaining rows would have needed. flush runs when the
// engine goes back to the overlay with rows emitted — a consumer that
// batches rows hands them over now — and stops the engine the same way.
// All three are invoked from a single goroutine.
type rowSink struct {
	cols  func(vars []string, ascending bool)
	emit  func([]string) bool
	flush func() bool
}

// streamConjunctive is the conjunctive engine behind Run: it plans
// and executes the query with ctx threaded through every overlay operation,
// streaming joined rows through sink as the final join stage produces them.
// Single-component queries whose last pattern resolves by pushdown emit
// incrementally per lookup chunk; everything else emits once its
// (ctx-interruptible) pipeline completes.
func (p *Peer) streamConjunctive(ctx context.Context, patterns []triple.Pattern, reformulate bool, opts SearchOptions, sink rowSink) (ConjunctiveStats, error) {
	opts = opts.withDefaults()
	var stats ConjunctiveStats
	if len(patterns) == 0 {
		return stats, errors.New("mediation: empty conjunctive query")
	}

	// One statistics view per query, shared read-only by every component:
	// at most one digest fetch per schema per TTL window, charged to stats.
	sv := p.statsViewFor(ctx, patterns, &stats)

	comps := joinComponents(patterns)
	if len(comps) == 1 {
		// Single join component — the common case, and the one that
		// streams: the final pattern's pushdown lookups are chunked and
		// their joined rows emitted as each chunk lands.
		_, st, err := p.runComponent(ctx, patterns, comps[0], sv, reformulate, opts, &sink)
		stats.add(st)
		return stats, err
	}

	type compOut struct {
		bs    *triple.BindingSet
		stats ConjunctiveStats
		err   error
	}
	outs := make([]compOut, len(comps))
	poolErr := runPoolCtx(ctx, len(comps), opts.Parallelism, func(i int) {
		bs, st, err := p.runComponent(ctx, patterns, comps[i], sv, reformulate, opts, nil)
		outs[i] = compOut{bs: bs, stats: st, err: err}
	})

	var firstErr error
	var parts []*triple.BindingSet
	for i := range outs {
		stats.add(outs[i].stats)
		if outs[i].err != nil {
			if firstErr == nil {
				firstErr = outs[i].err
			}
			continue
		}
		if outs[i].bs == nil {
			continue // component skipped by cancellation
		}
		if outs[i].bs.Len() == 0 {
			// A zero-row component annihilates the whole conjunction (the
			// cartesian product with ∅ is ∅) — even when another component
			// failed, e.g. on an unroutable pattern. The naive evaluator
			// behaves the same way in the orders where it reaches the empty
			// join first; the planner extends that to every order.
			sink.cols(outs[i].bs.Vars, true)
			return stats, nil
		}
		parts = append(parts, outs[i].bs)
	}
	if poolErr != nil {
		return stats, poolErr
	}
	if firstErr != nil {
		return stats, firstErr
	}
	result := parts[0]
	for _, bs := range parts[1:] {
		// Disjoint components share no variables: cartesian product.
		result = triple.HashJoin(result, bs)
	}
	sink.cols(result.Vars, result.Ascending(0))
	for _, row := range result.Rows {
		if !sink.emit(row) {
			break
		}
	}
	return stats, nil
}

// SearchConjunctiveNaive is the textbook left-to-right evaluator the seed
// shipped: every pattern resolved in declaration order, unconstrained, with
// the nested-loop binding join. Kept as the baseline the planner is
// benchmarked and property-tested against; its stats count messages and
// shipped triples exactly as the planned engine's do, so comparisons are
// like for like.
func (p *Peer) SearchConjunctiveNaive(ctx context.Context, patterns []triple.Pattern, reformulate bool, opts SearchOptions) ([]triple.Bindings, ConjunctiveStats, error) {
	opts = opts.withDefaults()
	var stats ConjunctiveStats
	if len(patterns) == 0 {
		return nil, stats, errors.New("mediation: empty conjunctive query")
	}
	var joined []triple.Bindings
	for i, q := range patterns {
		bs, err := p.resolvePattern(ctx, q, nil, reformulate, opts, &stats)
		if err != nil {
			return nil, stats, fmt.Errorf("mediation: pattern %d: %w", i, err)
		}
		stats.FullScans++
		bindings := bs.ToBindings()
		if i == 0 {
			joined = bindings
		} else {
			joined = triple.JoinBindingsNestedLoop(joined, bindings)
		}
		if len(joined) == 0 {
			return nil, stats, nil
		}
	}
	return joined, stats, nil
}

// joinComponents groups pattern indices into connected components of the
// join graph (patterns sharing a variable, transitively). Components are
// ordered by their smallest pattern index, indices ascending within each.
func joinComponents(patterns []triple.Pattern) [][]int {
	parent := make([]int, len(patterns))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	byVar := map[string]int{}
	for i, q := range patterns {
		for _, v := range q.Variables() {
			if j, ok := byVar[v]; ok {
				parent[find(i)] = find(j)
			} else {
				byVar[v] = i
			}
		}
	}
	groups := map[int][]int{}
	var order []int
	for i := range patterns {
		r := find(i)
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], i)
	}
	out := make([][]int, 0, len(order))
	for _, r := range order {
		out = append(out, groups[r])
	}
	return out
}

// runComponent executes one join component: greedy cost-ordered resolution
// with pushdown and semi-join shipping, hash-joining each pattern's
// bindings into the accumulated set. An empty intermediate join
// short-circuits — no remaining pattern can contribute rows, so their
// lookups are skipped entirely.
//
// Without a sink the component's binding set is returned (the
// multi-component path joins the sets itself). With one, the rows go to the
// sink and the returned set is nil; the final pattern — when its plan is a
// pushdown — then resolves chunk by chunk, each chunk's lookups joined and
// emitted immediately. First rows therefore surface while the remaining
// lookups are still in flight, and a sink that stops (Request.Limit
// satisfied) cuts those lookups entirely — the top-k path.
func (p *Peer) runComponent(ctx context.Context, patterns []triple.Pattern, idxs []int, sv *statsView, reformulate bool, opts SearchOptions, sink *rowSink) (*triple.BindingSet, ConjunctiveStats, error) {
	var stats ConjunctiveStats
	done := make(map[int]bool, len(idxs))
	var cur *triple.BindingSet
	for step := range idxs {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		plan := chooseNext(patterns, idxs, done, cur, sv, reformulate, opts)
		if sink != nil && step == len(idxs)-1 && plan.strategy == planPushdown && cur != nil {
			if err := p.resolvePushdownStream(ctx, patterns[plan.idx], plan, cur, reformulate, opts, *sink, &stats); err != nil {
				return nil, stats, fmt.Errorf("mediation: pattern %d: %w", plan.idx, err)
			}
			return nil, stats, nil
		}
		bs, err := p.resolvePlanned(ctx, patterns[plan.idx], plan, reformulate, opts, &stats)
		if err != nil {
			return nil, stats, fmt.Errorf("mediation: pattern %d: %w", plan.idx, err)
		}
		if cur == nil {
			cur = bs
		} else {
			cur = triple.HashJoin(cur, bs)
		}
		done[plan.idx] = true
		if cur.Len() == 0 {
			break
		}
	}
	if sink == nil {
		return cur, stats, nil
	}
	sink.cols(cur.Vars, cur.Ascending(0))
	for _, row := range cur.Rows {
		if !sink.emit(row) {
			break
		}
	}
	return nil, stats, nil
}

// resolvePlanned executes one pattern by its chosen strategy and returns
// its bindings.
func (p *Peer) resolvePlanned(ctx context.Context, q triple.Pattern, plan resolvePlan, reformulate bool, opts SearchOptions, stats *ConjunctiveStats) (*triple.BindingSet, error) {
	switch plan.strategy {
	case planPushdown:
		stats.Pushdowns++
		return p.pushdownBatch(ctx, q, plan.pushVars, plan.pushTuples, reformulate, opts, stats)
	case planSemiJoin:
		return p.resolveSemiJoin(ctx, q, plan.filterVars, plan.filterVals, reformulate, opts, stats)
	default:
		stats.FullScans++
		return p.resolvePattern(ctx, q, nil, reformulate, opts, stats)
	}
}

// strategy is how one pattern of a component gets resolved.
type strategy int

const (
	// planFullScan ships the pattern unconstrained to the peer responsible
	// for its most specific constant.
	planFullScan strategy = iota
	// planPushdown ships one fully substituted point lookup per distinct
	// bound tuple of the substituted variables.
	planPushdown
	// planSemiJoin ships the pattern once with the bound-value sets riding
	// along as filters; only remotely matching rows return.
	planSemiJoin
)

// resolvePlan is chooseNext's decision: which pattern to resolve next, by
// which strategy, and with which bound values — so the executor never
// recomputes the plan.
type resolvePlan struct {
	idx      int
	strategy strategy
	// pushVars/pushTuples drive planPushdown: one lookup per tuple, tuple
	// values positionally aligned with pushVars.
	pushVars   []string
	pushTuples [][]string
	// filterVars/filterVals drive planSemiJoin: one value filter per
	// variable, built from its distinct bound values.
	filterVars []string
	filterVals [][]string
}

// boundValues memoizes distinct-value and distinct-tuple scans of the
// current binding set across the candidate assessments of one planning
// step.
type boundValues struct {
	cur    *triple.BindingSet
	vals   map[string][]string
	tuples map[string][][]string
}

// values returns the sorted distinct bound values of a variable, or
// ok=false when the variable is not bound yet.
func (b *boundValues) values(name string) ([]string, bool) {
	if b.cur == nil || b.cur.VarIndex(name) < 0 {
		return nil, false
	}
	if vals, ok := b.vals[name]; ok {
		return vals, true
	}
	if b.vals == nil {
		b.vals = map[string][]string{}
	}
	vals := b.cur.DistinctValues(name)
	b.vals[name] = vals
	return vals, true
}

// tuplesFor returns the distinct joint tuples of several bound variables.
func (b *boundValues) tuplesFor(names []string) [][]string {
	if b.cur == nil {
		return nil
	}
	key := ""
	for _, n := range names {
		key += n + "\x00"
	}
	if ts, ok := b.tuples[key]; ok {
		return ts
	}
	if b.tuples == nil {
		b.tuples = map[string][][]string{}
	}
	ts := b.cur.DistinctTuples(names)
	b.tuples[key] = ts
	return ts
}

// chooseNext picks the unresolved pattern with the lowest estimated cost;
// ties break on the smallest pattern index, keeping plans deterministic.
func chooseNext(patterns []triple.Pattern, idxs []int, done map[int]bool, cur *triple.BindingSet, sv *statsView, reformulate bool, opts SearchOptions) resolvePlan {
	bound := &boundValues{cur: cur}
	best := resolvePlan{idx: -1}
	bestCost := math.Inf(1)
	for _, i := range idxs {
		if done[i] {
			continue
		}
		plan, cost := assessPattern(patterns, i, idxs, done, bound, sv, reformulate, opts)
		if best.idx < 0 || cost < bestCost {
			best, bestCost = plan, cost
		}
	}
	return best
}

// Relative candidate-set weights of the routing positions: a constant
// subject names one resource, a constant object one (shared) value, a
// constant predicate an entire attribute's extension. These are the
// fallback estimates when no fresh statistics digest covers a pattern.
const (
	costSubjectConst   = 2
	costObjectConst    = 16
	costPredicateConst = 4096
)

// staticCost is the PR 2 position-weight estimate: the most specific
// constant position sets the base and LIKE terms halve it (they filter
// remotely, shrinking the shipped answer). ok=false for unroutable
// patterns.
func staticCost(q triple.Pattern) (float64, bool) {
	var base float64
	switch {
	case q.S.Kind == triple.Constant:
		base = costSubjectConst
	case q.O.Kind == triple.Constant:
		base = costObjectConst
	case q.P.Kind == triple.Constant:
		base = costPredicateConst
	default:
		return 0, false
	}
	for _, t := range [3]triple.Term{q.S, q.P, q.O} {
		if t.Kind == triple.Like {
			base *= 0.5
		}
	}
	return base, true
}

// assessPattern scores how expensive resolving patterns[idx] now would be,
// alongside the plan that achieves it.
//
// Strategy: bound shared variables are pushed down as joint-tuple point
// lookups when the fan-out fits under opts.PushdownLimit (all substitutable
// variables jointly if their distinct tuples fit, else the single variable
// with the fewest distinct values); above the cap a routable pattern is
// resolved by semi-join filter shipping (unless disabled, where it ships
// unconstrained as PR 2 did), and an unroutable one by forced pushdown —
// its only route to the overlay. Patterns whose only bound variables sit at
// the predicate position under reformulation cannot be substituted but can
// still be filtered, so they go semi-join too.
//
// Cost: estimated cardinalities from the statistics view when a fresh
// digest covers the pattern's schema, else the static position weights.
// Shared variables with other unresolved patterns grant a small
// connectivity discount — resolving a connected pattern first unlocks
// pushdown for its neighbours.
func assessPattern(patterns []triple.Pattern, idx int, idxs []int, done map[int]bool, bound *boundValues, sv *statsView, reformulate bool, opts SearchOptions) (resolvePlan, float64) {
	q := patterns[idx]
	limit := opts.PushdownLimit
	est, hasStats := sv.estimate(q)
	_, _, routable := q.MostSpecificConstant()

	links := 0
	for _, v := range q.Variables() {
		for _, j := range idxs {
			if j == idx || done[j] {
				continue
			}
			for _, ov := range patterns[j].Variables() {
				if ov == v {
					links++
				}
			}
		}
	}
	discount := math.Pow(0.95, float64(links))

	fullCost := func() float64 {
		if hasStats {
			return (1 + est) * discount
		}
		base, ok := staticCost(q)
		if !ok {
			return math.Inf(1)
		}
		return base * discount
	}

	// Partition the bound shared variables: substitutable (pushdown) vs
	// filter-only. Predicate-position variables are never substituted under
	// reformulation — a constant predicate would reformulate across
	// mappings the naive evaluation of the variable pattern never touches,
	// changing the answer — but filtering them is safe: a variable
	// predicate never reformulates at all.
	var substitutable, filterable []string
	var filterVals [][]string
	for _, v := range q.Variables() {
		vals, isBound := bound.values(v)
		if !isBound {
			continue
		}
		filterable = append(filterable, v)
		filterVals = append(filterVals, vals)
		if reformulate && varAtPosition(q, v, triple.Predicate) {
			continue
		}
		substitutable = append(substitutable, v)
	}

	pushdownCost := func(vars []string, k int) float64 {
		if !hasStats {
			return float64(k)
		}
		perLookup := est
		for _, v := range vars {
			if d, ok := sv.positionDistinct(q, firstVarPosition(q, v)); ok {
				perLookup /= d
			}
		}
		return float64(k) * (1 + perLookup)
	}
	semiJoinPlan := func() (resolvePlan, float64) {
		plan := resolvePlan{idx: idx, strategy: planSemiJoin, filterVars: filterable, filterVals: filterVals}
		if !hasStats {
			base, _ := staticCost(q)
			// The filter roughly halves what ships, like a LIKE term.
			return plan, base * 0.5 * discount
		}
		cost := 2 + float64(filterEquivalentsEstimate(filterVals)) + est*filterReduction(q, sv, filterable, filterVals)
		return plan, cost * discount
	}

	if len(substitutable) > 0 {
		// Joint multi-variable pushdown: the distinct tuples can be far
		// fewer than the per-variable product, and each lookup is maximally
		// constrained.
		if len(substitutable) > 1 && limit >= 0 {
			if tuples := bound.tuplesFor(substitutable); len(tuples) <= limit {
				return resolvePlan{idx: idx, strategy: planPushdown, pushVars: substitutable, pushTuples: tuples},
					pushdownCost(substitutable, len(tuples))
			}
		}
		bestVar := substitutable[0]
		vals, _ := bound.values(bestVar)
		for _, v := range substitutable[1:] {
			vv, _ := bound.values(v)
			if len(vv) < len(vals) {
				bestVar, vals = v, vv
			}
		}
		if limit >= 0 && len(vals) <= limit {
			return resolvePlan{idx: idx, strategy: planPushdown, pushVars: []string{bestVar}, pushTuples: singleTuples(vals)},
				pushdownCost([]string{bestVar}, len(vals))
		}
		// Over the cap (or pushdown disabled).
		if routable {
			return semiJoinPlan()
		}
		// Unroutable: pushdown is the only way onto the overlay.
		return resolvePlan{idx: idx, strategy: planPushdown, pushVars: []string{bestVar}, pushTuples: singleTuples(vals)},
			pushdownCost([]string{bestVar}, len(vals))
	}

	if len(filterable) > 0 && routable {
		// Only predicate-position variables are bound under reformulation:
		// substitution is barred, filtering is not.
		return semiJoinPlan()
	}

	if !routable {
		// Unroutable and nothing bound yet: last resort.
		return resolvePlan{idx: idx, strategy: planFullScan}, math.Inf(1)
	}
	return resolvePlan{idx: idx, strategy: planFullScan}, fullCost()
}

// singleTuples lifts a distinct-value list into one-element tuples.
func singleTuples(vals []string) [][]string {
	out := make([][]string, len(vals))
	for i, v := range vals {
		out[i] = []string{v}
	}
	return out
}

// firstVarPosition returns the first position the named variable occupies.
func firstVarPosition(q triple.Pattern, name string) triple.Position {
	for _, pos := range [3]triple.Position{triple.Subject, triple.Predicate, triple.Object} {
		if varAtPosition(q, name, pos) {
			return pos
		}
	}
	return triple.Subject
}

// filterEquivalentsEstimate approximates the wire cost of shipping the
// bound-value sets as filters, in triple equivalents, without building the
// filters yet (three values ≈ one triple, capped per variable by the Bloom
// encoding the builder would switch to).
func filterEquivalentsEstimate(vals [][]string) int {
	total := 0
	for _, vs := range vals {
		exact := (len(vs) + 2) / 3
		bloom := len(vs)/(3*filterValueBytes) + 1 // ≈ 1.2 bytes/value at 1% FP
		if bloom < exact {
			total += bloom
		} else {
			total += exact
		}
	}
	return total
}

// filterReduction estimates the fraction of the pattern's extension that
// survives the filters: per filtered variable, bound-value count over the
// position's distinct-value count, taking the tightest variable.
func filterReduction(q triple.Pattern, sv *statsView, vars []string, vals [][]string) float64 {
	frac := 1.0
	for i, v := range vars {
		d, ok := sv.positionDistinct(q, firstVarPosition(q, v))
		if !ok || d <= 0 {
			continue
		}
		if f := float64(len(vals[i])) / d; f < frac {
			frac = f
		}
	}
	if frac > 1 {
		frac = 1
	}
	return frac
}

func varAtPosition(q triple.Pattern, name string, pos triple.Position) bool {
	t := q.Term(pos)
	return t.Kind == triple.Variable && t.Value == name
}

// substituteVar returns q with every occurrence of the named variable
// replaced by a constant.
func substituteVar(q triple.Pattern, name, value string) triple.Pattern {
	for _, pos := range [3]triple.Position{triple.Subject, triple.Predicate, triple.Object} {
		if varAtPosition(q, name, pos) {
			q = q.WithTerm(pos, triple.Const(value))
		}
	}
	return q
}

// pushdownBatch ships one constrained point lookup per distinct bound tuple
// of the substituted variables, fanned out across the parallelism pool, and
// merges the per-tuple bindings in sorted-tuple order (deterministic results
// at any width). The substituted variables are restored as constant columns.
// Tuples skipped by cancellation surface as ctx's error.
func (p *Peer) pushdownBatch(ctx context.Context, q triple.Pattern, vars []string, tuples [][]string, reformulate bool, opts SearchOptions, stats *ConjunctiveStats) (*triple.BindingSet, error) {
	type out struct {
		bs    *triple.BindingSet
		stats ConjunctiveStats
		err   error
	}
	outs := make([]out, len(tuples))
	poolErr := runPoolCtx(ctx, len(tuples), opts.Parallelism, func(i int) {
		sub := q
		for j, v := range vars {
			sub = substituteVar(sub, v, tuples[i][j])
		}
		var st ConjunctiveStats
		bs, err := p.resolvePattern(ctx, sub, nil, reformulate, opts, &st)
		if err != nil {
			outs[i] = out{err: err, stats: st}
			return
		}
		for j, v := range vars {
			bs.AddConstColumn(v, tuples[i][j])
		}
		outs[i] = out{bs: bs, stats: st}
	})

	var merged *triple.BindingSet
	for i := range outs {
		stats.add(outs[i].stats)
		if outs[i].err != nil {
			return nil, outs[i].err
		}
		if outs[i].bs == nil {
			continue // skipped by cancellation; poolErr reports it
		}
		if merged == nil {
			merged = outs[i].bs
		} else {
			merged.Rows = append(merged.Rows, outs[i].bs.Rows...)
		}
	}
	if poolErr != nil {
		return nil, poolErr
	}
	return merged, nil
}

// resolvePushdownStream is the streaming final stage of a join component:
// the pushdown tuples are processed in chunks of the worker-pool width,
// each chunk's bindings joined against the accumulated set and the joined
// rows emitted immediately. Consumers therefore see first results while
// later chunks are still being looked up, and a sink that stops —
// Request.Limit reached — cuts the remaining tuples' lookups entirely,
// which is what makes bounded top-k queries cheaper than unbounded runs.
func (p *Peer) resolvePushdownStream(ctx context.Context, q triple.Pattern, plan resolvePlan, cur *triple.BindingSet, reformulate bool, opts SearchOptions, sink rowSink, stats *ConjunctiveStats) error {
	stats.Pushdowns++
	chunk := opts.Parallelism
	if chunk < 1 {
		chunk = 1
	}
	colsSet := false
	for start := 0; start < len(plan.pushTuples); start += chunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := min(start+chunk, len(plan.pushTuples))
		part, err := p.pushdownBatch(ctx, q, plan.pushVars, plan.pushTuples[start:end], reformulate, opts, stats)
		if err != nil {
			return err
		}
		joined := triple.HashJoin(cur, part)
		if !colsSet {
			// Later chunks' rows need not follow this one's.
			sink.cols(joined.Vars, false)
			colsSet = true
		}
		for _, row := range joined.Rows {
			if !sink.emit(row) {
				return nil
			}
		}
		if !sink.flush() {
			return nil
		}
	}
	return nil
}

// resolvePattern issues one (possibly reformulating, possibly semi-join
// filtered) overlay search, charges its messages, shipped triples and
// reformulations to stats, and binds the shipped triples straight into q's
// variable schema — a row is materialised once between the frame and the
// join. Reformulated variants bind identically: reformulation only rewrites
// the (constant) predicate, so variable positions coincide with q's. The
// filters ride inside the routed requests, so their bytes cost no message
// of their own.
func (p *Peer) resolvePattern(ctx context.Context, q triple.Pattern, filters []VarFilter, reformulate bool, opts SearchOptions, stats *ConjunctiveStats) (*triple.BindingSet, error) {
	ts, rs, plain, err := p.patternTriples(ctx, q, filters, reformulate, opts)
	if rs != nil {
		stats.PatternLookups++
		stats.Degraded = stats.Degraded || rs.Degraded
		stats.RouteMessages += rs.Messages
		stats.TriplesShipped += len(ts)
		stats.Reformulations += rs.Reformulations
	}
	if err != nil {
		return nil, err
	}
	return triple.BindTriplesMatched(q, ts, plain), nil
}
