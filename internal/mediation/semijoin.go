package mediation

import (
	"context"
	"encoding/gob"
	"sort"

	"gridvine/internal/triple"
)

// Cross-peer semi-join shipping. When a conjunctive pattern's shared
// variable is already bound to more distinct values than the pushdown cap,
// the PR 2 engine fell back to shipping the full unconstrained pattern —
// exactly the large-intermediate regime where the overlay is most expensive
// in triples moved. The semi-join strategy instead ships the bound-value
// set itself, as one VarFilter per bound variable riding the pattern query:
// the responsible peer (and, under reformulation, every reformulated
// destination) filters its σ answer against the filters and returns only
// rows that can join the issuer's current binding set. Filters are exact
// value lists when small and Bloom filters (triple.ValueFilter) when the
// exact set would be larger on the wire; Bloom false positives only ship a
// few extra rows that the issuer-side hash join then drops, and false
// negatives cannot occur, so the joined result is exactly the unfiltered
// pattern's.

// VarFilter is one variable's shipped value set. Exactly one of Values and
// Bloom is set: Values when the exact sorted value list is at most as large
// as the Bloom encoding, Bloom otherwise.
type VarFilter struct {
	// Var names the pattern variable the filter constrains; the receiving
	// peer derives the variable's positions from the pattern it was shipped
	// with, so reformulated variants (which rewrite only the constant
	// predicate) filter identically.
	Var    string
	Values []string
	Bloom  *triple.ValueFilter
}

// semiJoinFalsePositiveRate tunes Bloom sizing: at 1%, a filter over k
// values costs ~1.2 bytes per value on the wire, versus the values
// themselves for an exact list.
const semiJoinFalsePositiveRate = 0.01

// NewVarFilter builds the smaller of the exact and Bloom encodings for a
// bound variable's distinct values (which must be sorted for deterministic
// wire payloads — BindingSet.DistinctValues sorts).
func NewVarFilter(name string, values []string) VarFilter {
	bloom := triple.NewValueFilterFromValues(values, semiJoinFalsePositiveRate)
	exactBytes := 0
	for _, v := range values {
		exactBytes += len(v) + 1
	}
	if exactBytes <= bloom.SizeBytes() {
		return VarFilter{Var: name, Values: values}
	}
	return VarFilter{Var: name, Bloom: bloom}
}

// Accepts reports whether a concrete value passes the filter.
func (f VarFilter) Accepts(value string) bool {
	if f.Bloom != nil {
		return f.Bloom.Contains(value)
	}
	// Values is sorted.
	i := sort.SearchStrings(f.Values, value)
	return i < len(f.Values) && f.Values[i] == value
}

// filterValueBytes is the nominal wire size of one triple component — the
// planner's conversion rate between filter payload bytes and the triples
// its cost estimates count in (a triple ≈ three components).
const filterValueBytes = 16

// filterTriples applies semi-join filters to a σ answer in place: a triple
// survives when, for every filter whose variable appears in the pattern,
// the component at each of the variable's positions passes. Filters naming
// variables absent from the pattern are ignored (they cannot constrain it).
// ts must be freshly allocated by the caller, as it is reused for the
// output.
func filterTriples(q triple.Pattern, filters []VarFilter, ts []triple.Triple) []triple.Triple {
	if len(filters) == 0 {
		return ts
	}
	type check struct {
		filter    VarFilter
		positions []triple.Position
	}
	checks := make([]check, 0, len(filters))
	for _, f := range filters {
		var positions []triple.Position
		for _, pos := range [3]triple.Position{triple.Subject, triple.Predicate, triple.Object} {
			if varAtPosition(q, f.Var, pos) {
				positions = append(positions, pos)
			}
		}
		if len(positions) > 0 {
			checks = append(checks, check{filter: f, positions: positions})
		}
	}
	if len(checks) == 0 {
		return ts
	}
	out := ts[:0]
	for _, t := range ts {
		keep := true
		for _, c := range checks {
			for _, pos := range c.positions {
				if !c.filter.Accepts(t.Component(pos)) {
					keep = false
					break
				}
			}
			if !keep {
				break
			}
		}
		if keep {
			out = append(out, t)
		}
	}
	return out
}

// resolveSemiJoin resolves one pattern by semi-join: the pattern ships once
// (plus reformulated variants when reformulate is set), carrying one value
// filter per bound shared variable, and only remotely matching rows come
// back. The filters never substitute terms, so — unlike pushdown — the
// strategy is safe for predicate-position variables under reformulation:
// the shipped pattern reformulates exactly as the unfiltered one would.
func (p *Peer) resolveSemiJoin(ctx context.Context, q triple.Pattern, vars []string, vals [][]string, reformulate bool, opts SearchOptions, stats *ConjunctiveStats) (*triple.BindingSet, error) {
	stats.SemiJoins++
	filters := make([]VarFilter, len(vars))
	for i, v := range vars {
		filters[i] = NewVarFilter(v, vals[i])
	}
	return p.resolvePattern(ctx, q, filters, reformulate, opts, stats)
}

func init() {
	gob.Register(VarFilter{})
	gob.Register([]VarFilter(nil))
}
