package mediation

import (
	"context"

	"gridvine/internal/rdql"
	"gridvine/internal/triple"
)

// Blocking test helpers: each drives the streaming entry point and drains
// the cursor into the aggregate answer, for engine tests that want the whole
// answer at once.

func blockingSearchFor(p *Peer, q triple.Pattern) (*ResultSet, error) {
	ctx := context.Background()
	cur, err := p.Query(ctx, Request{Pattern: &q})
	if err != nil {
		return nil, err
	}
	return CollectPattern(ctx, cur)
}

func blockingSearchReformulated(p *Peer, q triple.Pattern, opts SearchOptions) (*ResultSet, error) {
	ctx := context.Background()
	cur, err := p.Query(ctx, Request{Pattern: &q, Reformulate: true, Options: opts})
	if err != nil {
		return nil, err
	}
	return CollectPattern(ctx, cur)
}

func blockingConjunctiveSet(p *Peer, patterns []triple.Pattern, reformulate bool, opts SearchOptions) (*triple.BindingSet, ConjunctiveStats, error) {
	ctx := context.Background()
	cur, err := p.Query(ctx, Request{Patterns: patterns, Reformulate: reformulate, Options: opts})
	if err != nil {
		return nil, ConjunctiveStats{}, err
	}
	return CollectSet(ctx, cur)
}

func blockingConjunctive(p *Peer, patterns []triple.Pattern, reformulate bool, opts SearchOptions) ([]triple.Bindings, int, error) {
	bs, stats, err := blockingConjunctiveSet(p, patterns, reformulate, opts)
	if err != nil {
		return nil, stats.RouteMessages, err
	}
	return bs.ToBindings(), stats.RouteMessages, nil
}

func blockingRDQL(p *Peer, query string, reformulate bool, opts SearchOptions) ([]rdql.Row, error) {
	ctx := context.Background()
	cur, err := p.Query(ctx, Request{RDQL: query, Reformulate: reformulate, Options: opts})
	if err != nil {
		return nil, err
	}
	rows, _, err := CollectRows(ctx, cur)
	return rows, err
}
