package mediation

import (
	"context"

	"gridvine/internal/rdql"
	"gridvine/internal/triple"
)

// Blocking test helpers: each runs one request through the matching Collect
// helper, for engine tests that want the whole answer at once.

func blockingSearchFor(p *Peer, q triple.Pattern) (*ResultSet, error) {
	return CollectPattern(context.Background(), p, Request{Pattern: &q})
}

func blockingSearchReformulated(p *Peer, q triple.Pattern, opts SearchOptions) (*ResultSet, error) {
	return CollectPattern(context.Background(), p, Request{Pattern: &q, Reformulate: true, Options: opts})
}

func blockingConjunctiveSet(p *Peer, patterns []triple.Pattern, reformulate bool, opts SearchOptions) (*triple.BindingSet, ConjunctiveStats, error) {
	return CollectSet(context.Background(), p, Request{Patterns: patterns, Reformulate: reformulate, Options: opts})
}

func blockingConjunctive(p *Peer, patterns []triple.Pattern, reformulate bool, opts SearchOptions) ([]triple.Bindings, int, error) {
	bs, stats, err := blockingConjunctiveSet(p, patterns, reformulate, opts)
	if err != nil {
		return nil, stats.RouteMessages, err
	}
	return bs.ToBindings(), stats.RouteMessages, nil
}

func blockingRDQL(p *Peer, query string, reformulate bool, opts SearchOptions) ([]rdql.Row, error) {
	rows, _, err := CollectRows(context.Background(), p, Request{RDQL: query, Reformulate: reformulate, Options: opts})
	return rows, err
}
