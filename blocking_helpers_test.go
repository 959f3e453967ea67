package gridvine

import "context"

// Blocking test helpers: each runs one request through the matching Collect
// helper, for facade tests and benchmarks that want the whole answer at
// once.

func blockingSearchFor(p *Peer, q Pattern) (*ResultSet, error) {
	return CollectPattern(context.Background(), p, Request{Pattern: &q})
}

func blockingSearchReformulated(p *Peer, q Pattern, opts SearchOptions) (*ResultSet, error) {
	return CollectPattern(context.Background(), p, Request{Pattern: &q, Reformulate: true, Options: opts})
}

func blockingConjunctive(p *Peer, patterns []Pattern, reformulate bool, opts SearchOptions) ([]Bindings, int, error) {
	bs, stats, err := CollectSet(context.Background(), p, Request{Patterns: patterns, Reformulate: reformulate, Options: opts})
	if err != nil {
		return nil, stats.RouteMessages, err
	}
	return bs.ToBindings(), stats.RouteMessages, nil
}

func blockingRDQL(p *Peer, query string, reformulate bool, opts SearchOptions) ([]Row, error) {
	rows, _, err := CollectRows(context.Background(), p, Request{RDQL: query, Reformulate: reformulate, Options: opts})
	return rows, err
}
