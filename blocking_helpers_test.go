package gridvine

import "context"

// Blocking test helpers: each drives Query and drains the cursor with the
// matching Collect helper, for facade tests and benchmarks that want the
// whole answer at once.

func blockingSearchFor(p *Peer, q Pattern) (*ResultSet, error) {
	ctx := context.Background()
	cur, err := p.Query(ctx, Request{Pattern: &q})
	if err != nil {
		return nil, err
	}
	return CollectPattern(ctx, cur)
}

func blockingSearchReformulated(p *Peer, q Pattern, opts SearchOptions) (*ResultSet, error) {
	ctx := context.Background()
	cur, err := p.Query(ctx, Request{Pattern: &q, Reformulate: true, Options: opts})
	if err != nil {
		return nil, err
	}
	return CollectPattern(ctx, cur)
}

func blockingConjunctive(p *Peer, patterns []Pattern, reformulate bool, opts SearchOptions) ([]Bindings, int, error) {
	ctx := context.Background()
	cur, err := p.Query(ctx, Request{Patterns: patterns, Reformulate: reformulate, Options: opts})
	if err != nil {
		return nil, 0, err
	}
	bs, stats, err := CollectSet(ctx, cur)
	if err != nil {
		return nil, stats.RouteMessages, err
	}
	return bs.ToBindings(), stats.RouteMessages, nil
}

func blockingRDQL(p *Peer, query string, reformulate bool, opts SearchOptions) ([]Row, error) {
	ctx := context.Background()
	cur, err := p.Query(ctx, Request{RDQL: query, Reformulate: reformulate, Options: opts})
	if err != nil {
		return nil, err
	}
	rows, _, err := CollectRows(ctx, cur)
	return rows, err
}
