package graph

// DegreePair is a joint (in-degree, out-degree) observation for one node.
type DegreePair struct {
	In  int
	Out int
}

// DegreeDistribution is the empirical joint distribution p_{jk} of node
// degrees: the probability that a node has in-degree j and out-degree k.
// It is the quantity each GridVine domain key aggregates from the per-schema
// degree reports (paper §3.1).
type DegreeDistribution struct {
	counts map[DegreePair]int
	total  int
}

// NewDegreeDistribution returns an empty distribution.
func NewDegreeDistribution() *DegreeDistribution {
	return &DegreeDistribution{counts: make(map[DegreePair]int)}
}

// Observe records one node with in-degree j and out-degree k.
func (d *DegreeDistribution) Observe(j, k int) {
	d.counts[DegreePair{In: j, Out: k}]++
	d.total++
}

// N returns the number of observations.
func (d *DegreeDistribution) N() int { return d.total }

// ConnectivityIndicator computes GridVine's connectivity indicator
//
//	ci = Σ_{j,k} (jk − k) p_{jk}
//
// over the joint degree distribution (paper §3.1). ci ≥ 0 indicates the
// emergence of a giant connected component in the graph of schemas and
// mappings; the mediation layer is considered insufficiently connected while
// ci < 0. The formula is the directed-graph phase-transition criterion of
// Newman, Strogatz and Watts (2001): since every directed edge contributes
// one unit of in-degree and one of out-degree, E[j] = E[k] and
// Σ(jk−k)p_{jk} = E[jk] − E[k] matches their Σ(2jk−j−k)p_{jk}/2.
func (d *DegreeDistribution) ConnectivityIndicator() float64 {
	if d.total == 0 {
		return 0
	}
	sum := 0.0
	for p, c := range d.counts {
		jk := float64(p.In) * float64(p.Out)
		sum += (jk - float64(p.Out)) * float64(c)
	}
	return sum / float64(d.total)
}

// Pairs returns every observed (j,k) pair with its count. Order is
// unspecified; callers needing determinism should sort.
func (d *DegreeDistribution) Pairs() map[DegreePair]int {
	out := make(map[DegreePair]int, len(d.counts))
	for p, c := range d.counts {
		out[p] = c
	}
	return out
}

// DegreeDistributionOf extracts the joint degree distribution of a graph.
func DegreeDistributionOf(g *Digraph) *DegreeDistribution {
	d := NewDegreeDistribution()
	for _, n := range g.Nodes() {
		d.Observe(g.InDegree(n), g.OutDegree(n))
	}
	return d
}

// ConnectivityIndicatorOf is shorthand for
// DegreeDistributionOf(g).ConnectivityIndicator().
func ConnectivityIndicatorOf(g *Digraph) float64 {
	return DegreeDistributionOf(g).ConnectivityIndicator()
}
