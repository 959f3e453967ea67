// Package graph provides the directed-graph machinery used by GridVine's
// connectivity analysis (paper §3.1): a directed graph over string-identified
// nodes, strongly/weakly connected components, reachability and degree
// distributions.
package graph

import (
	"fmt"
	"sort"
)

// Digraph is a directed graph over string node identifiers. Parallel edges
// are collapsed; self-loops are allowed. The zero value is not usable; call
// NewDigraph.
type Digraph struct {
	out map[string]map[string]bool
	in  map[string]map[string]bool
}

// NewDigraph returns an empty directed graph.
func NewDigraph() *Digraph {
	return &Digraph{
		out: make(map[string]map[string]bool),
		in:  make(map[string]map[string]bool),
	}
}

// AddNode inserts a node if not already present.
func (g *Digraph) AddNode(id string) {
	if _, ok := g.out[id]; !ok {
		g.out[id] = make(map[string]bool)
		g.in[id] = make(map[string]bool)
	}
}

// HasNode reports whether id is a node of the graph.
func (g *Digraph) HasNode(id string) bool {
	_, ok := g.out[id]
	return ok
}

// AddEdge inserts the directed edge from→to, adding missing endpoints.
func (g *Digraph) AddEdge(from, to string) {
	g.AddNode(from)
	g.AddNode(to)
	g.out[from][to] = true
	g.in[to][from] = true
}

// HasEdge reports whether the edge from→to exists.
func (g *Digraph) HasEdge(from, to string) bool {
	m, ok := g.out[from]
	return ok && m[to]
}

// NumNodes returns the number of nodes.
func (g *Digraph) NumNodes() int { return len(g.out) }

// NumEdges returns the number of directed edges.
func (g *Digraph) NumEdges() int {
	n := 0
	for _, m := range g.out {
		n += len(m)
	}
	return n
}

// Nodes returns all node identifiers in sorted order.
func (g *Digraph) Nodes() []string {
	ids := make([]string, 0, len(g.out))
	for id := range g.out {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Successors returns the out-neighbors of id in sorted order.
func (g *Digraph) Successors(id string) []string {
	return sortedKeys(g.out[id])
}

// OutDegree returns the out-degree of id (0 if absent).
func (g *Digraph) OutDegree(id string) int { return len(g.out[id]) }

// InDegree returns the in-degree of id (0 if absent).
func (g *Digraph) InDegree(id string) int { return len(g.in[id]) }

// Clone returns a deep copy of the graph.
func (g *Digraph) Clone() *Digraph {
	c := NewDigraph()
	for id := range g.out {
		c.AddNode(id)
	}
	for from, m := range g.out {
		for to := range m {
			c.AddEdge(from, to)
		}
	}
	return c
}

// String renders a compact summary, mainly for debugging.
func (g *Digraph) String() string {
	return fmt.Sprintf("Digraph(%d nodes, %d edges)", g.NumNodes(), g.NumEdges())
}

func sortedKeys(m map[string]bool) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Reachable returns the set of nodes reachable from start by directed paths,
// including start itself.
func (g *Digraph) Reachable(start string) map[string]bool {
	seen := map[string]bool{}
	if !g.HasNode(start) {
		return seen
	}
	stack := []string{start}
	seen[start] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for succ := range g.out[n] {
			if !seen[succ] {
				seen[succ] = true
				stack = append(stack, succ)
			}
		}
	}
	return seen
}
