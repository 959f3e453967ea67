package graph

import (
	"fmt"
	"math/rand"
)

// RandomDigraph generates a directed Erdős–Rényi style graph G(n, m): n nodes
// named "n0".."n{n-1}" and m distinct directed edges chosen uniformly at
// random without self-loops. It is used to validate the connectivity
// indicator against measured component sizes. The generator is deterministic
// given rng.
func RandomDigraph(n, m int, rng *rand.Rand) *Digraph {
	g := NewDigraph()
	for i := 0; i < n; i++ {
		g.AddNode(nodeName(i))
	}
	if n < 2 {
		return g
	}
	maxEdges := n * (n - 1)
	if m > maxEdges {
		m = maxEdges
	}
	for g.NumEdges() < m {
		from := rng.Intn(n)
		to := rng.Intn(n)
		if from == to {
			continue
		}
		g.AddEdge(nodeName(from), nodeName(to))
	}
	return g
}

// RingDigraph generates a directed cycle over n nodes — the minimal strongly
// connected topology, handy for tests.
func RingDigraph(n int) *Digraph {
	g := NewDigraph()
	for i := 0; i < n; i++ {
		g.AddNode(nodeName(i))
	}
	for i := 0; i < n; i++ {
		g.AddEdge(nodeName(i), nodeName((i+1)%n))
	}
	return g
}

// ChainDigraph generates a directed path n0 → n1 → … → n{n-1}.
func ChainDigraph(n int) *Digraph {
	g := NewDigraph()
	for i := 0; i < n; i++ {
		g.AddNode(nodeName(i))
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(nodeName(i), nodeName(i+1))
	}
	return g
}

func nodeName(i int) string { return fmt.Sprintf("n%d", i) }
