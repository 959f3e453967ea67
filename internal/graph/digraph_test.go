package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddNodeAndEdge(t *testing.T) {
	g := NewDigraph()
	g.AddEdge("a", "b")
	if !g.HasNode("a") || !g.HasNode("b") {
		t.Fatal("AddEdge should add endpoints")
	}
	if !g.HasEdge("a", "b") {
		t.Error("edge a→b missing")
	}
	if g.HasEdge("b", "a") {
		t.Error("edge b→a should not exist")
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Errorf("NumNodes=%d NumEdges=%d", g.NumNodes(), g.NumEdges())
	}
}

func TestParallelEdgesCollapse(t *testing.T) {
	g := NewDigraph()
	g.AddEdge("a", "b")
	g.AddEdge("a", "b")
	if g.NumEdges() != 1 {
		t.Errorf("parallel edge not collapsed: %d", g.NumEdges())
	}
}

func TestDegrees(t *testing.T) {
	g := NewDigraph()
	g.AddEdge("a", "b")
	g.AddEdge("a", "c")
	g.AddEdge("b", "c")
	if g.OutDegree("a") != 2 || g.InDegree("a") != 0 {
		t.Errorf("a degrees: out=%d in=%d", g.OutDegree("a"), g.InDegree("a"))
	}
	if g.InDegree("c") != 2 || g.OutDegree("c") != 0 {
		t.Errorf("c degrees: in=%d out=%d", g.InDegree("c"), g.OutDegree("c"))
	}
}

func TestSuccessorsPredecessorsSorted(t *testing.T) {
	g := NewDigraph()
	g.AddEdge("a", "z")
	g.AddEdge("a", "b")
	g.AddEdge("a", "m")
	succ := g.Successors("a")
	want := []string{"b", "m", "z"}
	for i := range want {
		if succ[i] != want[i] {
			t.Fatalf("Successors = %v, want %v", succ, want)
		}
	}
}

func TestClone(t *testing.T) {
	g := NewDigraph()
	g.AddEdge("a", "b")
	c := g.Clone()
	c.AddEdge("b", "c")
	if g.HasNode("c") {
		t.Error("mutation of clone leaked into original")
	}
	if !c.HasEdge("a", "b") {
		t.Error("clone missing original edge")
	}
}

func TestReachable(t *testing.T) {
	g := ChainDigraph(4)
	r := g.Reachable("n1")
	if !r["n1"] || !r["n2"] || !r["n3"] {
		t.Errorf("Reachable(n1) = %v", r)
	}
	if r["n0"] {
		t.Error("n0 should not be reachable from n1")
	}
	if len(g.Reachable("missing")) != 0 {
		t.Error("Reachable of unknown node should be empty")
	}
}

func TestSCCOnRing(t *testing.T) {
	g := RingDigraph(5)
	comps := g.StronglyConnectedComponents()
	if len(comps) != 1 || len(comps[0]) != 5 {
		t.Errorf("ring SCCs = %v", comps)
	}
}

func TestSCCOnChain(t *testing.T) {
	g := ChainDigraph(4)
	comps := g.StronglyConnectedComponents()
	if len(comps) != 4 {
		t.Errorf("chain of 4 should have 4 singleton SCCs, got %v", comps)
	}
}

func TestSCCMixed(t *testing.T) {
	g := NewDigraph()
	// SCC {a,b,c}, SCC {d,e}, singleton {f}.
	g.AddEdge("a", "b")
	g.AddEdge("b", "c")
	g.AddEdge("c", "a")
	g.AddEdge("c", "d")
	g.AddEdge("d", "e")
	g.AddEdge("e", "d")
	g.AddEdge("e", "f")
	comps := g.StronglyConnectedComponents()
	sizes := map[int]int{}
	for _, c := range comps {
		sizes[len(c)]++
	}
	if sizes[3] != 1 || sizes[2] != 1 || sizes[1] != 1 {
		t.Errorf("SCC sizes wrong: %v", comps)
	}
}

func TestWCC(t *testing.T) {
	g := NewDigraph()
	g.AddEdge("a", "b")
	g.AddEdge("c", "d")
	g.AddNode("e")
	comps := g.WeaklyConnectedComponents()
	if len(comps) != 3 {
		t.Errorf("WCC count = %d, want 3", len(comps))
	}
}

func TestLargestFractions(t *testing.T) {
	g := NewDigraph()
	g.AddEdge("a", "b")
	g.AddEdge("b", "a")
	g.AddNode("c")
	g.AddNode("d")
	if f := g.LargestSCCFraction(); f != 0.5 {
		t.Errorf("LargestSCCFraction = %v, want 0.5", f)
	}
	if f := g.LargestWCCFraction(); f != 0.5 {
		t.Errorf("LargestWCCFraction = %v, want 0.5", f)
	}
	empty := NewDigraph()
	if empty.LargestSCCFraction() != 0 || empty.LargestWCCFraction() != 0 {
		t.Error("empty graph fractions should be 0")
	}
}

// Property: SCC membership agrees with mutual reachability, on random graphs.
func TestSCCAgreesWithReachabilityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(12)
		m := r.Intn(n * (n - 1))
		g := RandomDigraph(n, m, r)
		comp := map[string]int{}
		for i, c := range g.StronglyConnectedComponents() {
			for _, node := range c {
				comp[node] = i
			}
		}
		nodes := g.Nodes()
		for _, a := range nodes {
			ra := g.Reachable(a)
			for _, b := range nodes {
				mutual := ra[b] && g.Reachable(b)[a]
				if mutual != (comp[a] == comp[b]) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDegreeDistribution(t *testing.T) {
	d := NewDegreeDistribution()
	d.Observe(1, 2)
	d.Observe(1, 2)
	d.Observe(0, 0)
	d.Observe(3, 1)
	if d.N() != 4 {
		t.Errorf("N = %d", d.N())
	}
	// E[k] = (2+2+0+1)/4 = 1.25
	// ci = E[jk] - E[k] = (2+2+0+3)/4 - 1.25 = 1.75 - 1.25 = 0.5
	if got := d.ConnectivityIndicator(); got != 0.5 {
		t.Errorf("ci = %v, want 0.5", got)
	}
}

func TestConnectivityIndicatorEmpty(t *testing.T) {
	d := NewDegreeDistribution()
	if d.ConnectivityIndicator() != 0 {
		t.Error("empty distribution should yield zero")
	}
}

func TestConnectivityIndicatorOnRing(t *testing.T) {
	// Every node has j=k=1: ci = (1·1 − 1)·1 = 0, the critical point —
	// consistent with a ring being exactly one giant cycle.
	g := RingDigraph(10)
	if ci := ConnectivityIndicatorOf(g); ci != 0 {
		t.Errorf("ring ci = %v, want 0", ci)
	}
}

func TestConnectivityIndicatorOnChain(t *testing.T) {
	// Chain: endpoints (0,1) and (1,0), middles (1,1).
	// ci = [Σ jk − Σ k]/n = [(n−2)·1 − (n−1)]/n = −1/n < 0.
	g := ChainDigraph(10)
	if ci := ConnectivityIndicatorOf(g); ci >= 0 {
		t.Errorf("chain ci = %v, want < 0", ci)
	}
}

// Property: the sign of ci predicts the presence of a large strongly
// connected component on dense vs sparse random digraphs. We test the two
// clearly separated regimes (far below and far above the threshold).
func TestConnectivityIndicatorRegimes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 200
	// Sparse: mean degree 0.3 — ci should be negative, no giant SCC.
	sparse := RandomDigraph(n, n*3/10, rng)
	if ci := ConnectivityIndicatorOf(sparse); ci >= 0 {
		t.Errorf("sparse ci = %v, want < 0", ci)
	}
	if f := sparse.LargestSCCFraction(); f > 0.1 {
		t.Errorf("sparse largest SCC fraction = %v, want small", f)
	}
	// Dense: mean degree 3 — ci should be positive, giant SCC present.
	dense := RandomDigraph(n, n*3, rng)
	if ci := ConnectivityIndicatorOf(dense); ci <= 0 {
		t.Errorf("dense ci = %v, want > 0", ci)
	}
	if f := dense.LargestSCCFraction(); f < 0.5 {
		t.Errorf("dense largest SCC fraction = %v, want large", f)
	}
}

func TestRandomDigraphEdgeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := RandomDigraph(10, 25, rng)
	if g.NumEdges() != 25 {
		t.Errorf("edges = %d, want 25", g.NumEdges())
	}
	// Requesting more edges than possible caps at n(n-1).
	g2 := RandomDigraph(3, 100, rng)
	if g2.NumEdges() != 6 {
		t.Errorf("capped edges = %d, want 6", g2.NumEdges())
	}
	g3 := RandomDigraph(1, 5, rng)
	if g3.NumEdges() != 0 || g3.NumNodes() != 1 {
		t.Error("single-node graph should have no edges")
	}
}

func TestRandomDigraphNoSelfLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := RandomDigraph(20, 100, rng)
	for _, n := range g.Nodes() {
		if g.HasEdge(n, n) {
			t.Fatalf("self-loop at %s", n)
		}
	}
}
