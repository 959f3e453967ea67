package pgrid

import (
	"math/rand"
	"testing"

	"gridvine/internal/keyspace"
	"gridvine/internal/simnet"
)

func testOverlay(t *testing.T, peers, replicaFactor int, seed int64) (*simnet.Network, *Overlay) {
	t.Helper()
	net := simnet.NewNetwork()
	ov, err := Build(net, BuildOptions{
		Peers:         peers,
		ReplicaFactor: replicaFactor,
		Rng:           rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return net, ov
}

func TestBuildValidation(t *testing.T) {
	net := simnet.NewNetwork()
	if _, err := Build(net, BuildOptions{Peers: 0, Rng: rand.New(rand.NewSource(1))}); err == nil {
		t.Error("Build with 0 peers should fail")
	}
	if _, err := Build(net, BuildOptions{Peers: 4}); err == nil {
		t.Error("Build without Rng should fail")
	}
}

func TestBalancedPathsComplete(t *testing.T) {
	for leaves := 1; leaves <= 40; leaves++ {
		paths := balancedPaths(leaves)
		if len(paths) != leaves {
			t.Fatalf("leaves=%d produced %d paths", leaves, len(paths))
		}
		assertCompleteCover(t, paths)
		// Depth spread ≤ 1.
		min, max := paths[0].Len(), paths[0].Len()
		for _, p := range paths {
			if p.Len() < min {
				min = p.Len()
			}
			if p.Len() > max {
				max = p.Len()
			}
		}
		if max-min > 1 {
			t.Errorf("leaves=%d depth spread %d–%d", leaves, min, max)
		}
	}
}

func assertCompleteCover(t *testing.T, paths []keyspace.Key) {
	t.Helper()
	maxDepth := 0
	for _, p := range paths {
		if p.Len() > maxDepth {
			maxDepth = p.Len()
		}
	}
	for i := range paths {
		for j := range paths {
			if i != j && paths[i].IsPrefixOf(paths[j]) {
				t.Fatalf("path %v is prefix of %v", paths[i], paths[j])
			}
		}
	}
	var total uint64
	for _, p := range paths {
		total += 1 << uint(maxDepth-p.Len())
	}
	if total != 1<<uint(maxDepth) {
		t.Fatalf("cover %d/%d at depth %d, paths=%v", total, uint64(1)<<uint(maxDepth), maxDepth, paths)
	}
}

func TestBuildCoverageAndReplicas(t *testing.T) {
	_, ov := testOverlay(t, 32, 2, 1)
	if err := ov.CheckCoverage(); err != nil {
		t.Fatalf("coverage: %v", err)
	}
	// Every node should have exactly one replica (32 peers / 16 leaves).
	for _, n := range ov.Nodes() {
		if len(n.Replicas()) != 1 {
			t.Errorf("node %s has %d replicas, want 1", n.ID(), len(n.Replicas()))
		}
	}
}

func TestBuildRefsPresent(t *testing.T) {
	_, ov := testOverlay(t, 64, 2, 2)
	for _, n := range ov.Nodes() {
		for l := 0; l < n.Path().Len(); l++ {
			if len(n.Refs(l)) == 0 {
				t.Errorf("node %s (path %s) missing refs at level %d", n.ID(), n.Path(), l)
			}
		}
	}
}

func TestBuildOddPeerCount(t *testing.T) {
	_, ov := testOverlay(t, 13, 3, 3)
	if err := ov.CheckCoverage(); err != nil {
		t.Fatalf("coverage: %v", err)
	}
	if len(ov.Nodes()) != 13 {
		t.Errorf("nodes = %d", len(ov.Nodes()))
	}
}

func TestAdaptivePathsSkewedSample(t *testing.T) {
	// Sample heavily skewed toward keys starting 000…: the adaptive trie
	// must be deeper on that side.
	var sample []keyspace.Key
	for i := 0; i < 900; i++ {
		sample = append(sample, keyspace.Hash("aaa", 16).FlipBit(15-i%8))
	}
	for i := 0; i < 100; i++ {
		sample = append(sample, keyspace.Hash("zzz", 16).FlipBit(15-i%8))
	}
	paths, weights := adaptivePaths(sample, 16, 2)
	assertCompleteCover(t, paths)
	if len(paths) < 4 {
		t.Fatalf("paths = %d", len(paths))
	}
	if len(weights) != len(paths) {
		t.Fatalf("weights = %d, paths = %d", len(weights), len(paths))
	}
	total := 0
	for _, w := range weights {
		total += w
	}
	if total != len(sample) {
		t.Errorf("weights sum to %d, want %d", total, len(sample))
	}
	// The subtree holding "aaa" keys should be split deeper than the one
	// holding "zzz" keys.
	aKey := keyspace.Hash("aaa", 16)
	zKey := keyspace.Hash("zzz", 16)
	depthOf := func(k keyspace.Key) int {
		for _, p := range paths {
			if p.IsPrefixOf(k) {
				return p.Len()
			}
		}
		t.Fatalf("no leaf covers %v", k)
		return 0
	}
	if depthOf(aKey) <= depthOf(zKey) {
		t.Errorf("dense side depth %d should exceed sparse side depth %d", depthOf(aKey), depthOf(zKey))
	}
}

func TestBuildUnbalancedCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var sample []keyspace.Key
	for i := 0; i < 500; i++ {
		// Zipf-flavoured skew: most keys share a short alphabet prefix.
		s := string(rune('a' + rng.Intn(3)))
		if rng.Intn(10) == 0 {
			s = string(rune('a' + rng.Intn(26)))
		}
		sample = append(sample, keyspace.HashDefault(s+"suffix"))
	}
	net := simnet.NewNetwork()
	ov, err := Build(net, BuildOptions{Peers: 24, ReplicaFactor: 2, SampleKeys: sample, Rng: rng})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := ov.CheckCoverage(); err != nil {
		t.Fatalf("coverage: %v", err)
	}
}

func TestOverlayAccessors(t *testing.T) {
	_, ov := testOverlay(t, 8, 2, 7)
	if ov.Node("peer-003") == nil {
		t.Error("Node lookup failed")
	}
	if ov.Node("ghost") != nil {
		t.Error("ghost lookup should be nil")
	}
	rng := rand.New(rand.NewSource(1))
	if ov.RandomNode(rng) == nil {
		t.Error("RandomNode returned nil")
	}
	if got := len(ov.Paths()); got != 4 {
		t.Errorf("distinct paths = %d, want 4", got)
	}
	if ov.MaxPathDepth() != 2 {
		t.Errorf("MaxPathDepth = %d, want 2", ov.MaxPathDepth())
	}
}
