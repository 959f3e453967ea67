package pgrid

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"gridvine/internal/keyspace"
	"gridvine/internal/simnet"
)

func bootstrapOverlay(t *testing.T, peers, maxDepth int, seed int64) (*simnet.Network, *Overlay) {
	t.Helper()
	net := simnet.NewNetwork()
	ov, err := Bootstrap(net, BootstrapOptions{
		Peers:    peers,
		MaxDepth: maxDepth,
		Rng:      rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	return net, ov
}

func TestBootstrapValidation(t *testing.T) {
	net := simnet.NewNetwork()
	if _, err := Bootstrap(net, BootstrapOptions{Peers: 1, Rng: rand.New(rand.NewSource(1))}); err == nil {
		t.Error("Bootstrap with 1 peer should fail")
	}
	if _, err := Bootstrap(net, BootstrapOptions{Peers: 8}); err == nil {
		t.Error("Bootstrap without Rng should fail")
	}
}

func TestBootstrapConvergesToCover(t *testing.T) {
	_, ov := bootstrapOverlay(t, 32, 4, 1)
	// After enough meetings, every peer should have specialized.
	for _, n := range ov.Nodes() {
		if n.Path().Len() == 0 {
			t.Errorf("peer %s still has empty path", n.ID())
		}
	}
	if err := ov.CheckCoverage(); err != nil {
		t.Errorf("coverage: %v", err)
	}
}

func TestBootstrapRoutingWorks(t *testing.T) {
	_, ov := bootstrapOverlay(t, 32, 4, 2)
	issuer := ov.Nodes()[0]
	for i := 0; i < 25; i++ {
		key := keyspace.HashDefault(fmt.Sprintf("boot-key-%d", i))
		if _, err := issuer.Update(context.Background(), key, i); err != nil {
			t.Fatalf("Update key %d: %v", i, err)
		}
		values, _, err := ov.Nodes()[i%len(ov.Nodes())].Retrieve(context.Background(), key)
		if err != nil {
			t.Fatalf("Retrieve key %d: %v", i, err)
		}
		if len(values) != 1 {
			t.Errorf("key %d: values = %v", i, values)
		}
	}
}

func TestBootstrapFormsReplicas(t *testing.T) {
	// 32 peers at max depth 3 → 8 leaves → ~4 peers per leaf: replica sets
	// must form.
	_, ov := bootstrapOverlay(t, 32, 3, 3)
	withReplicas := 0
	for _, n := range ov.Nodes() {
		if len(n.Replicas()) > 0 {
			withReplicas++
		}
	}
	if withReplicas < len(ov.Nodes())/2 {
		t.Errorf("only %d/%d peers formed replica links", withReplicas, len(ov.Nodes()))
	}
}

func TestBootstrapDataMigratesOnSplit(t *testing.T) {
	// Insert data into peers before construction, then bootstrap: items must
	// end up on peers whose path matches their key.
	net := simnet.NewNetwork()
	rng := rand.New(rand.NewSource(4))
	ov := &Overlay{byID: make(map[simnet.PeerID]*Node), byPath: make(map[string][]*Node)}
	for i := 0; i < 16; i++ {
		id := simnet.PeerID(fmt.Sprintf("peer-%03d", i))
		node := NewNode(id, keyspace.Key{}, net, Config{Seed: rng.Int63()})
		ov.nodes = append(ov.nodes, node)
		ov.byID[id] = node
		net.Register(id, node)
	}
	// Pre-load items on random peers (every peer is responsible while paths
	// are empty).
	for i := 0; i < 40; i++ {
		key := keyspace.HashDefault(fmt.Sprintf("pre-%d", i))
		n := ov.nodes[rng.Intn(len(ov.nodes))]
		n.mu.Lock()
		n.insertLocked(key.String(), i)
		n.mu.Unlock()
	}
	for m := 0; m < 16*80; m++ {
		a := ov.nodes[rng.Intn(len(ov.nodes))]
		b := ov.nodes[rng.Intn(len(ov.nodes))]
		if a != b {
			meet(a, b, 3)
		}
	}
	ov.reindexPaths()
	if err := ov.CheckCoverage(); err != nil {
		t.Fatalf("coverage: %v", err)
	}
	// Every stored item must now be on a peer whose path prefixes its key.
	misplaced := 0
	for _, n := range ov.Nodes() {
		for _, k := range n.LocalKeys() {
			key := keyspace.MustParseKey(k)
			if !n.Path().IsPrefixOf(key) {
				misplaced++
			}
		}
	}
	if misplaced > 0 {
		t.Errorf("%d items misplaced after bootstrap", misplaced)
	}
}

func TestBootstrapUnevenPeerCount(t *testing.T) {
	_, ov := bootstrapOverlay(t, 25, 3, 5)
	if err := ov.CheckCoverage(); err != nil {
		t.Errorf("coverage: %v", err)
	}
}

func TestJoinAfterBuild(t *testing.T) {
	net, ov := testOverlay(t, 16, 2, 6)
	rng := rand.New(rand.NewSource(7))
	before := len(ov.Nodes())
	node, err := ov.Join(net, "joiner-1", ov.Nodes()[3], 8, rng)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if len(ov.Nodes()) != before+1 {
		t.Errorf("nodes = %d", len(ov.Nodes()))
	}
	if node.Path().Len() == 0 {
		t.Error("joiner did not specialize")
	}
	// The overlay must remain routable from the new node.
	key := keyspace.HashDefault("post-join")
	if _, err := node.Update(context.Background(), key, "v"); err != nil {
		t.Fatalf("Update from joiner: %v", err)
	}
	values, _, err := ov.Nodes()[0].Retrieve(context.Background(), key)
	if err != nil || len(values) != 1 {
		t.Errorf("Retrieve after join: %v %v", values, err)
	}
}

func TestJoinDuplicateIDRejected(t *testing.T) {
	net, ov := testOverlay(t, 8, 2, 8)
	rng := rand.New(rand.NewSource(9))
	if _, err := ov.Join(net, ov.Nodes()[0].ID(), ov.Nodes()[1], 8, rng); err == nil {
		t.Error("duplicate join should fail")
	}
}

func TestChurnRetrievalWithReplicas(t *testing.T) {
	// With replica factor 3, killing one random peer per leaf must not lose
	// data.
	net, ov := testOverlay(t, 30, 3, 10)
	issuer := ov.Nodes()[0]
	keysToCheck := make([]keyspace.Key, 0, 20)
	for i := 0; i < 20; i++ {
		k := keyspace.HashDefault(fmt.Sprintf("churn-%d", i))
		if _, err := issuer.Update(context.Background(), k, i); err != nil {
			t.Fatalf("Update: %v", err)
		}
		keysToCheck = append(keysToCheck, k)
	}
	rng := rand.New(rand.NewSource(11))
	// Kill ~1/3 of peers, never the issuer.
	for _, n := range ov.Nodes() {
		if n.ID() != issuer.ID() && rng.Float64() < 0.33 {
			net.Fail(n.ID())
		}
	}
	lost := 0
	for _, k := range keysToCheck {
		values, _, err := issuer.Retrieve(context.Background(), k)
		if err != nil || len(values) != 1 {
			lost++
		}
	}
	// Some loss is possible if all replicas of one leaf die; with factor 3
	// and p=0.33 the expected loss is ~3.6% of leaves. Allow a small number.
	if lost > 4 {
		t.Errorf("lost %d/20 keys under churn", lost)
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10}
	for in, want := range cases {
		if got := log2ceil(in); got != want {
			t.Errorf("log2ceil(%d) = %d, want %d", in, got, want)
		}
	}
}
