package pgrid

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"gridvine/internal/keyspace"
	"gridvine/internal/simnet"
)

// replicasOf returns the overlay's peers responsible for key, in creation
// order.
func replicasOf(ov *Overlay, key keyspace.Key) []*Node {
	var out []*Node
	for _, n := range ov.Nodes() {
		if n.Responsible(key) {
			out = append(out, n)
		}
	}
	return out
}

// failExec makes the exec requests delivered to n fail with a handler error,
// as an in-process delivery fails, for as long as fails says so of the
// count of exec requests so far; it returns that count.
func failExec(net *simnet.Network, n *Node, fails func(calls int64) bool) *atomic.Int64 {
	var calls atomic.Int64
	net.Register(n.ID(), simnet.HandlerFunc(func(from simnet.PeerID, m simnet.Message) (simnet.Message, error) {
		if _, exec := m.Payload.(ExecRequest); exec && fails(calls.Add(1)) {
			return simnet.Message{}, errors.New("handler failed")
		}
		return n.HandleMessage(from, m)
	}))
	return &calls
}

// TestCoHostedPeerIsTriedFirst: a key whose leaf has a co-hosted peer is
// answered by it in one exchange, on the first operation and ahead of the
// peer the issuer learned for that leaf.
func TestCoHostedPeerIsTriedFirst(t *testing.T) {
	_, ov := testOverlay(t, 32, 2, 31)
	key := keyspace.HashDefault("cohosted-first")
	issuer := remoteIssuer(t, ov, key)
	_, first, err := issuer.Retrieve(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	var co *Node
	for _, r := range replicasOf(ov, key) {
		if r.ID() != answerer(first) {
			co = r
		}
	}
	issuer.SetCoHosted([]*Node{issuer, co})
	for i := 0; i < 3; i++ {
		_, route, err := issuer.Retrieve(context.Background(), key)
		if err != nil {
			t.Fatal(err)
		}
		if route.Hops() != 1 || answerer(route) != co.ID() || route.Messages != 1 || !route.Shortcut || route.Degraded {
			t.Errorf("Retrieve %d: route %+v, want one exchange with the co-hosted %s", i, route, co.ID())
		}
	}
	if got := learned(issuer, co.Path()); got != answerer(first) {
		t.Errorf("learned leaf = %q, want %s: a co-hosted answer is not learned", got, answerer(first))
	}

	// Cold: another issuer's very first operation on the key goes there too.
	cold := ov.Nodes()[0]
	if cold.Responsible(key) {
		cold = ov.Nodes()[len(ov.Nodes())-1]
	}
	cold.SetCoHosted(ov.Nodes())
	if _, route, err := cold.Retrieve(context.Background(), key); err != nil || route.Hops() != 1 || answerer(route) != replicasOf(ov, key)[0].ID() {
		t.Errorf("cold Retrieve: route %+v, err %v; want one exchange with %s", route, err, replicasOf(ov, key)[0].ID())
	}
}

// TestFailedCoHostedPeerIsExcludedForOneOperation: a co-hosted peer whose
// handler fails costs that operation the exchange — the replica answers
// and the answer is Degraded — but it is not suspected, and the next
// operation goes to it again, whatever the remote answer taught the issuer.
// Suspicion from elsewhere does not steer routing away from it either.
func TestFailedCoHostedPeerIsExcludedForOneOperation(t *testing.T) {
	net, ov := testOverlay(t, 32, 2, 32)
	key := keyspace.HashDefault("cohosted-fails")
	issuer := remoteIssuer(t, ov, key)
	replicas := replicasOf(ov, key)
	co := replicas[0]
	issuer.SetCoHosted([]*Node{co})
	if _, err := issuer.Update(context.Background(), key, "v"); err != nil {
		t.Fatal(err)
	}

	failExec(net, co, func(calls int64) bool { return calls == 1 })
	values, route, err := issuer.Retrieve(context.Background(), key)
	if err != nil || len(values) != 1 || values[0] != "v" {
		t.Fatalf("Retrieve with the co-hosted handler failing: %v, %v", values, err)
	}
	if a := answerer(route); a == co.ID() || !ov.Node(a).Responsible(key) || !route.Degraded || !route.Shortcut {
		t.Errorf("route %+v, want a Degraded answer from the other replica", route)
	}
	if issuer.Suspected(co.ID()) {
		t.Errorf("the co-hosted %s is suspected after one failed in-process delivery", co.ID())
	}
	if got := learned(issuer, co.Path()); got != answerer(route) {
		t.Errorf("learned leaf = %q, want the remote answerer %s", got, answerer(route))
	}

	issuer.markSuspect(co.ID())
	for i := 0; i < 2; i++ {
		_, route, err = issuer.Retrieve(context.Background(), key)
		if err != nil || route.Hops() != 1 || answerer(route) != co.ID() || route.Degraded {
			t.Errorf("Retrieve %d after the failure: route %+v, err %v; want one exchange with %s, not Degraded", i, route, err, co.ID())
		}
	}
}

// TestFailingCoHostedPeerIsTriedOncePerOperation: the exclusion outlives
// the pass. With the co-hosted peer's handler failing and the key's other
// replica down, every pass dead-ends and the operation retries; the
// co-hosted peer is tried on the first pass only, not on every retry.
func TestFailingCoHostedPeerIsTriedOncePerOperation(t *testing.T) {
	net, ov := testOverlay(t, 32, 2, 34)
	key := keyspace.HashDefault("cohosted-retries")
	issuer := remoteIssuer(t, ov, key)
	replicas := replicasOf(ov, key)
	co := replicas[0]
	issuer.SetCoHosted([]*Node{co})
	calls := failExec(net, co, func(int64) bool { return true })
	for _, r := range replicas[1:] {
		net.Fail(r.ID())
	}
	_, route, err := issuer.Retrieve(context.Background(), key)
	if !errors.Is(err, ErrNoRoute) || route.Retries == 0 {
		t.Fatalf("Retrieve: route %+v, err %v; want retries ending in ErrNoRoute", route, err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("the failing co-hosted %s was tried %d times in one operation, want 1", co.ID(), n)
	}
}

// TestCoHostedPeerAnsweringNotMeRoutesOn: the table holds the paths the
// peers had when it was set; a co-hosted peer whose leaf split since
// answers "not me", and its references lead to the responsible peer
// without excluding it or marking the answer Degraded.
func TestCoHostedPeerAnsweringNotMeRoutesOn(t *testing.T) {
	net, ov := testOverlay(t, 32, 2, 33)
	key := keyspace.HashDefault("cohosted-split")
	issuer := remoteIssuer(t, ov, key)
	old := replicasOf(ov, key)[0]
	issuer.SetCoHosted([]*Node{old})
	oldPath := old.Path()
	newcomer := NewNode("peer-new", oldPath, net, Config{})
	net.Register(newcomer.ID(), newcomer)
	if key.Bit(oldPath.Len()) == 0 {
		meet(newcomer, old, oldPath.Len()+1)
	} else {
		meet(old, newcomer, oldPath.Len()+1)
	}
	_, route, err := issuer.Retrieve(context.Background(), key)
	if err != nil || route.Hops() != 2 || route.Contacted[0] != old.ID() || answerer(route) != newcomer.ID() || route.Degraded {
		t.Errorf("route %+v, err %v; want %s then %s, not Degraded", route, err, old.ID(), newcomer.ID())
	}
}

// TestCoHostedTableBeyondTheLearnedCapLosesNothing: the table is not the
// learned cache, so a process hosting more leaves than learnedLeafCap keeps
// every one of them.
func TestCoHostedTableBeyondTheLearnedCapLosesNothing(t *testing.T) {
	net := simnet.NewNetwork()
	const depth = 12 // 4096 leaves
	var peers []*Node
	for i := 0; i < 1<<depth; i++ {
		path := keyspace.MustParseKey(fmt.Sprintf("%0*b", depth, i))
		peers = append(peers, NewNode(simnet.PeerID(fmt.Sprint("p", i)), path, net, Config{}))
	}
	issuer := peers[0]
	issuer.SetCoHosted(peers)
	for _, p := range peers[1:] {
		if got := issuer.coHostedHop(p.Path().String()+"0110", nil); got != p.ID() {
			t.Fatalf("leaf %s: co-hosted hop %q, want %s", p.Path(), got, p.ID())
		}
	}
	if got := issuer.coHostedHop(issuer.Path().String()+"0110", nil); got != "" {
		t.Errorf("the issuer's own leaf has co-hosted hop %s", got)
	}
}

// routesDigest runs TestSeededRoutesRepeat's workload — writes, reads, a
// failure — after prepare, and digests the routes.
func routesDigest(t *testing.T, prepare func(*Overlay)) string {
	net, ov := testOverlay(t, 64, 2, 25)
	prepare(ov)
	var routes strings.Builder
	for i := 0; i < 120; i++ {
		issuer := ov.Nodes()[(i*7)%len(ov.Nodes())]
		key := keyspace.HashDefault(fmt.Sprintf("seeded-%d", i%17))
		if i == 60 {
			net.Fail(ov.Nodes()[3].ID())
		}
		var route Route
		var err error
		if i%3 == 0 {
			route, err = issuer.Update(context.Background(), key, i)
		} else {
			_, route, err = issuer.Retrieve(context.Background(), key)
		}
		if err != nil && !errors.Is(err, ErrNoRoute) {
			t.Fatalf("op %d: %v", i, err)
		}
		fmt.Fprintf(&routes, "%+v\n", route)
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(routes.String())))
}

// TestNoCoHostingRoutesAsBefore: an overlay whose nodes share a process
// with no other peer — simnet experiments, the facade's TCP network —
// routes exactly as it did before co-hosted peers existed. The digest was
// taken from the seeded workload before the table was added.
func TestNoCoHostingRoutesAsBefore(t *testing.T) {
	const want = "74cf8c360ef541705183d028b013513b921501369c2924bde91af0a55f01d5a6"
	if got := routesDigest(t, func(*Overlay) {}); got != want {
		t.Errorf("routes digest %s, want %s", got, want)
	}
	alone := func(ov *Overlay) {
		for _, n := range ov.Nodes() {
			n.SetCoHosted([]*Node{n})
		}
	}
	if got := routesDigest(t, alone); got != want {
		t.Errorf("with every node co-hosted only with itself: routes digest %s, want %s", got, want)
	}
}
