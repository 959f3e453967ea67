package pgrid

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"gridvine/internal/keyspace"
	"gridvine/internal/simnet"
)

// remoteIssuer returns the first node not responsible for key.
func remoteIssuer(t *testing.T, ov *Overlay, key keyspace.Key) *Node {
	t.Helper()
	for _, n := range ov.Nodes() {
		if !n.Responsible(key) {
			return n
		}
	}
	t.Fatal("every node is responsible for the key")
	return nil
}

// answerer is the peer that answered a remote route.
func answerer(r Route) simnet.PeerID { return r.Contacted[len(r.Contacted)-1] }

// learned returns the issuer's hint for the leaf at path ("" when none).
func learned(n *Node, path keyspace.Key) simnet.PeerID {
	n.leaves.mu.Lock()
	defer n.leaves.mu.Unlock()
	return n.leaves.peers[path.String()]
}

// TestSecondRetrieveCostsOneMessage: once an issuer has reached a key's
// leaf, the next Retrieve of that key is one exchange with the peer that
// answered — the transport counts exactly one message.
func TestSecondRetrieveCostsOneMessage(t *testing.T) {
	net, ov := testOverlay(t, 64, 2, 21)
	for i := 0; i < 20; i++ {
		key := keyspace.HashDefault(fmt.Sprintf("warm-%d", i))
		issuer := remoteIssuer(t, ov, key)
		_, cold, err := issuer.Retrieve(context.Background(), key)
		if err != nil {
			t.Fatalf("cold Retrieve: %v", err)
		}
		before := net.Stats().Messages
		_, warm, err := issuer.Retrieve(context.Background(), key)
		if err != nil {
			t.Fatalf("warm Retrieve: %v", err)
		}
		if sent := net.Stats().Messages - before; sent != 1 || warm.Messages != 1 {
			t.Errorf("key %d: warm Retrieve sent %d messages (route says %d), want 1", i, sent, warm.Messages)
		}
		if !warm.Shortcut || warm.Degraded || answerer(warm) != answerer(cold) {
			t.Errorf("key %d: warm route %+v after cold route %+v", i, warm, cold)
		}
	}
}

// TestSplitLearnedLeafIsForgotten: a learned peer whose path split beneath
// the key answers "not me"; the route follows its references to the new
// responsible peer — one extra exchange, a correct answer, not Degraded —
// and the stale hint is replaced by the new leaf.
func TestSplitLearnedLeafIsForgotten(t *testing.T) {
	net, ov := testOverlay(t, 32, 2, 22)
	key := keyspace.HashDefault("split-key")
	issuer := remoteIssuer(t, ov, key)
	if _, err := issuer.Update(context.Background(), key, "v"); err != nil {
		t.Fatalf("Update: %v", err)
	}
	_, first, err := issuer.Retrieve(context.Background(), key)
	if err != nil {
		t.Fatalf("Retrieve: %v", err)
	}
	old := ov.Node(answerer(first))
	oldPath := old.Path()

	// Split the learned peer's leaf: a newcomer with the same path takes the
	// half the key lies in, and the old peer keeps a reference to it.
	newcomer := NewNode("peer-new", oldPath, net, Config{})
	net.Register(newcomer.ID(), newcomer)
	if key.Bit(oldPath.Len()) == 0 {
		meet(newcomer, old, oldPath.Len()+1)
	} else {
		meet(old, newcomer, oldPath.Len()+1)
	}
	if old.Responsible(key) || !newcomer.Responsible(key) {
		t.Fatalf("split left %s responsible=%v, newcomer responsible=%v", old.ID(), old.Responsible(key), newcomer.Responsible(key))
	}

	values, route, err := issuer.Retrieve(context.Background(), key)
	if err != nil || len(values) != 1 || values[0] != "v" {
		t.Fatalf("Retrieve after split: %v, %v", values, err)
	}
	want := []simnet.PeerID{old.ID(), newcomer.ID()}
	if !reflect.DeepEqual(route.Contacted, want) || route.Messages != 2 || route.Degraded || !route.Shortcut {
		t.Errorf("route after split = %+v, want contacted %v in 2 messages, shortcut, not degraded", route, want)
	}
	if got := learned(issuer, oldPath); got != "" {
		t.Errorf("the split leaf is still a hint, for %s", got)
	}
	if got := learned(issuer, newcomer.Path()); got != newcomer.ID() {
		t.Errorf("new leaf hint = %q, want %s", got, newcomer.ID())
	}
	if _, again, _ := issuer.Retrieve(context.Background(), key); again.Messages != 1 || answerer(again) != newcomer.ID() {
		t.Errorf("third Retrieve route = %+v, want one exchange with %s", again, newcomer.ID())
	}
}

// TestFailedLearnedLeafIsForgotten: a learned peer that has failed costs
// the route one failed send; the replica answers, the answer is Degraded,
// and the dead peer is suspected and no longer the hint.
func TestFailedLearnedLeafIsForgotten(t *testing.T) {
	net, ov := testOverlay(t, 32, 2, 23)
	key := keyspace.HashDefault("failed-hint")
	issuer := remoteIssuer(t, ov, key)
	if _, err := issuer.Update(context.Background(), key, "v"); err != nil {
		t.Fatalf("Update: %v", err)
	}
	_, first, err := issuer.Retrieve(context.Background(), key)
	if err != nil {
		t.Fatalf("Retrieve: %v", err)
	}
	dead := answerer(first)
	path := ov.Node(dead).Path()
	net.Fail(dead)

	values, route, err := issuer.Retrieve(context.Background(), key)
	if err != nil || len(values) != 1 || values[0] != "v" {
		t.Fatalf("Retrieve with the hint dead: %v, %v", values, err)
	}
	if !route.Degraded || !route.Shortcut {
		t.Errorf("route = %+v, want Degraded and Shortcut", route)
	}
	if a := answerer(route); a == dead || !ov.Node(a).Responsible(key) {
		t.Errorf("answered by %s, want the live replica of %s", a, dead)
	}
	if got := learned(issuer, path); got == dead {
		t.Errorf("the dead peer %s is still the hint", dead)
	}
	if !issuer.Suspected(dead) {
		t.Errorf("the dead peer %s is not suspected", dead)
	}

	// With the replica dead too the route fails, and the leaf is left with
	// no hint at all rather than a dead one.
	net.Fail(answerer(route))
	if _, _, err := issuer.Retrieve(context.Background(), key); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("Retrieve with every replica dead: %v, want ErrNoRoute", err)
	}
	if got := learned(issuer, path); got != "" {
		t.Errorf("the dead peer %s is still the hint", got)
	}
}

// TestSuspectedPeerIsNeverAHint: a learned peer the issuer suspects is not
// tried first, even though it is alive.
func TestSuspectedPeerIsNeverAHint(t *testing.T) {
	_, ov := testOverlay(t, 32, 2, 24)
	key := keyspace.HashDefault("suspected-hint")
	issuer := remoteIssuer(t, ov, key)
	_, first, err := issuer.Retrieve(context.Background(), key)
	if err != nil {
		t.Fatalf("Retrieve: %v", err)
	}
	hint := answerer(first)
	issuer.markSuspect(hint)
	if got, _ := issuer.learnedHop(key.String(), nil); got != "" {
		t.Errorf("learnedHop offers %s while %s is suspected", got, hint)
	}
	_, route, err := issuer.Retrieve(context.Background(), key)
	if err != nil {
		t.Fatalf("Retrieve: %v", err)
	}
	if route.Shortcut || route.Contacted[0] == hint {
		t.Errorf("route %+v went first to the suspected %s", route, hint)
	}
}

// rogue answers every exec request as responsible, for the path it is
// given.
func rogue(path string) simnet.Handler {
	return simnet.HandlerFunc(func(simnet.PeerID, simnet.Message) (simnet.Message, error) {
		return simnet.Message{Payload: ExecResponse{Responsible: true, Path: path}}, nil
	})
}

// TestOnlyAPathThatPrefixesTheKeyIsLearned: the answering peer's Path is
// input from another peer, so a path that is empty or does not prefix the
// routed key is not learned.
func TestOnlyAPathThatPrefixesTheKeyIsLearned(t *testing.T) {
	key := keyspace.MustParseKey("0110")
	for _, tc := range []struct {
		path  string
		learn bool
	}{{"", false}, {"1", false}, {"0111", false}, {"01101", false}, {"0", true}, {"011", true}} {
		net := simnet.NewNetwork()
		issuer := NewNode("issuer", keyspace.MustParseKey("1"), net, Config{})
		net.Register(issuer.ID(), issuer)
		net.Register("rogue", rogue(tc.path))
		issuer.AddRef(0, "rogue")
		if _, _, err := issuer.Retrieve(context.Background(), key); err != nil {
			t.Fatalf("path %q: Retrieve: %v", tc.path, err)
		}
		hint, _ := issuer.learnedHop(key.String(), nil)
		if got := hint == "rogue"; got != tc.learn {
			t.Errorf("path %q: learned = %v, want %v", tc.path, got, tc.learn)
		}
		if !tc.learn && len(issuer.leaves.peers) != 0 {
			t.Errorf("path %q: leaves = %v, want none", tc.path, issuer.leaves.peers)
		}
	}
}

// TestLearnedLeavesStayWithinTheCap: beyond learnedLeafCap leaves the
// first-learned is forgotten first, and the map never grows past the cap.
func TestLearnedLeavesStayWithinTheCap(t *testing.T) {
	var c leafCache
	const depth = 12 // 4096 distinct leaves
	for i := 0; i < 3*learnedLeafCap; i++ {
		path := fmt.Sprintf("%0*b", depth, i)
		c.learn(path+"0101", path, simnet.PeerID(fmt.Sprint("p", i)))
		if len(c.peers) > learnedLeafCap || len(c.order) > learnedLeafCap {
			t.Fatalf("after %d leaves the cache holds %d (ring %d), cap %d", i+1, len(c.peers), len(c.order), learnedLeafCap)
		}
	}
	last := 3*learnedLeafCap - 1
	for i, want := range map[int]bool{0: false, last - learnedLeafCap: false, last - learnedLeafCap + 1: true, last: true} {
		if _, ok := c.peers[fmt.Sprintf("%0*b", depth, i)]; ok != want {
			t.Errorf("leaf %d held = %v, want %v", i, ok, want)
		}
	}
	if len(c.peers) != learnedLeafCap {
		t.Errorf("cache holds %d leaves, want %d", len(c.peers), learnedLeafCap)
	}
}

// TestConcurrentRoutesShareTheLearnedLeaves: one issuer routing from
// several goroutines at once — reads, writes, a peer failing midway —
// learns, uses and forgets leaves without a race, and every read answers.
func TestConcurrentRoutesShareTheLearnedLeaves(t *testing.T) {
	net, ov := testOverlay(t, 64, 2, 26)
	issuer := ov.Nodes()[0]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := keyspace.HashDefault(fmt.Sprintf("concurrent-%d", (g+i)%23))
				if g == 0 && i == 50 {
					net.Fail(ov.Nodes()[5].ID())
				}
				if _, err := issuer.Update(context.Background(), key, g); err != nil {
					t.Errorf("goroutine %d, op %d: Update: %v", g, i, err)
					return
				}
				if _, _, err := issuer.Retrieve(context.Background(), key); err != nil {
					t.Errorf("goroutine %d, op %d: Retrieve: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSeededRoutesRepeat: two serial runs of one seeded workload — writes,
// reads, a failure — produce identical routes, shortcuts included.
func TestSeededRoutesRepeat(t *testing.T) {
	run := func() []Route {
		net, ov := testOverlay(t, 64, 2, 25)
		var routes []Route
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
			if err != nil && !strings.Contains(err.Error(), "no route") {
				t.Fatalf("op %d: %v", i, err)
			}
			routes = append(routes, route)
		}
		return routes
	}
	a, b := run(), run()
	shortcuts := 0
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("op %d: routes differ:\n%+v\n%+v", i, a[i], b[i])
		}
		if a[i].Shortcut {
			shortcuts++
		}
	}
	if shortcuts == 0 {
		t.Error("no route took a learned leaf; the workload does not exercise them")
	}
}
