package pgrid

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"gridvine/internal/keyspace"
	"gridvine/internal/simnet"
)

func TestUpdateRetrieveRoundtrip(t *testing.T) {
	_, ov := testOverlay(t, 16, 2, 1)
	issuer := ov.Nodes()[0]
	key := keyspace.HashDefault("EMBL#Organism")
	if _, err := issuer.Update(context.Background(), key, "triple-1"); err != nil {
		t.Fatalf("Update: %v", err)
	}
	values, route, err := issuer.Retrieve(context.Background(), key)
	if err != nil {
		t.Fatalf("Retrieve: %v", err)
	}
	if len(values) != 1 || values[0] != "triple-1" {
		t.Errorf("values = %v", values)
	}
	if route.Hops() > ov.MaxPathDepth()+1 {
		t.Errorf("hops = %d exceeds depth+1", route.Hops())
	}
}

func TestRetrieveFromEveryNode(t *testing.T) {
	_, ov := testOverlay(t, 32, 2, 2)
	key := keyspace.HashDefault("shared-item")
	if _, err := ov.Nodes()[5].Update(context.Background(), key, "v"); err != nil {
		t.Fatalf("Update: %v", err)
	}
	for _, n := range ov.Nodes() {
		values, _, err := n.Retrieve(context.Background(), key)
		if err != nil {
			t.Fatalf("Retrieve from %s: %v", n.ID(), err)
		}
		if len(values) != 1 {
			t.Fatalf("node %s saw %d values", n.ID(), len(values))
		}
	}
}

func TestUpdateIdempotent(t *testing.T) {
	_, ov := testOverlay(t, 8, 2, 3)
	issuer := ov.Nodes()[0]
	key := keyspace.HashDefault("dup")
	for i := 0; i < 3; i++ {
		if _, err := issuer.Update(context.Background(), key, "same-value"); err != nil {
			t.Fatalf("Update: %v", err)
		}
	}
	values, _, _ := issuer.Retrieve(context.Background(), key)
	if len(values) != 1 {
		t.Errorf("duplicate inserts stored %d copies", len(values))
	}
}

func TestDelete(t *testing.T) {
	_, ov := testOverlay(t, 8, 2, 4)
	issuer := ov.Nodes()[0]
	key := keyspace.HashDefault("temp")
	issuer.Update(context.Background(), key, "a")
	issuer.Update(context.Background(), key, "b")
	if _, err := issuer.Delete(context.Background(), key, "a"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	values, _, _ := issuer.Retrieve(context.Background(), key)
	if len(values) != 1 || values[0] != "b" {
		t.Errorf("after delete values = %v", values)
	}
}

func TestMultipleValuesPerKey(t *testing.T) {
	_, ov := testOverlay(t, 8, 2, 5)
	issuer := ov.Nodes()[0]
	key := keyspace.HashDefault("multi")
	for i := 0; i < 5; i++ {
		issuer.Update(context.Background(), key, fmt.Sprintf("v%d", i))
	}
	values, _, _ := issuer.Retrieve(context.Background(), key)
	if len(values) != 5 {
		t.Errorf("values = %d, want 5", len(values))
	}
}

func TestReplication(t *testing.T) {
	_, ov := testOverlay(t, 16, 2, 6)
	issuer := ov.Nodes()[0]
	key := keyspace.HashDefault("replicated-item")
	if _, err := issuer.Update(context.Background(), key, "v"); err != nil {
		t.Fatalf("Update: %v", err)
	}
	// Find the responsible nodes: all replicas must hold the value.
	holders := 0
	for _, n := range ov.Nodes() {
		if n.Responsible(key) {
			if got := n.LocalGet(key); len(got) == 1 {
				holders++
			} else {
				t.Errorf("responsible node %s holds %d values", n.ID(), len(got))
			}
		}
	}
	if holders != 2 {
		t.Errorf("holders = %d, want 2 (replica factor)", holders)
	}
}

func TestRetrieveSurvivesPrimaryFailure(t *testing.T) {
	net, ov := testOverlay(t, 32, 2, 7)
	issuer := ov.Nodes()[0]
	key := keyspace.HashDefault("ha-item")
	if _, err := issuer.Update(context.Background(), key, "v"); err != nil {
		t.Fatalf("Update: %v", err)
	}
	// Kill one of the responsible replicas (not the issuer).
	var victim *Node
	for _, n := range ov.Nodes() {
		if n.Responsible(key) && n.ID() != issuer.ID() {
			victim = n
			break
		}
	}
	if victim == nil {
		t.Skip("issuer is the only holder")
	}
	net.Fail(victim.ID())
	values, route, err := issuer.Retrieve(context.Background(), key)
	if err != nil {
		t.Fatalf("Retrieve after failure: %v (route %+v)", err, route)
	}
	if len(values) != 1 {
		t.Errorf("values = %v", values)
	}
}

func TestRouteFailsWhenAllReplicasDead(t *testing.T) {
	net, ov := testOverlay(t, 16, 2, 8)
	issuer := ov.Nodes()[0]
	key := keyspace.HashDefault("doomed")
	issuer.Update(context.Background(), key, "v")
	if issuer.Responsible(key) {
		t.Skip("issuer holds the key locally; cannot simulate total loss")
	}
	for _, n := range ov.Nodes() {
		if n.Responsible(key) {
			net.Fail(n.ID())
		}
	}
	_, _, err := issuer.Retrieve(context.Background(), key)
	if !errors.Is(err, ErrNoRoute) {
		t.Errorf("err = %v, want ErrNoRoute", err)
	}
}

func TestQueryHandlerInvoked(t *testing.T) {
	_, ov := testOverlay(t, 16, 2, 9)
	key := keyspace.HashDefault("app-query")
	for _, n := range ov.Nodes() {
		n := n
		n.SetQueryHandler(func(k keyspace.Key, payload any) (any, error) {
			return fmt.Sprintf("%s answered %v", n.ID(), payload), nil
		})
	}
	issuer := ov.Nodes()[3]
	result, route, err := issuer.Query(context.Background(), key, "q1")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	s, ok := result.(string)
	if !ok || s == "" {
		t.Fatalf("result = %v", result)
	}
	// The answering peer must be responsible for the key.
	var answerer simnet.PeerID
	if route.Hops() == 0 {
		answerer = issuer.ID()
	} else {
		answerer = route.Contacted[route.Hops()-1]
	}
	if !ov.Node(answerer).Responsible(key) {
		t.Errorf("answerer %s not responsible for key", answerer)
	}
}

func TestQueryWithoutHandlerFails(t *testing.T) {
	_, ov := testOverlay(t, 4, 2, 10)
	key := keyspace.HashDefault("no-handler")
	_, _, err := ov.Nodes()[0].Query(context.Background(), key, "q")
	if err == nil {
		t.Error("Query without handler should fail")
	}
}

func TestRoutingCostLogarithmic(t *testing.T) {
	// Hop counts must stay ≤ trie depth (plus final hop) at every size.
	for _, peers := range []int{8, 32, 128} {
		_, ov := testOverlay(t, peers, 2, int64(peers))
		depth := ov.MaxPathDepth()
		issuer := ov.Nodes()[0]
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 30; i++ {
			key := keyspace.HashDefault(fmt.Sprintf("key-%d-%d", peers, rng.Int()))
			_, route, err := issuer.Retrieve(context.Background(), key)
			if err != nil {
				t.Fatalf("Retrieve: %v", err)
			}
			if route.Hops() > depth+1 {
				t.Errorf("peers=%d hops=%d depth=%d", peers, route.Hops(), depth)
			}
		}
	}
}

// Property: routing from any node for any key terminates at a responsible
// peer with bounded hops.
func TestRoutingConvergenceProperty(t *testing.T) {
	_, ov := testOverlay(t, 64, 2, 13)
	depth := ov.MaxPathDepth()
	f := func(seed int64, nodeIdx uint8) bool {
		issuer := ov.Nodes()[int(nodeIdx)%len(ov.Nodes())]
		key := keyspace.HashDefault(fmt.Sprintf("k%d", seed))
		_, route, err := issuer.Retrieve(context.Background(), key)
		return err == nil && route.Hops() <= depth+1
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(14))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPingMessage: the empty message is the liveness probe, answered with
// the empty message.
func TestPingMessage(t *testing.T) {
	net, ov := testOverlay(t, 4, 2, 15)
	resp, err := net.Send(context.Background(), ov.Nodes()[0].ID(), ov.Nodes()[1].ID(), simnet.Message{})
	if err != nil {
		t.Fatalf("ping: %v", err)
	}
	if resp.Payload != nil {
		t.Errorf("resp.Payload = %+v", resp.Payload)
	}
}

func TestUnknownMessageType(t *testing.T) {
	net, ov := testOverlay(t, 4, 2, 16)
	_, err := net.Send(context.Background(), ov.Nodes()[0].ID(), ov.Nodes()[1].ID(), simnet.Message{Payload: "bogus"})
	if err == nil {
		t.Error("unknown payload should error")
	}
}

// TestBadPayloads: an answer's payload is not a request, and a node sent
// one refuses it.
func TestBadPayloads(t *testing.T) {
	net, ov := testOverlay(t, 4, 2, 17)
	to := ov.Nodes()[1].ID()
	from := ov.Nodes()[0].ID()
	for _, payload := range []any{42, ExecResponse{}, BatchResult{}, SubtreeResponse{}, DigestResponse{}, RepairResponse{}} {
		if _, err := net.Send(context.Background(), from, to, simnet.Message{Payload: payload}); err == nil {
			t.Errorf("a %T payload should error", payload)
		}
	}
}

func TestInvalidKeyRejected(t *testing.T) {
	_, ov := testOverlay(t, 4, 2, 18)
	n := ov.Nodes()[0]
	if _, err := n.handleExec(ExecRequest{Key: "xyz", Op: OpGet}); err == nil {
		t.Error("invalid key should be rejected")
	}
}

func TestOpString(t *testing.T) {
	cases := map[Op]string{OpGet: "get", OpInsert: "insert", OpDelete: "delete", OpQuery: "query", Op(99): "unknown"}
	for op, want := range cases {
		if op.String() != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, op.String(), want)
		}
	}
}

func TestNodeRefManagement(t *testing.T) {
	net := simnet.NewNetwork()
	n := NewNode("n1", keyspace.MustParseKey("01"), net, Config{})
	n.AddRef(0, "a")
	n.AddRef(0, "b")
	n.AddRef(0, "c")
	n.AddRef(0, "d")  // over capacity (refsPerLevel = 3), dropped
	n.AddRef(0, "a")  // duplicate, dropped
	n.AddRef(0, "n1") // self, dropped
	if got := n.Refs(0); len(got) != refsPerLevel {
		t.Errorf("refs = %v", got)
	}
	n.AddReplica("r1")
	n.AddReplica("r1")
	n.AddReplica("n1")
	if got := n.Replicas(); len(got) != 1 {
		t.Errorf("replicas = %v", got)
	}
}
