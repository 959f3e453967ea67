package pgrid

import (
	"context"
	"testing"

	"gridvine/internal/keyspace"
	"gridvine/internal/simnet"
)

func TestCandidateHopsFallbackLevels(t *testing.T) {
	// When the exact-level refs are excluded, shallower-level refs must
	// still be offered so routing can detour.
	_, ov := testOverlay(t, 32, 2, 52)
	key := keyspace.HashDefault("fallback-key")
	var issuer *Node
	for _, n := range ov.Nodes() {
		if !n.Responsible(key) && n.Path().Len() >= 2 {
			issuer = n
			break
		}
	}
	if issuer == nil {
		t.Skip("no suitable issuer")
	}
	exclude := map[simnet.PeerID]bool{}
	level := issuer.Path().CommonPrefixLen(key)
	for _, r := range issuer.Refs(level) {
		exclude[r] = true
	}
	rest := issuer.candidateHops(key, exclude)
	if len(rest) == 0 && anyRefsBelow(issuer, level) {
		t.Error("no fallback candidates offered despite shallower refs")
	}
}

func anyRefsBelow(n *Node, level int) bool {
	for l := 0; l < level; l++ {
		if len(n.Refs(l)) > 0 {
			return true
		}
	}
	return false
}

func TestUpdateWhileReplicaDown(t *testing.T) {
	// An update while one replica is down must still succeed (best-effort
	// replication) and the surviving copy must serve reads.
	net, ov := testOverlay(t, 16, 2, 53)
	key := keyspace.HashDefault("degraded-write")
	var holders []*Node
	for _, n := range ov.Nodes() {
		if n.Responsible(key) {
			holders = append(holders, n)
		}
	}
	if len(holders) < 2 {
		t.Skip("need 2 replicas")
	}
	issuer := ov.Nodes()[0]
	if issuer == holders[0] || issuer == holders[1] {
		issuer = holders[0]
	}
	net.Fail(holders[1].ID())
	if _, err := issuer.Update(context.Background(), key, "v"); err != nil {
		t.Fatalf("Update with replica down: %v", err)
	}
	values, _, err := issuer.Retrieve(context.Background(), key)
	if err != nil || len(values) != 1 {
		t.Fatalf("Retrieve after degraded write: %v %v", values, err)
	}
	// The downed replica never saw the write.
	if got := holders[1].LocalGet(key); len(got) != 0 {
		t.Errorf("failed replica has data: %v", got)
	}
}
