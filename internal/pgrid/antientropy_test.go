package pgrid

import (
	"context"
	"fmt"
	"testing"

	"gridvine/internal/keyspace"
	"gridvine/internal/simnet"
	"gridvine/internal/store"
)

// replicaGroups partitions an overlay's nodes by leaf path.
func replicaGroups(ov *Overlay) map[string][]*Node {
	groups := map[string][]*Node{}
	for _, n := range ov.Nodes() {
		p := n.Path().String()
		groups[p] = append(groups[p], n)
	}
	return groups
}

// assertConverged checks every replica group holds a byte-identical store.
func assertConverged(t *testing.T, ov *Overlay) {
	t.Helper()
	for path, group := range replicaGroups(ov) {
		want := group[0].ContentDigest()
		for _, n := range group[1:] {
			if got := n.ContentDigest(); got != want {
				t.Errorf("replica group %s diverged: %s=%x %s=%x (sizes %d vs %d)",
					path, group[0].ID(), want, n.ID(), got, group[0].StoreSize(), n.StoreSize())
			}
		}
	}
}

func TestDeleteNotResurrectedBySync(t *testing.T) {
	// Regression for the delete-resurrection bug: a replica that misses a
	// delete while crashed must reconcile the delete on resync, not push
	// the stale value back.
	net, ov := testOverlay(t, 16, 2, 61)
	issuer := ov.Nodes()[0]

	key := keyspace.HashDefault("tombstone-probe")
	if _, err := issuer.Update(context.Background(), key, "doomed"); err != nil {
		t.Fatalf("Update: %v", err)
	}

	var group []*Node
	for _, n := range ov.Nodes() {
		if n.Responsible(key) {
			group = append(group, n)
		}
	}
	if len(group) < 2 {
		t.Skip("replica group too small")
	}
	victim := group[0]
	if victim.ID() == issuer.ID() {
		victim = group[1]
	}
	if len(victim.LocalGet(key)) != 1 {
		t.Fatal("victim did not receive the replicated insert")
	}

	// Victim crashes; the delete happens without it.
	net.Fail(victim.ID())
	if _, err := issuer.Delete(context.Background(), key, "doomed"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	net.Recover(victim.ID())
	if got := victim.LocalGet(key); len(got) != 1 {
		t.Fatalf("victim should still hold the stale value, got %v", got)
	}

	// Digest-based resync must apply the tombstone, not resurrect the value.
	victim.AntiEntropy(context.Background())
	if got := victim.LocalGet(key); len(got) != 0 {
		t.Errorf("digest resync resurrected deleted value: %v", got)
	}

	// And the victim's stale copy must not leak back into the survivors.
	for _, n := range group {
		if n == victim {
			continue
		}
		if got := n.LocalGet(key); len(got) != 0 {
			t.Errorf("survivor %s re-acquired deleted value: %v", n.ID(), got)
		}
	}
}

func TestReinsertAfterDeleteSurvivesSync(t *testing.T) {
	// A fresh insert of a previously deleted value clears the tombstone:
	// the value must survive subsequent anti-entropy rounds.
	_, ov := testOverlay(t, 8, 2, 17)
	issuer := ov.Nodes()[0]
	key := keyspace.HashDefault("reinsert-probe")
	ctx := context.Background()

	if _, err := issuer.Update(ctx, key, "phoenix"); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if _, err := issuer.Delete(ctx, key, "phoenix"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := issuer.Update(ctx, key, "phoenix"); err != nil {
		t.Fatalf("re-Update: %v", err)
	}
	for _, n := range ov.Nodes() {
		n.AntiEntropy(ctx)
	}
	for _, n := range ov.Nodes() {
		if !n.Responsible(key) {
			continue
		}
		if got := n.LocalGet(key); len(got) != 1 {
			t.Errorf("node %s lost re-inserted value after anti-entropy: %v", n.ID(), got)
		}
	}
	assertConverged(t, ov)
}

func TestAntiEntropyConvergesAfterCrash(t *testing.T) {
	net, ov := testOverlay(t, 24, 3, 7)
	issuer := ov.Nodes()[0]
	ctx := context.Background()

	victim := ov.Nodes()[5]
	net.Fail(victim.ID())
	for i := 0; i < 60; i++ {
		k := keyspace.HashDefault(fmt.Sprintf("ae-%02d", i))
		if _, err := issuer.Update(ctx, k, i); err != nil {
			t.Fatalf("Update: %v", err)
		}
	}
	// A few deletes the victim also misses.
	for i := 0; i < 10; i++ {
		k := keyspace.HashDefault(fmt.Sprintf("ae-%02d", i))
		if _, err := issuer.Delete(ctx, k, i); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	net.Recover(victim.ID())

	stats := victim.AntiEntropy(ctx)
	if stats.Replicas == 0 {
		t.Fatal("no replicas answered the digest exchange")
	}
	assertConverged(t, ov)

	// Second round: stores agree, so the exchange is digest-only (one
	// message per replica, nothing shipped).
	again := victim.AntiEntropy(ctx)
	if again.Pulled != 0 || again.Pushed != 0 || again.TombsPulled != 0 || again.TombsPushed != 0 {
		t.Errorf("second anti-entropy round shipped data: %+v", again)
	}
	if again.Messages != again.Replicas {
		t.Errorf("converged exchange cost %d messages for %d replicas, want digest-only", again.Messages, again.Replicas)
	}
}

func TestReplicaFailureFeedsHotList(t *testing.T) {
	net, ov := testOverlay(t, 16, 3, 3)
	issuer := ov.Nodes()[0]
	ctx := context.Background()

	key := keyspace.HashDefault("hotlist-probe")
	var group []*Node
	for _, n := range ov.Nodes() {
		if n.Responsible(key) {
			group = append(group, n)
		}
	}
	if len(group) < 2 {
		t.Skip("no replicated owner")
	}
	dead := group[0].ID()
	if dead == issuer.ID() {
		dead = group[1].ID()
	}
	net.Fail(dead)

	if _, err := issuer.Update(ctx, key, "hot"); err != nil {
		t.Fatalf("Update: %v", err)
	}
	// The routed write landed on some live group member, whose push to the
	// dead replica failed: exactly that member carries the suspicion and
	// the repair backlog.
	var owner *Node
	for _, n := range group {
		if n.ID() != dead && n.RepairBacklog() > 0 {
			owner = n
			break
		}
	}
	if owner == nil {
		t.Fatal("failed replica push did not enqueue any key for targeted repair")
	}
	if !owner.Suspected(dead) {
		t.Error("failed replica push should mark the replica suspected")
	}

	net.Recover(dead)
	stats := owner.AntiEntropy(ctx)
	if stats.HotPushed == 0 {
		t.Errorf("anti-entropy did not run targeted repair: %+v", stats)
	}
	if owner.RepairBacklog() != 0 {
		t.Errorf("repair backlog not drained: %d", owner.RepairBacklog())
	}
	if owner.Suspected(dead) {
		t.Error("successful exchange should clear suspicion")
	}
	var deadNode *Node
	for _, n := range ov.Nodes() {
		if n.ID() == dead {
			deadNode = n
			break
		}
	}
	if got := deadNode.LocalGet(key); len(got) != 1 {
		t.Errorf("targeted repair did not deliver the value: %v", got)
	}
}

func TestSuspectedPeersOrderedLast(t *testing.T) {
	_, ov := testOverlay(t, 16, 2, 11)
	n := ov.Nodes()[0]
	key := keyspace.HashDefault("suspect-order")
	cands := n.candidateHops(key, map[simnet.PeerID]bool{})
	if len(cands) < 2 {
		t.Skip("not enough candidates")
	}
	n.markSuspect(cands[0])
	reordered := n.candidateHops(key, map[simnet.PeerID]bool{})
	if reordered[len(reordered)-1] != cands[0] {
		t.Errorf("suspected peer %s not ordered last: %v", cands[0], reordered)
	}
	n.clearSuspect(cands[0])
}

func TestTombstoneCapPrunes(t *testing.T) {
	net := simnet.NewNetwork()
	n := NewNode("solo", keyspace.Key{}, net, Config{})
	n.mu.Lock()
	for i := 0; i < tombstoneCap+40; i++ {
		n.recordTombLocked(fmt.Sprintf("k%05d", i), i)
	}
	n.mu.Unlock()
	if got := n.TombstoneCount(); got > tombstoneCap {
		t.Errorf("tombstones = %d, want ≤ cap %d", got, tombstoneCap)
	}
}

func TestDegradedRouteFlag(t *testing.T) {
	net, ov := testOverlay(t, 24, 3, 5)
	issuer := ov.Nodes()[0]
	ctx := context.Background()

	key := keyspace.HashDefault("degraded-probe")
	if _, err := issuer.Update(ctx, key, "v"); err != nil {
		t.Fatalf("Update: %v", err)
	}
	vals, route, err := issuer.Retrieve(ctx, key)
	if err != nil {
		t.Fatalf("Retrieve: %v", err)
	}
	if route.Degraded {
		t.Error("healthy retrieve reported degraded")
	}
	if len(vals) != 1 {
		t.Fatalf("retrieve = %v", vals)
	}

	// Kill the peer that answered: the issuer learned it, so the next
	// retrieve tries it first. A replica must answer and the route must
	// say the answer was degraded.
	if route.Hops() == 0 {
		t.Skip("issuer owns the key")
	}
	net.Fail(route.Contacted[route.Hops()-1])
	vals, route, err = issuer.Retrieve(ctx, key)
	if err != nil || !route.Degraded {
		t.Fatalf("retrieve around the dead peer: route %+v, err %v, want Degraded", route, err)
	}
	if len(vals) != 1 {
		t.Errorf("degraded retrieve lost the value: %v", vals)
	}
}

// TestRepairResponseFiresHookOnce pins "one repair response = one hook
// invocation": a replica that missed N inserts and M deletes pulls them
// in one locked pass and its hook sees them in a single call — N inserts
// plus the M′ ≤ M deletes that actually removed a value (a tombstone for
// a value the replica never held changes nothing) — so a durable peer
// journals the whole response as one record.
func TestRepairResponseFiresHookOnce(t *testing.T) {
	net, ov := testOverlay(t, 8, 2, 64)
	var survivor, victim *Node
	for _, group := range replicaGroups(ov) {
		if len(group) == 2 {
			survivor, victim = group[0], group[1]
			break
		}
	}
	if victim == nil {
		t.Fatal("no two-replica group")
	}
	// Nine distinct keys under the group's path: the path, then i in binary.
	keys := make([]keyspace.Key, 9)
	for i := range keys {
		k := survivor.Path()
		for b := 0; k.Len() < keyspace.DefaultDepth; b++ {
			k = k.Append(i >> b & 1)
		}
		keys[i] = k
	}
	ctx := context.Background()
	const inserts, deletes = 6, 3
	for _, k := range keys[:deletes] {
		if _, err := survivor.Update(ctx, k, "stale"); err != nil {
			t.Fatal(err)
		}
	}

	// The victim misses six inserts and three deletes, one of them of a
	// value it never held.
	net.Fail(victim.ID())
	for _, k := range keys[deletes:] {
		if _, err := survivor.Update(ctx, k, "fresh"); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys[:deletes-1] {
		if _, err := survivor.Delete(ctx, k, "stale"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := survivor.Delete(ctx, keys[deletes-1], "never-stored"); err != nil {
		t.Fatal(err)
	}
	net.Recover(victim.ID())

	var calls [][]store.Entry
	victim.SetStoreHook(func(changes []store.Entry) func() { calls = append(calls, changes); return nil })
	stats := victim.AntiEntropy(ctx)
	if stats.Pulled != inserts || stats.TombsPulled != deletes {
		t.Fatalf("pulled %d items and %d tombstones, want %d and %d", stats.Pulled, stats.TombsPulled, inserts, deletes)
	}
	if len(calls) != 1 {
		t.Fatalf("hook fired %d times for one repair response, want 1", len(calls))
	}
	got := map[store.Op]int{}
	for _, c := range calls[0] {
		got[c.Op]++
	}
	// All three deletes reach the hook, the tombstone-only one included:
	// the tombstone is what keeps "never-stored" from being resurrected by
	// a later repair, so a journal fed from this hook must see it too.
	if got[store.OpInsert] != inserts || got[store.OpDelete] != deletes || len(calls[0]) != inserts+deletes {
		t.Fatalf("hook saw %v, want %d inserts and %d deletes", got, inserts, deletes)
	}
	if survivor.ContentDigest() != victim.ContentDigest() {
		t.Fatal("replicas did not converge")
	}
}
