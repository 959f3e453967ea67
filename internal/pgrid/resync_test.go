package pgrid

import (
	"context"
	"fmt"
	"testing"

	"gridvine/internal/keyspace"
	"gridvine/internal/store"
)

func TestSyncFromReplicasAfterRecovery(t *testing.T) {
	net, ov := testOverlay(t, 16, 2, 61)
	issuer := ov.Nodes()[0]

	// Choose a victim replica that is not the issuer.
	key := keyspace.HashDefault("resync-probe")
	var victim *Node
	for _, n := range ov.Nodes() {
		if n.Responsible(key) && n.ID() != issuer.ID() {
			victim = n
			break
		}
	}
	if victim == nil {
		t.Skip("no suitable victim")
	}

	// Crash the victim, then write keys that land on its leaf.
	net.Fail(victim.ID())
	var missed []keyspace.Key
	for i := 0; i < 40; i++ {
		k := keyspace.HashDefault(fmt.Sprintf("resync-%02d", i))
		if _, err := issuer.Update(context.Background(), k, i); err != nil {
			t.Fatalf("Update: %v", err)
		}
		if victim.Responsible(k) {
			missed = append(missed, k)
		}
	}
	if len(missed) == 0 {
		t.Skip("no writes landed on the victim's leaf")
	}
	for _, k := range missed {
		if got := victim.LocalGet(k); len(got) != 0 {
			t.Fatalf("victim saw write while down: %v", got)
		}
	}

	// Recover and resync: every missed item must be merged.
	net.Recover(victim.ID())
	stats := victim.AntiEntropy(context.Background())
	if stats.Replicas == 0 {
		t.Fatal("no replicas answered the sync")
	}
	if stats.Pulled < len(missed) {
		t.Errorf("pulled %d < missed %d", stats.Pulled, len(missed))
	}
	for _, k := range missed {
		if got := victim.LocalGet(k); len(got) != 1 {
			t.Errorf("key %s not recovered: %v", k, got)
		}
	}

	// A second sync is a no-op.
	if again := victim.AntiEntropy(context.Background()); again.Pulled+again.TombsPulled != 0 {
		t.Errorf("second sync merged %d items", again.Pulled+again.TombsPulled)
	}
}

func TestSyncFromReplicasInvokesStoreHook(t *testing.T) {
	net, ov := testOverlay(t, 8, 2, 62)
	issuer := ov.Nodes()[0]
	key := keyspace.HashDefault("hooked-sync")
	var victim *Node
	for _, n := range ov.Nodes() {
		if n.Responsible(key) && n.ID() != issuer.ID() {
			victim = n
			break
		}
	}
	if victim == nil {
		t.Skip("no suitable victim")
	}
	hookCalls := 0
	victim.SetStoreHook(func(changes []store.Entry) func() {
		for _, c := range changes {
			if c.Op == store.OpInsert {
				hookCalls++
			}
		}
		return nil
	})
	net.Fail(victim.ID())
	if _, err := issuer.Update(context.Background(), key, "v"); err != nil {
		t.Fatalf("Update: %v", err)
	}
	net.Recover(victim.ID())
	merged := victim.AntiEntropy(context.Background()).Pulled
	if merged == 0 {
		t.Skip("nothing to merge (write did not land on victim's leaf)")
	}
	if hookCalls != merged {
		t.Errorf("hook calls = %d, merged = %d", hookCalls, merged)
	}
}

func TestHandleSyncFiltersByPath(t *testing.T) {
	_, ov := testOverlay(t, 8, 2, 63)
	n := ov.Nodes()[0]
	// Store two items: one under the node's own path, one foreign (as can
	// happen transiently during bootstrap).
	own := keyspace.HashDefault("own-item")
	if !n.Path().IsPrefixOf(own) {
		// Force a matching key by using the node's path padded with zeros.
		own = n.Path()
		for own.Len() < keyspace.DefaultDepth {
			own = own.Append(0)
		}
	}
	n.mu.Lock()
	n.insertLocked(own.String(), "own")
	n.mu.Unlock()
	foreign := n.Path().FlipBit(n.Path().Len() - 1)
	for foreign.Len() < keyspace.DefaultDepth {
		foreign = foreign.Append(0)
	}
	n.mu.Lock()
	n.insertLocked(foreign.String(), "foreign")
	n.mu.Unlock()

	// Neither half of the exchange looks outside the requested path: the
	// digest folds only what lies under it, the repair ships only that.
	digest := n.handleDigest(DigestRequest{Path: n.Path().String(), BucketBits: 4})
	for bucket := range digest.Items {
		if !hasPrefix(bucket, n.Path().String()) {
			t.Errorf("digest bucket %s lies outside the requested path %s", bucket, n.Path())
		}
	}
	resp := n.handleRepair(RepairRequest{Prefixes: []string{n.Path().String()}})
	found := false
	for _, it := range resp.Missing {
		if it.Value == "foreign" {
			t.Error("repair leaked item outside the requested path")
		}
		if it.Value == "own" {
			found = true
		}
	}
	if !found {
		t.Error("repair missed matching item")
	}
}
