package pgrid

import (
	"context"
	"encoding/gob"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"gridvine/internal/keyspace"
	"gridvine/internal/simnet"
	"gridvine/internal/store"
)

// slotValue is a Replacer test type: one live value per (Owner, Slot) pair.
type slotValue struct {
	Owner string
	Slot  string
	Seq   int
}

func (v slotValue) Replaces(old any) bool {
	o, ok := old.(slotValue)
	return ok && o.Owner == v.Owner && o.Slot == v.Slot
}

func init() {
	gob.Register(slotValue{})
}

func buildReplaceOverlay(t testing.TB, peers int, seed int64) *Overlay {
	t.Helper()
	ov, err := Build(simnet.NewNetwork(), BuildOptions{
		Peers:         peers,
		ReplicaFactor: 2,
		Rng:           rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return ov
}

// TestReplaceSupersedes pins the core semantics: an insert removes every
// value the new one Replaces, keeps unrelated values, and collapses exact
// duplicates.
func TestReplaceSupersedes(t *testing.T) {
	ov := buildReplaceOverlay(t, 16, 3)
	n := ov.Nodes()[0]
	key := keyspace.Hash("replace-slot", keyspace.DefaultDepth)

	if _, err := n.Update(context.Background(), key, slotValue{Owner: "p1", Slot: "s", Seq: 1}); err != nil {
		t.Fatalf("first replace: %v", err)
	}
	if _, err := n.Update(context.Background(), key, slotValue{Owner: "p2", Slot: "s", Seq: 1}); err != nil {
		t.Fatalf("other owner: %v", err)
	}
	if _, err := n.Update(context.Background(), key, slotValue{Owner: "p1", Slot: "s", Seq: 2}); err != nil {
		t.Fatalf("supersede: %v", err)
	}
	// Inserting an identical value is a no-op, not a duplicate.
	if _, err := n.Update(context.Background(), key, slotValue{Owner: "p1", Slot: "s", Seq: 2}); err != nil {
		t.Fatalf("idempotent replace: %v", err)
	}

	values, _, err := ov.Nodes()[5].Retrieve(context.Background(), key)
	if err != nil {
		t.Fatalf("Retrieve: %v", err)
	}
	got := map[string]int{}
	for _, v := range values {
		sv, ok := v.(slotValue)
		if !ok {
			t.Fatalf("unexpected value %T", v)
		}
		got[sv.Owner] = sv.Seq
	}
	if len(values) != 2 || got["p1"] != 2 || got["p2"] != 1 {
		t.Errorf("stored = %v", values)
	}
}

// TestReplaceReplicates checks replicas converge to the superseded state.
func TestReplaceReplicates(t *testing.T) {
	ov := buildReplaceOverlay(t, 16, 4)
	key := keyspace.Hash("replicated-slot", keyspace.DefaultDepth)
	issuer := ov.Nodes()[1]
	for seq := 1; seq <= 3; seq++ {
		if _, err := issuer.Update(context.Background(), key, slotValue{Owner: "p", Slot: "s", Seq: seq}); err != nil {
			t.Fatalf("replace %d: %v", seq, err)
		}
	}
	holders := 0
	for _, n := range ov.Nodes() {
		if !n.Responsible(key) {
			continue
		}
		vs := n.LocalGet(key)
		holders++
		if len(vs) != 1 || vs[0].(slotValue).Seq != 3 {
			t.Errorf("node %s stores %v, want single Seq=3", n.ID(), vs)
		}
	}
	if holders == 0 {
		t.Fatal("no responsible node found")
	}
}

// TestReplaceFiresStoreHook verifies the hook sees the collapsed
// delete+insert sequence — what keeps the mediation layer's mirrored state
// in sync.
func TestReplaceFiresStoreHook(t *testing.T) {
	ov := buildReplaceOverlay(t, 8, 5)
	key := keyspace.Hash("hooked-slot", keyspace.DefaultDepth)
	var mu sync.Mutex
	events := map[store.Op]int{}
	for _, n := range ov.Nodes() {
		n.SetStoreHook(func(changes []store.Entry) func() {
			mu.Lock()
			for _, c := range changes {
				events[c.Op]++
			}
			mu.Unlock()
			return nil
		})
	}
	issuer := ov.Nodes()[0]
	if _, err := issuer.Update(context.Background(), key, slotValue{Owner: "p", Slot: "s", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := issuer.Update(context.Background(), key, slotValue{Owner: "p", Slot: "s", Seq: 2}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if events[store.OpInsert] < 2 || events[store.OpDelete] < 1 {
		t.Errorf("hook events = %v, want ≥2 inserts and ≥1 delete", events)
	}
}

// TestReplaceNonReplacerInserts: values without a Replaces method
// supersede nothing.
func TestReplaceNonReplacerInserts(t *testing.T) {
	ov := buildReplaceOverlay(t, 8, 6)
	key := keyspace.Hash("plain-slot", keyspace.DefaultDepth)
	n := ov.Nodes()[2]
	for i := 0; i < 2; i++ {
		if _, err := n.Update(context.Background(), key, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	values, _, err := n.Retrieve(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 2 {
		t.Errorf("stored = %v, want both plain values", values)
	}
}

// TestReplaceConcurrentPublishers exercises the point of the atomic
// operation under -race: concurrent publishers of distinct slots never lose
// each other's value, and each slot converges to exactly one value.
func TestReplaceConcurrentPublishers(t *testing.T) {
	ov := buildReplaceOverlay(t, 16, 7)
	key := keyspace.Hash("contended-slot", keyspace.DefaultDepth)
	const owners = 8
	var wg sync.WaitGroup
	for w := 0; w < owners; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			issuer := ov.Nodes()[w%len(ov.Nodes())]
			for seq := 1; seq <= 5; seq++ {
				if _, err := issuer.Update(context.Background(), key, slotValue{Owner: fmt.Sprintf("p%d", w), Slot: "s", Seq: seq}); err != nil {
					t.Errorf("owner %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	values, _, err := ov.Nodes()[0].Retrieve(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, v := range values {
		sv := v.(slotValue)
		seen[sv.Owner]++
		if sv.Seq != 5 {
			t.Errorf("owner %s converged to Seq=%d, want 5", sv.Owner, sv.Seq)
		}
	}
	if len(seen) != owners {
		t.Errorf("owners stored = %d, want %d (%v)", len(seen), owners, seen)
	}
	for o, c := range seen {
		if c != 1 {
			t.Errorf("owner %s has %d values, want 1", o, c)
		}
	}
}
