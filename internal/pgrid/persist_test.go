package pgrid

import (
	"fmt"
	"sort"
	"testing"

	"gridvine/internal/keyspace"
	"gridvine/internal/schema"
	"gridvine/internal/simnet"
	"gridvine/internal/store"
	"gridvine/internal/triple"
)

// snapshotPath covers a key whose string starts with a byte in 0x60–0x7f:
// lower-case letters (the hash lower-cases), not digits.
var snapshotPath = keyspace.MustParseKey("011")

// stateNode returns a node on snapshotPath holding every kind of state a
// snapshot carries, and the values and tombstones it holds besides its
// triples, each as "key value":
//   - triples filed under three, two and one of their keys;
//   - a live triple with a tombstone of it under another of its keys;
//   - a deleted triple, whose tombstone is all that is left;
//   - a schema that a newer version replaced, and a string.
func stateNode(t *testing.T) (n *Node, values, tombs []string) {
	t.Helper()
	n = NewNode("n", snapshotPath, simnet.NewNetwork(), Config{})
	key := func(s string) string { return keyspace.HashDefault(s).String() }
	apply := func(op Op, k string, v any) {
		n.applyBatchLocal([]BatchEntry{{Key: k, Op: op, Value: v}}, true)
	}
	insert := func(tr triple.Triple) {
		for _, s := range []string{tr.Subject, tr.Predicate, tr.Object} {
			apply(OpInsert, key(s), tr)
		}
	}
	all := triple.Triple{Subject: "urn:a", Predicate: "P#p", Object: "organism"}
	insert(all)
	insert(triple.Triple{Subject: "urn:b", Predicate: "P#p", Object: "42"})
	insert(triple.Triple{Subject: "7up", Predicate: "9#x", Object: "apple"})

	apply(OpDelete, key(all.Object), all)
	apply(OpInsert, key(all.Subject), all)
	tombs = append(tombs, fmt.Sprint(key(all.Object), " ", all))

	gone := triple.Triple{Subject: "urn:gone", Predicate: "P#p", Object: "x"}
	insert(gone)
	apply(OpDelete, key(gone.Subject), gone)
	tombs = append(tombs, fmt.Sprint(key(gone.Subject), " ", gone))

	old, newer := schema.NewSchema("EMBL", "bio", "Organism"), schema.NewSchema("EMBL", "bio", "Organism", "Length")
	apply(OpInsert, key("embl"), old)
	apply(OpInsert, key("embl"), newer)
	apply(OpInsert, key("note"), "note")
	values = []string{fmt.Sprint(key("embl"), " ", newer), fmt.Sprint(key("note"), " note")}
	tombs = append(tombs, fmt.Sprint(key("embl"), " ", old))
	sort.Strings(values)
	sort.Strings(tombs)
	if n.DB().Len() != 3 {
		t.Fatalf("set-up stores %d triples, want 3", n.DB().Len())
	}
	return n, values, tombs
}

// snapshot splits the node's VisitState into the items and tombstones a
// journal snapshot holds.
func snapshot(n *Node) (items, tombs []store.Entry) {
	n.VisitState(func(e store.Entry) {
		if e.Op == store.OpDelete {
			tombs = append(tombs, e)
		} else {
			items = append(items, e)
		}
	})
	return items, tombs
}

// heldTombs lists the node's tombstones as "key value", sorted.
func heldTombs(n *Node) []string {
	_, tombs := n.DumpState()
	out := make([]string, 0, len(tombs))
	for _, tb := range tombs {
		out = append(out, fmt.Sprint(tb.Key, " ", tb.Value))
	}
	sort.Strings(out)
	return out
}

// TestSnapshotVisitsEachTripleOnce: VisitState visits every stored triple
// exactly once, with no key, and every other value and every tombstone
// under its key.
func TestSnapshotVisitsEachTripleOnce(t *testing.T) {
	n, wantValues, wantTombs := stateNode(t)
	items, tombs := snapshot(n)
	seen := map[triple.Triple]int{}
	var values, gotTombs []string
	for _, e := range items {
		if tr, ok := e.Value.(triple.Triple); ok {
			if e.Key != "" {
				t.Errorf("triple %v visited under key %s", tr, e.Key)
			}
			seen[tr]++
			continue
		}
		values = append(values, fmt.Sprint(e.Key, " ", e.Value))
	}
	for _, e := range tombs {
		gotTombs = append(gotTombs, fmt.Sprint(e.Key, " ", e.Value))
	}
	for _, tr := range n.DB().All() {
		if seen[tr] != 1 {
			t.Errorf("triple %v visited %d times, want once", tr, seen[tr])
		}
	}
	if len(seen) != n.DB().Len() {
		t.Errorf("visited %d distinct triples, the database holds %d", len(seen), n.DB().Len())
	}
	sort.Strings(values)
	sort.Strings(gotTombs)
	if fmt.Sprint(values) != fmt.Sprint(wantValues) {
		t.Errorf("visited values %q, want %q", values, wantValues)
	}
	if fmt.Sprint(gotTombs) != fmt.Sprint(wantTombs) {
		t.Errorf("visited tombstones %q, want %q", gotTombs, wantTombs)
	}
}

// TestSnapshotRoundTripKeepsContent: RestoreState of a VisitState on a
// fresh node of the same path reproduces the content digest and the
// tombstones, the live triple's tombstone under another key included.
func TestSnapshotRoundTripKeepsContent(t *testing.T) {
	n, _, wantTombs := stateNode(t)
	items, tombs := snapshot(n)
	restored := NewNode("restored", n.Path(), simnet.NewNetwork(), Config{})
	if err := restored.RestoreState(items, tombs, nil); err != nil {
		t.Fatal(err)
	}
	if restored.ContentDigest() != n.ContentDigest() || restored.DB().Len() != n.DB().Len() {
		t.Errorf("restored digest %x over %d triples, want %x over %d",
			restored.ContentDigest(), restored.DB().Len(), n.ContentDigest(), n.DB().Len())
	}
	if got := heldTombs(restored); fmt.Sprint(got) != fmt.Sprint(wantTombs) {
		t.Errorf("restored tombstones %q, want %q", got, wantTombs)
	}
}

// TestSnapshotRoundTripTakesKeyedPairs: a snapshot that lists a triple
// under each key it is filed under, as earlier builds wrote it, still
// restores, and a triple under a key outside the path is still skipped.
func TestSnapshotRoundTripTakesKeyedPairs(t *testing.T) {
	n, _, _ := stateNode(t)
	pairs, tombPairs := n.DumpState()
	var items, tombs []store.Entry
	for _, it := range pairs {
		items = append(items, store.Entry{Op: store.OpInsert, Key: it.Key, Value: it.Value})
	}
	for _, tb := range tombPairs {
		tombs = append(tombs, store.Entry{Op: store.OpDelete, Key: tb.Key, Value: tb.Value})
	}
	outside := triple.Triple{Subject: "42", Predicate: "9#x", Object: "0"}
	items = append(items, store.Entry{Op: store.OpInsert, Key: keyspace.HashDefault(outside.Subject).String(), Value: outside})

	restored := NewNode("restored", n.Path(), simnet.NewNetwork(), Config{})
	if err := restored.RestoreState(items, tombs, nil); err != nil {
		t.Fatal(err)
	}
	if restored.DB().Has(outside) {
		t.Errorf("restored a triple under a key outside path %s", n.Path())
	}
	if restored.ContentDigest() != n.ContentDigest() || restored.DB().Len() != n.DB().Len() {
		t.Errorf("restored digest %x over %d triples, want %x over %d",
			restored.ContentDigest(), restored.DB().Len(), n.ContentDigest(), n.DB().Len())
	}
	if got, want := heldTombs(restored), heldTombs(n); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("restored tombstones %q, want %q", got, want)
	}
}
