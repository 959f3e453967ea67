package pgrid

import (
	"fmt"

	"gridvine/internal/keyspace"
	"gridvine/internal/store"
)

// DumpState returns the node's full local store — live (key, value)
// items plus retained deletion tombstones — for use as a durable snapshot
// source. Routing state (refs, replicas) is deliberately excluded: it is
// rediscovered on rejoin, while store content is what a crash must not
// lose.
func (n *Node) DumpState() (items []SubtreeItem, tombs []Tombstone) {
	n.VisitState(func(e store.Entry) {
		if e.Op == store.OpDelete {
			tombs = append(tombs, Tombstone{Key: e.Key, Value: e.Value})
		} else {
			items = append(items, SubtreeItem{Key: e.Key, Value: e.Value})
		}
	})
	return items, tombs
}

// VisitState is DumpState without the slices, in the journal's terms: it
// calls visit with every live item as an insert, then with every tombstone
// as a delete, each group in unspecified order. visit runs under the
// node's read lock and must not call back into the node.
func (n *Node) VisitState(visit func(store.Entry)) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	n.eachPairLocked("", func(k string, v any) { visit(store.Entry{Op: store.OpInsert, Key: k, Value: v}) })
	for k, ts := range n.tombs {
		for _, t := range ts {
			visit(store.Entry{Op: store.OpDelete, Key: k, Value: t.value})
		}
	}
}

// RestoreState loads recovered durable state into the node: the
// snapshot's live items and tombstones first, then the WAL's entries
// replayed in append order. The apply is quiet — no store hooks fire and
// nothing replicates, because the state is already durable locally.
// Triples land in the node's triple database like any insert. Replay is
// idempotent (duplicate inserts collapse, deletes of absent values only
// refresh their tombstone), so an entry a snapshot already absorbed is
// harmless. An entry whose key is not a binary key is refused, and then
// nothing is loaded. Must run before the node starts serving traffic.
func (n *Node) RestoreState(items, tombs, wal []store.Entry) error {
	for _, es := range [][]store.Entry{items, tombs, wal} {
		for _, e := range es {
			if _, err := keyspace.ParseKey(e.Key); err != nil {
				return fmt.Errorf("pgrid: recovered entry has bad key %q: %w", e.Key, err)
			}
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, e := range items {
		n.insertLocked(e.Key, e.Value)
	}
	for _, e := range tombs {
		n.recordTombLocked(e.Key, e.Value)
	}
	for _, e := range wal {
		switch e.Op {
		case store.OpInsert:
			n.insertLocked(e.Key, e.Value)
		case store.OpDelete:
			n.recordTombLocked(e.Key, e.Value)
			n.deleteLocked(e.Key, e.Value)
		}
	}
	return nil
}
