package pgrid

import (
	"fmt"

	"gridvine/internal/keyspace"
	"gridvine/internal/store"
	"gridvine/internal/triple"
)

// DumpState returns the node's full local store as keyed pairs — every
// live (key, value) pair, a triple once per key it is filed under, plus
// the retained deletion tombstones: what a full pull from this node would
// ship. Routing state (refs, replicas) is deliberately excluded: it is
// rediscovered on rejoin, while store content is what a crash must not
// lose.
func (n *Node) DumpState() (items []SubtreeItem, tombs []Tombstone) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	n.eachPairLocked("", func(k string, v any) { items = append(items, SubtreeItem{Key: k, Value: v}) })
	for k, ts := range n.tombs {
		for _, t := range ts {
			tombs = append(tombs, Tombstone{Key: k, Value: t.value})
		}
	}
	return items, tombs
}

// VisitState walks the node's durable state in the journal's terms, the
// inserts first: every value other than a triple as an insert under its
// key, every row of the triple database once as an insert with no key (the
// keys it is filed under follow from the row and the path, so a snapshot
// holds the data, not the index), then every tombstone as a delete under
// its key; each group in unspecified order. visit runs under the node's
// read lock and must not call back into the node.
func (n *Node) VisitState(visit func(store.Entry)) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	for k, vs := range n.store {
		for _, v := range vs {
			visit(store.Entry{Op: store.OpInsert, Key: k, Value: v})
		}
	}
	n.db.EachFiled(func(pos triple.Position, _ string, t triple.Triple) {
		if pos == triple.Subject {
			visit(store.Entry{Op: store.OpInsert, Value: t})
		}
	})
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
// A snapshot item holding a triple with no key (VisitState's form) is a
// row of a snapshot of this path and goes straight into the triple
// database; a keyed triple, as journals of earlier builds hold it, lands
// like any insert, and is skipped under a key the path does not cover.
// Replay is idempotent (duplicate inserts collapse, deletes of absent
// values only refresh their tombstone), so an entry a snapshot already
// absorbed is harmless. An entry whose key is not a binary key is
// refused, and then nothing is loaded. Must run before the node starts
// serving traffic.
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
		if t, ok := e.Value.(triple.Triple); ok && e.Key == "" {
			n.db.Insert(t)
			continue
		}
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
