package pgrid

// DumpState returns the node's full local store — live (key, value)
// items plus retained deletion tombstones — for use as a durable snapshot
// source. Routing state (refs, replicas) is deliberately excluded: it is
// rediscovered on rejoin, while store content is what a crash must not
// lose.
func (n *Node) DumpState() (items []SubtreeItem, tombs []Tombstone) {
	n.VisitState(func(key string, value any, tomb bool) {
		if tomb {
			tombs = append(tombs, Tombstone{Key: key, Value: value})
		} else {
			items = append(items, SubtreeItem{Key: key, Value: value})
		}
	})
	return items, tombs
}

// VisitState is DumpState without the slices: it calls visit for every
// live item, then for every tombstone (tomb true), each group in
// unspecified order. visit runs under the node's read lock and must not
// call back into the node.
func (n *Node) VisitState(visit func(key string, value any, tomb bool)) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	n.eachPairLocked("", func(k string, v any) { visit(k, v, false) })
	for k, ts := range n.tombs {
		for _, t := range ts {
			visit(k, t.value, true)
		}
	}
}

// RestoreState loads recovered durable state into the node: snapshot
// items and tombstones first, then logged mutations replayed in append
// order. The apply is quiet — no store hooks fire and nothing
// replicates, because the state is already durable locally. Triples land
// in the node's triple database like any insert. Replay is idempotent
// (duplicate inserts collapse, deletes of absent values only refresh
// their tombstone), so a mutation a snapshot already absorbed is
// harmless. Must run before the node starts serving traffic.
func (n *Node) RestoreState(items []SubtreeItem, tombs []Tombstone, muts []StoreMutation) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, it := range items {
		n.insertLocked(it.Key, it.Value)
	}
	for _, tb := range tombs {
		n.recordTombLocked(tb.Key, tb.Value)
	}
	for _, m := range muts {
		key := m.Key.String()
		switch m.Op {
		case OpInsert:
			n.insertLocked(key, m.Value)
		case OpDelete:
			n.recordTombLocked(key, m.Value)
			n.deleteLocked(key, m.Value)
		}
	}
}
