package mediation

import (
	"fmt"

	"gridvine/internal/keyspace"
	"gridvine/internal/pgrid"
	"gridvine/internal/store"
)

// Peer-level durability: the node's store — its triple database plus the
// other values (schemas, mappings, stats digests) and tombstones — is the
// authoritative local state, and what a crash must not lose. Every
// mutation the node observes through its store hook is appended to an
// attached store.Log at exactly the hook granularity (one hook invocation
// — a batch, or one anti-entropy repair response — = one WAL record), and
// snapshots walk the node's (key, value) pairs + tombstones via
// Node.VisitState. This is the only durability layer: there is no
// journaled triple store beneath it.
//
// The hook runs after the node has applied the mutation, so the log is
// write-behind by one handler invocation: a crash between apply and
// append can lose that one batch locally. That gap is exactly what §6
// digest anti-entropy closes on rejoin — the replicas that acked the
// same batch re-ship it — which is why the restart experiment measures
// repair bytes after recovery rather than assuming zero. A delete of a
// value that was never present locally changes no stored value but does
// leave a tombstone; the hook reports it like any other delete, so the
// tombstone is as durable as the record that carries it. The node calls
// the hook in apply order and the hook stages its record before
// returning, so records replay in the order their passes applied.

// NewDurablePeer wraps a fresh overlay node with mediation behaviour,
// loads the recovered state from rec into it (a nil rec or an empty
// recovery is a cold start), and attaches the log so all further
// mutations are appended. The node must not be serving traffic yet.
func NewDurablePeer(node *pgrid.Node, l *store.Log, rec *store.Recovery) (*Peer, error) {
	p := NewPeer(node)
	if rec != nil {
		if err := p.RestoreFromRecovery(rec); err != nil {
			return nil, err
		}
	}
	p.AttachLog(l)
	return p, nil
}

// RestoreFromRecovery loads a store.Open recovery into the peer: the
// snapshot items and tombstones plus the replayed WAL mutations go
// into the node's store (quietly — no hooks, no replication). Must run
// on a fresh peer before it serves traffic.
func (p *Peer) RestoreFromRecovery(rec *store.Recovery) error {
	items := make([]pgrid.SubtreeItem, len(rec.SnapshotItems))
	for i, e := range rec.SnapshotItems {
		items[i] = pgrid.SubtreeItem{Key: e.Key, Value: e.Value}
	}
	tombs := make([]pgrid.Tombstone, len(rec.SnapshotTombs))
	for i, e := range rec.SnapshotTombs {
		tombs[i] = pgrid.Tombstone{Key: e.Key, Value: e.Value}
	}
	muts := make([]pgrid.StoreMutation, len(rec.WAL))
	for i, e := range rec.WAL {
		k, err := keyspace.ParseKey(e.Key)
		if err != nil {
			return fmt.Errorf("mediation: recovered WAL entry %d has bad key %q: %w", i, e.Key, err)
		}
		op := pgrid.OpInsert
		if e.Op == store.OpDelete {
			op = pgrid.OpDelete
		}
		muts[i] = pgrid.StoreMutation{Op: op, Key: k, Value: e.Value}
	}
	p.node.RestoreState(items, tombs, muts)
	// Warm the stats cache once over the recovered state so the peer can
	// republish stats digests immediately.
	p.node.DB().Stats()
	return nil
}

// AttachLog makes the peer durable: every subsequent overlay-store
// mutation is appended to l (one hook invocation = one record), and
// l's snapshot source is wired to the node's full store dump. Append
// failures are sticky in the log — the peer keeps serving from memory,
// and LogErr exposes the degradation.
func (p *Peer) AttachLog(l *store.Log) {
	l.SetSnapshotSource(func() (items, tombs []store.Entry) {
		// One slice, items then tombstones, so the log encodes it as is.
		var all []store.Entry
		live := 0
		p.node.VisitState(func(key string, value any, tomb bool) {
			op := store.OpDelete
			if !tomb {
				op = store.OpInsert
				live++
			}
			all = append(all, store.Entry{Op: op, Key: key, Value: value})
		})
		return all[:live], all[live:]
	})
	p.walMu.Lock()
	p.wal = l
	p.walMu.Unlock()
}

// LogErr returns the attached log's sticky error: non-nil means some
// mutation could not be made durable and the on-disk state is behind
// the in-memory one. Nil when no log is attached.
func (p *Peer) LogErr() error {
	if l := p.journal(); l != nil {
		return l.Err()
	}
	return nil
}

// JournalStats returns the attached log's bookkeeping (snapshots taken,
// snapshot and WAL lengths); zero when no log is attached.
func (p *Peer) JournalStats() store.Stats {
	if l := p.journal(); l != nil {
		return l.Stats()
	}
	return store.Stats{}
}

// journal returns the attached log, nil when there is none.
func (p *Peer) journal() *store.Log {
	p.walMu.RLock()
	defer p.walMu.RUnlock()
	return p.wal
}

// logMutations stages one observed hook invocation as one WAL record and
// returns the wait for it to be durable, after which a due snapshot is
// taken.
func (p *Peer) logMutations(muts []pgrid.StoreMutation) (wait func()) {
	l := p.journal()
	if l == nil || len(muts) == 0 {
		return nil
	}
	entries := make([]store.Entry, len(muts))
	for i, m := range muts {
		op := store.OpInsert
		if m.Op == pgrid.OpDelete {
			op = store.OpDelete
		}
		entries[i] = store.Entry{Op: op, Key: m.Key.String(), Value: m.Value}
	}
	seq, err := l.Stage(entries)
	if err != nil {
		return nil // sticky; surfaced via LogErr
	}
	return func() {
		if l.Wait(seq) == nil {
			l.MaybeSnapshot()
		}
	}
}
