package mediation

import (
	"gridvine/internal/pgrid"
	"gridvine/internal/store"
)

// Peer-level durability: the node's store — its triple database plus the
// other values (schemas, mappings, stats digests) and tombstones — is the
// authoritative local state, and what a crash must not lose. Every
// mutation the node observes through its store hook is appended to an
// attached store.Log at exactly the hook granularity (one hook invocation
// — a batch, or one anti-entropy repair response — = one WAL record), and
// snapshots walk the node's values, each triple once with no key, and its
// tombstones via Node.VisitState. This is the only durability layer: there
// is no journaled triple store beneath it.
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
		if err := node.RestoreState(rec.SnapshotItems, rec.SnapshotTombs, rec.WAL); err != nil {
			return nil, err
		}
		// Warm the stats cache once over the recovered state so the peer
		// can republish stats digests immediately.
		node.DB().Stats()
	}
	p.AttachLog(l)
	return p, nil
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
		p.node.VisitState(func(e store.Entry) {
			if e.Op == store.OpInsert {
				live++
			}
			all = append(all, e)
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

// logChanges stages one observed hook invocation as one WAL record and
// returns the wait for it to be durable, after which a due snapshot is
// taken.
func (p *Peer) logChanges(changes []store.Entry) (wait func()) {
	l := p.journal()
	if l == nil || len(changes) == 0 {
		return nil
	}
	seq, err := l.Stage(changes)
	if err != nil {
		return nil // sticky; surfaced via LogErr
	}
	return func() {
		if l.Wait(seq) == nil {
			l.MaybeSnapshot()
		}
	}
}
