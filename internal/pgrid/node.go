// Package pgrid implements the P-Grid structured overlay GridVine uses at
// its intermediate layer (paper §2.1): a distributed binary search trie in
// which every peer is associated with a path π(p) (a leaf of the virtual
// trie), keeps routing references to the complementary subtree at every
// level of its path, and maintains replica references σ(p) to peers sharing
// its path. The overlay offers the two primitives the mediation layer is
// built on — Retrieve(key) and Update(key, value) — in O(log |Π|) messages,
// plus prefix-subtree and range retrieval enabled by the order-preserving
// hash.
package pgrid

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridvine/internal/keyspace"
	"gridvine/internal/simnet"
	"gridvine/internal/store"
	"gridvine/internal/triple"
)

// QueryHandler is the application hook invoked when an OpQuery reaches the
// peer responsible for its key: the mediation layer registers a handler that
// runs the local relational query against the peer's triple database. It
// must not send: ReadOnly classes an OpQuery as a local read.
type QueryHandler func(key keyspace.Key, payload any) (any, error)

// Config carries what differs between the nodes of an overlay.
type Config struct {
	// Seed drives the node's internal randomness (ref choice).
	Seed int64
}

const (
	// refsPerLevel bounds the routing references kept per trie level
	// (fault-tolerance fan-out).
	refsPerLevel = 3
	// maxRetries bounds rerouting attempts after encountering failed peers.
	maxRetries = 3
	// tombstoneCap bounds the deletion tombstones a node retains for
	// anti-entropy reconciliation; the oldest are pruned beyond it.
	tombstoneCap = 8192
	// digestBucketBits is how many key bits beyond the node's path the
	// anti-entropy digest buckets span (2^bits buckets max).
	digestBucketBits = 4
	// learnedLeafCap bounds the leaves a node remembers as routing hints;
	// beyond it the first-learned is forgotten first.
	learnedLeafCap = 1024
)

// Node is one P-Grid peer: a leaf of the distributed trie.
type Node struct {
	id  simnet.PeerID
	net simnet.Transport

	mu       sync.RWMutex
	path     keyspace.Key
	refs     map[int][]simnet.PeerID // trie level → peers in complementary subtree
	replicas []simnet.PeerID         // σ(p): peers with the same path
	// store holds every stored value but triples: key bits → values.
	store map[string][]any
	// db is the peer's triple database DB_p (paper §2.2), the one copy of
	// its stored triples. A triple is filed under each key of its subject,
	// predicate and object that the path covers (see eachTripleLocked).
	// The node mutates it under mu only.
	db        *triple.DB
	handler   QueryHandler
	storeHook StoreHook

	// order serializes mutate: one pass's apply and its hook run under it,
	// so the hook observes (and a journal records) passes in the order
	// they were applied. It is taken before mu, never while holding it.
	order sync.Mutex

	// tombs records deletions so anti-entropy reconciles them instead of
	// resurrecting the value from a replica that missed the delete. Guarded
	// by mu; bounded by tombstoneCap (oldest-seq pruned beyond it).
	tombs   map[string][]tombEntry
	tombSeq uint64
	tombLen int

	// suspMu guards failure suspicion and the targeted-repair hot-list,
	// both fed by observed send errors on routing and replication paths.
	suspMu  sync.Mutex
	suspect map[simnet.PeerID]int             // consecutive failed exchanges
	hotlist map[simnet.PeerID]map[string]bool // replica → keys whose push failed

	// latMu guards hopLat, the minimum observed per-hop round-trip latency
	// that deadline-aware routing weighs remaining context budget against.
	latMu  sync.Mutex
	hopLat time.Duration

	// leaves remembers the peer that last answered for each trie leaf this
	// node reached; routing tries it first (see routeOnce).
	leaves leafCache

	// cohosted maps the leaves of the peers sharing this node's process to
	// one of them; routing tries it before the learned leaf (see
	// SetCoHosted). Nil until set.
	cohosted atomic.Pointer[coHosted]

	// rng drives routing tie-breaks. math/rand.Rand is not goroutine-safe
	// and concurrent queries route through the same node, so it has its own
	// mutex rather than piggybacking on the (often read-locked) state lock.
	rngMu sync.Mutex
	rng   *rand.Rand
}

// StoreHook observes the store changes of one locked apply pass — a routed
// or replicated batch, or one anti-entropy repair response — in a single
// call (not construction-time data exchanges), each change as the journal
// entry that records it: an insert or a delete (a replace is delivered as
// the deletes and the insert it made). A delete is delivered for every
// recorded tombstone, whether or not the value was stored: the tombstone is
// the change. The mediation layer journals the pass's changes as one
// record. Hook calls are made in apply order,
// one at a time, under the node's order lock, so a hook must not wait on
// another pass of its node: it stages its record and returns the wait (nil
// for none), which runs once the next pass may apply — the place to wait
// for the record to be durable.
//
// A triple insert is reported only when it created a row in the node's
// triple database or cleared a tombstone under its key: filing a triple
// under its second or third key changes nothing.
type StoreHook func(changes []store.Entry) (wait func())

// SetStoreHook registers the mutation observer.
func (n *Node) SetStoreHook(h StoreHook) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.storeHook = h
}

// mutate runs apply under the store lock and delivers the changes it
// reports to the store hook in one call, outside the store lock but under
// the order lock, so hook calls follow apply order. The hook's wait runs
// after both are released. Every hooked store mutation goes through here.
func (n *Node) mutate(apply func() []store.Entry) {
	n.order.Lock()
	n.mu.Lock()
	changes := apply()
	hook := n.storeHook
	n.mu.Unlock()
	var wait func()
	if hook != nil && len(changes) > 0 {
		wait = hook(changes)
	}
	n.order.Unlock()
	if wait != nil {
		wait()
	}
}

// NewNode creates a node with the given identity and path, attached to the
// transport. The node must be registered on the transport by the caller
// (overlay builders do this).
func NewNode(id simnet.PeerID, path keyspace.Key, net simnet.Transport, cfg Config) *Node {
	return &Node{
		id:      id,
		net:     net,
		path:    path,
		refs:    make(map[int][]simnet.PeerID),
		store:   make(map[string][]any),
		db:      triple.NewDB(),
		tombs:   make(map[string][]tombEntry),
		suspect: make(map[simnet.PeerID]int),
		hotlist: make(map[simnet.PeerID]map[string]bool),
		rng:     rand.New(rand.NewSource(cfg.Seed ^ int64(len(id))*2654435761)),
	}
}

// tombEntry is one retained deletion: the deleted value plus a node-local
// sequence number used for oldest-first pruning.
type tombEntry struct {
	value any
	seq   uint64
}

// DB returns the node's triple database: the stored triples, which the
// node files under their keys. Callers read it; the node writes it.
func (n *Node) DB() *triple.DB { return n.db }

// ID returns the node's transport identity.
func (n *Node) ID() simnet.PeerID { return n.id }

// Path returns the node's current trie path π(p).
func (n *Node) Path() keyspace.Key {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.path
}

// SetQueryHandler registers the application hook for OpQuery requests.
func (n *Node) SetQueryHandler(h QueryHandler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handler = h
}

// Responsible reports whether the node's path is a prefix of key, i.e. the
// node stores data for that key.
func (n *Node) Responsible(key keyspace.Key) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.path.IsPrefixOf(key)
}

// AddRef records a routing reference to peer at the given trie level,
// bounded by refsPerLevel.
func (n *Node) AddRef(level int, peer simnet.PeerID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.addRefLocked(level, peer)
}

func (n *Node) addRefLocked(level int, peer simnet.PeerID) {
	if peer == n.id {
		return
	}
	cur := n.refs[level]
	for _, p := range cur {
		if p == peer {
			return
		}
	}
	if len(cur) >= refsPerLevel {
		return
	}
	n.refs[level] = append(cur, peer)
}

// Refs returns a copy of the routing references at the given level.
func (n *Node) Refs(level int) []simnet.PeerID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]simnet.PeerID, len(n.refs[level]))
	copy(out, n.refs[level])
	return out
}

// AddReplica records a replica reference σ(p).
func (n *Node) AddReplica(peer simnet.PeerID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if peer == n.id {
		return
	}
	for _, p := range n.replicas {
		if p == peer {
			return
		}
	}
	n.replicas = append(n.replicas, peer)
}

// Replicas returns a copy of the node's replica references.
func (n *Node) Replicas() []simnet.PeerID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]simnet.PeerID, len(n.replicas))
	copy(out, n.replicas)
	return out
}

// StoreSize returns the number of stored (key, value) pairs, a triple
// counting once per key it is filed under.
func (n *Node) StoreSize() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	total := 0
	n.eachPairLocked("", func(string, any) { total++ })
	return total
}

// LocalKeys returns the stored keys in sorted order (testing/diagnostics).
func (n *Node) LocalKeys() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	keys := make(map[string]bool, len(n.store))
	n.eachPairLocked("", func(k string, _ any) { keys[k] = true })
	out := make([]string, 0, len(keys))
	for k := range keys {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// LocalGet returns the values stored locally under key: the values other
// than triples in arrival order, then the triples filed under it. Finding
// the triples walks the triple database (testing/diagnostics); Retrieve
// answers with Values.
func (n *Node) LocalGet(key keyspace.Key) []any {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := append([]any(nil), n.store[key.String()]...)
	n.eachTripleLocked(key.String(), func(_ string, t triple.Triple) { out = append(out, t) })
	return out
}

// Values returns the values other than triples stored locally under key:
// what a Retrieve answers. Triples are read through the node's triple
// database (DB, or Query at the responsible peer).
func (n *Node) Values(key keyspace.Key) []any {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return append([]any(nil), n.store[key.String()]...)
}

// eachPairLocked calls visit with every stored (key, value) pair under
// prefix: the values other than triples, then the triples as they are
// filed (see eachTripleLocked). n.mu must be held.
func (n *Node) eachPairLocked(prefix string, visit func(key string, value any)) {
	for k, vs := range n.store {
		if hasPrefix(k, prefix) {
			for _, v := range vs {
				visit(k, v)
			}
		}
	}
	n.eachTripleLocked(prefix, func(k string, t triple.Triple) { visit(k, t) })
}

// eachTripleLocked calls visit with every (key, triple) pair the node
// stores under prefix: each distinct key of a stored triple's subject,
// predicate and object that lies under both prefix and the node's path. It
// walks the triple database's index keys, hashing each at most once, and
// only those whose order-preserving bits can reach prefix. n.mu must be held.
func (n *Node) eachTripleLocked(prefix string, visit func(key string, t triple.Triple)) {
	under := n.path.String()
	switch {
	case hasPrefix(prefix, under):
		under = prefix
	case !hasPrefix(under, prefix):
		return
	}
	var last, key string
	started := false
	n.db.EachFiled(func(pos triple.Position, s string, t triple.Triple) {
		if !started || s != last {
			started, last, key = true, s, ""
			if keyspace.CouldHashUnder(s, under) {
				if k := keyspace.HashDefault(s).String(); hasPrefix(k, under) {
					key = k
				}
			}
		}
		// A row already filed under this key at an earlier position is
		// visited there.
		if key == "" || pos > triple.Subject && keyspace.SameKey(t.Subject, s) ||
			pos > triple.Predicate && keyspace.SameKey(t.Predicate, s) {
			return
		}
		visit(key, t)
	})
}

// covers reports whether the node's path covers key; n.mu must be held.
func (n *Node) covers(key string) bool { return hasPrefix(key, n.path.String()) }

// valueEq is the store's value equality against one value: the answer of
// reflect.DeepEqual, reached with == when the value is plain (a deleted
// triple: a tombstone scan under a predicate key compares against every
// deletion there, and DeepEqual was most of its cost). A scan builds it
// once, with sameAs.
type valueEq struct {
	value any
	plain bool
}

func sameAs(value any) valueEq {
	return valueEq{value: value, plain: plain(reflect.ValueOf(value))}
}

// plain reports whether v holds only booleans, numbers and strings, directly
// or in nested structs — no pointer, interface, channel, map, slice, func
// or array, so that == on two such values of one type is DeepEqual.
func plain(v reflect.Value) bool {
	switch k := v.Kind(); {
	case k == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !plain(v.Field(i)) {
				return false
			}
		}
		return true
	case k == reflect.String, reflect.Bool <= k && k <= reflect.Complex128:
		return true
	}
	return false
}

// is reports whether other equals the value. Interface == is false for
// different dynamic types, as DeepEqual is, and cannot panic here: a plain
// type is comparable.
func (e valueEq) is(other any) bool {
	if e.plain {
		return other == e.value
	}
	return reflect.DeepEqual(other, e.value)
}

// insertLocked stores value under key, collapsing exact duplicates, and
// reports whether the store changed; n.mu must be held. A direct insert
// supersedes any matching tombstone: re-publishing a previously deleted
// value must stick, so the tombstone is cleared before the value lands.
//
// A triple goes into the triple database, which files it under all its
// keys the path covers. It changes the store when it creates a row or
// clears a tombstone under key: the row may be there already, inserted
// under another of its keys, while key still holds an earlier delete's
// tombstone. Under a key the path does not cover it is not applied.
func (n *Node) insertLocked(key string, value any) bool {
	t, isTriple := value.(triple.Triple)
	if isTriple && !n.covers(key) {
		return false
	}
	same := sameAs(value)
	cleared := n.clearTombLocked(key, same)
	if isTriple {
		return n.db.Insert(t) || cleared
	}
	for _, v := range n.store[key] {
		if same.is(v) {
			return false
		}
	}
	n.store[key] = append(n.store[key], value)
	return true
}

// recordTombLocked notes a deletion for later anti-entropy reconciliation;
// n.mu must be held. Callers tombstone a delete whether or not the value
// was present — the delete may have raced ahead of the insert it cancels,
// and anti-entropy must not resurrect either way. An existing equal
// tombstone is refreshed in place.
func (n *Node) recordTombLocked(key string, value any) {
	n.tombSeq++
	same := sameAs(value)
	for i, t := range n.tombs[key] {
		if same.is(t.value) {
			n.tombs[key][i].seq = n.tombSeq
			return
		}
	}
	n.tombs[key] = append(n.tombs[key], tombEntry{value: value, seq: n.tombSeq})
	n.tombLen++
	if n.tombLen > tombstoneCap {
		n.pruneTombsLocked()
	}
}

// clearTombLocked removes a tombstone for the value under key and reports
// whether there was one; n.mu held.
func (n *Node) clearTombLocked(key string, same valueEq) bool {
	ts := n.tombs[key]
	for i, t := range ts {
		if same.is(t.value) {
			n.tombs[key] = append(ts[:i:i], ts[i+1:]...)
			if len(n.tombs[key]) == 0 {
				delete(n.tombs, key)
			}
			n.tombLen--
			return true
		}
	}
	return false
}

// pruneTombsLocked drops every tombstone older than the newest tombstoneCap
// sequence numbers; n.mu must be held. Sequence numbers are dense (one per
// recorded tombstone), so the cutoff retains at most tombstoneCap entries.
func (n *Node) pruneTombsLocked() {
	cutoff := n.tombSeq - tombstoneCap
	for k, ts := range n.tombs {
		kept := ts[:0]
		for _, t := range ts {
			if t.seq > cutoff {
				kept = append(kept, t)
			}
		}
		n.tombLen -= len(ts) - len(kept)
		if len(kept) == 0 {
			delete(n.tombs, k)
			continue
		}
		n.tombs[k] = kept
	}
}

// TombstoneCount returns the number of retained deletion tombstones.
func (n *Node) TombstoneCount() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.tombLen
}

// deleteLocked removes the first value deep-equal to value under key and
// reports whether the store changed; n.mu must be held. A triple leaves
// the triple database, and so every key it was filed under, unless key
// lies outside the node's path.
func (n *Node) deleteLocked(key string, value any) bool {
	if t, ok := value.(triple.Triple); ok {
		return n.covers(key) && n.db.Delete(t)
	}
	vs := n.store[key]
	same := sameAs(value)
	for i, v := range vs {
		if same.is(v) {
			n.store[key] = append(vs[:i:i], vs[i+1:]...)
			if len(n.store[key]) == 0 {
				delete(n.store, key)
			}
			return true
		}
	}
	return false
}

// nextHopInfo computes, for a key, whether this node is responsible, and if
// not, the references at the divergence level.
func (n *Node) nextHopInfo(key keyspace.Key) (responsible bool, hops []simnet.PeerID) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.path.IsPrefixOf(key) {
		return true, nil
	}
	level := n.path.CommonPrefixLen(key)
	refs := n.refs[level]
	out := make([]simnet.PeerID, len(refs))
	copy(out, refs)
	return false, out
}

// HandleMessage implements simnet.Handler: a message's payload says what
// it asks, and the empty message is a liveness probe.
func (n *Node) HandleMessage(from simnet.PeerID, msg simnet.Message) (simnet.Message, error) {
	switch req := msg.Payload.(type) {
	case nil:
		return simnet.Message{}, nil
	case ExecRequest:
		resp, err := n.handleExec(req)
		if err != nil {
			return simnet.Message{}, err
		}
		return simnet.Message{Payload: resp}, nil
	default:
		return n.handleMaintenance(msg)
	}
}

// handleMaintenance serves the messages that write, replicate and repair.
// It is out of HandleMessage's frame, which sits under every in-process
// read a query makes: a Cursor's goroutine and runPoolCtx's workers start
// afresh for one search, and a deeper frame there can cost each of them a
// stack copy.
func (n *Node) handleMaintenance(msg simnet.Message) (simnet.Message, error) {
	switch req := msg.Payload.(type) {
	case BatchUpdate:
		return simnet.Message{Payload: BatchResult{Applied: n.applyBatch(req.Entries, true)}}, nil
	case BatchReplicate:
		// Replica synchronization applies unconditionally and never
		// re-replicates.
		n.applyBatchLocal(req.Entries, false)
		return simnet.Message{}, nil
	case SubtreeRequest:
		return simnet.Message{Payload: n.handleSubtree(req)}, nil
	case DigestRequest:
		return simnet.Message{Payload: n.handleDigest(req)}, nil
	case RepairRequest:
		return simnet.Message{Payload: n.handleRepair(req)}, nil
	default:
		return simnet.Message{}, fmt.Errorf("pgrid: unknown payload %T", msg.Payload)
	}
}

// replaceLocked inserts value under key, first removing every stored value
// it Replaces (see Replacer); n.mu must be held. It returns the removed
// values and whether value was newly inserted: an exact duplicate already
// stored stays, and the insert changes nothing else. A value that is no
// Replacer, a triple among them, goes straight to insertLocked.
func (n *Node) replaceLocked(key string, value any) (removed []any, inserted bool) {
	rep, ok := value.(Replacer)
	if !ok {
		return nil, n.insertLocked(key, value)
	}
	vs := n.store[key]
	kept := make([]any, 0, len(vs)+1)
	dup, same := false, sameAs(value)
	for _, v := range vs {
		switch {
		case !dup && same.is(v):
			dup = true
		case rep.Replaces(v):
			removed = append(removed, v)
			n.recordTombLocked(key, v)
			continue
		}
		kept = append(kept, v)
	}
	n.clearTombLocked(key, same)
	if !dup {
		kept = append(kept, value)
	}
	if len(removed) == 0 && dup {
		return nil, false
	}
	n.store[key] = kept
	return removed, !dup
}

// applyBatch applies every batch entry this node is responsible for (every
// entry, when checkResponsible is false), synchronizes its replicas with
// one BatchReplicate message each, and returns the indices of the applied
// entries.
func (n *Node) applyBatch(entries []BatchEntry, checkResponsible bool) []int {
	applied := n.applyBatchLocal(entries, checkResponsible)
	if len(applied) == 0 {
		return applied
	}
	rep := BatchReplicate{Entries: make([]BatchEntry, 0, len(applied))}
	keys := make([]string, 0, len(applied))
	for _, i := range applied {
		rep.Entries = append(rep.Entries, entries[i])
		keys = append(keys, entries[i].Key)
	}
	for _, r := range n.Replicas() {
		// Best-effort — but a failed push is observed, not dropped: the
		// replica becomes suspected and the batch's keys land on its repair
		// hot-list, so the next anti-entropy round re-ships exactly what was
		// lost instead of rescanning the whole store. One message carries
		// the whole batch.
		//gridvine:serverctx batch replication must complete even if the issuing batch's context is cancelled, or replicas diverge
		if _, err := n.net.Send(context.Background(), n.id, r, simnet.Message{Payload: rep}); err != nil {
			n.noteReplicaFailure(r, keys...)
		} else {
			n.clearSuspect(r)
		}
	}
	return applied
}

// applyBatchLocal performs the store mutations of a batch under one lock
// acquisition and fires the store hook once with every change. Entries are
// applied in slice order, so same-key sequences keep their submission
// semantics, and an insert supersedes what its value Replaces. Entries
// whose key fails to parse, or — under checkResponsible — lies outside the
// node's path, are not applied.
func (n *Node) applyBatchLocal(entries []BatchEntry, checkResponsible bool) []int {
	applied := make([]int, 0, len(entries))
	n.mutate(func() (changes []store.Entry) {
		for i, e := range entries {
			key, err := keyspace.ParseKey(e.Key)
			if err != nil {
				continue
			}
			if checkResponsible && !n.path.IsPrefixOf(key) {
				continue
			}
			switch e.Op {
			case OpInsert:
				removed, inserted := n.replaceLocked(e.Key, e.Value)
				for _, v := range removed {
					changes = append(changes, store.Entry{Op: store.OpDelete, Key: e.Key, Value: v})
				}
				if inserted {
					changes = append(changes, store.Entry{Op: store.OpInsert, Key: e.Key, Value: e.Value})
				}
			case OpDelete:
				n.recordTombLocked(e.Key, e.Value)
				n.deleteLocked(e.Key, e.Value)
				changes = append(changes, store.Entry{Op: store.OpDelete, Key: e.Key, Value: e.Value})
			default:
				continue
			}
			// Duplicate inserts / missing deletes count as applied: the
			// entry's intended end state holds.
			applied = append(applied, i)
		}
		return changes
	})
	return applied
}

// markSuspect records one failed exchange with a peer. Suspected peers are
// deprioritized by routing (ordered last among candidates, never excluded —
// they may have recovered) until a successful exchange clears them.
func (n *Node) markSuspect(id simnet.PeerID) {
	n.suspMu.Lock()
	defer n.suspMu.Unlock()
	n.suspect[id]++
}

// clearSuspect clears failure suspicion after a successful exchange.
func (n *Node) clearSuspect(id simnet.PeerID) {
	n.suspMu.Lock()
	defer n.suspMu.Unlock()
	delete(n.suspect, id)
}

// Suspected reports whether the node currently suspects the peer of being
// dead (at least one observed send failure with no success since).
func (n *Node) Suspected(id simnet.PeerID) bool {
	n.suspMu.Lock()
	defer n.suspMu.Unlock()
	return n.suspect[id] > 0
}

// noteReplicaFailure records a failed replication push: the replica becomes
// suspected and every affected key is enqueued on its repair hot-list, so
// the next anti-entropy round re-ships exactly what was lost instead of
// rediscovering it by digest comparison.
func (n *Node) noteReplicaFailure(r simnet.PeerID, keys ...string) {
	n.suspMu.Lock()
	defer n.suspMu.Unlock()
	n.suspect[r]++
	hot := n.hotlist[r]
	if hot == nil {
		hot = make(map[string]bool)
		n.hotlist[r] = hot
	}
	for _, k := range keys {
		hot[k] = true
	}
}

// takeHotKeys removes and returns the repair hot-list for a replica, sorted
// for deterministic repair order.
func (n *Node) takeHotKeys(r simnet.PeerID) []string {
	n.suspMu.Lock()
	hot := n.hotlist[r]
	delete(n.hotlist, r)
	n.suspMu.Unlock()
	if len(hot) == 0 {
		return nil
	}
	out := make([]string, 0, len(hot))
	for k := range hot {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// RepairBacklog returns the total number of keys awaiting targeted repair
// across all replica hot-lists.
func (n *Node) RepairBacklog() int {
	n.suspMu.Lock()
	defer n.suspMu.Unlock()
	total := 0
	for _, hot := range n.hotlist {
		total += len(hot)
	}
	return total
}

var _ simnet.Handler = (*Node)(nil)
