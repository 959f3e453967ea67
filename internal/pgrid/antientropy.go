package pgrid

import (
	"context"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"sort"

	"gridvine/internal/keyspace"
	"gridvine/internal/simnet"
	"gridvine/internal/store"
)

// Digest-based push-pull anti-entropy between replica sets (σ(p)).
//
// Replicas of a leaf path exchange Merkle-style subtree digests: the key
// space under the shared path is split into 2^digestBucketBits prefix
// buckets, each summarized by an order-independent XOR fold of its item
// hashes. Identical stores compare equal in one message; differing stores
// narrow the repair to the differing buckets and ship only the items (and
// deletion tombstones) one side lacks — replacing the full-store pull the
// overlay used before, whose cost grew with store size regardless of how
// little had diverged.

// tombSalt separates tombstone hashes from live-item hashes so a bucket
// holding a value and a bucket holding its tombstone never compare equal.
const tombSalt = 0x9e3779b97f4a7c15

// DigestRequest asks a replica to digest its store under Path, bucketed by
// the next BucketBits key bits. Carries no stored data.
type DigestRequest struct {
	Path       string
	BucketBits int
}

// DigestResponse carries the replica's per-bucket digests: Items folds the
// live values per key-prefix bucket, Tombs folds the deletion tombstones.
// Carries no stored data.
type DigestResponse struct {
	Items map[string]uint64
	Tombs map[string]uint64
}

// ItemDigest identifies one stored value (or tombstone) by key and content
// hash, without carrying the value itself.
type ItemDigest struct {
	Key  string
	Hash uint64
}

// Tombstone is one shipped deletion: the key and deleted value, so the
// receiver can apply (and retain) the delete.
type Tombstone struct {
	Key   string
	Value any
}

// RepairRequest narrows the diff to the differing buckets: Prefixes lists
// them, Have/HaveTombs enumerate the issuer's item and tombstone digests
// under those prefixes. Carries hashes only, no stored data.
type RepairRequest struct {
	Prefixes  []string
	Have      []ItemDigest
	HaveTombs []ItemDigest
}

// RepairResponse completes the push-pull exchange: Missing and Tombs carry
// the receiver's data the issuer lacks (the pull half); Want and WantTombs
// name the issuer's digests the receiver lacks, which the issuer then ships
// back as a replication batch (the push half).
type RepairResponse struct {
	Missing   []SubtreeItem
	Tombs     []Tombstone
	Want      []ItemDigest
	WantTombs []ItemDigest
}

// RepairStats summarizes one AntiEntropy pass.
type RepairStats struct {
	Replicas    int // replicas that completed a digest exchange
	Pulled      int // items merged from replicas
	Pushed      int // items shipped to replicas
	TombsPulled int // deletions applied from replica tombstones
	TombsPushed int // tombstones shipped to replicas
	HotPushed   int // hot-list entries re-shipped by targeted repair
	Messages    int // transport sends spent
}

// itemHash digests one stored (key, value) pair. Values are hashed by their
// Go representation (type + %#v), which is deterministic for the flat
// struct/string/scalar values the overlay stores (a stats digest's
// sketches print their registers: triple.HLL.GoString).
func itemHash(key string, value any) uint64 {
	h := fnv.New64a()
	io.WriteString(h, key)                        //nolint:errcheck
	fmt.Fprintf(h, "\x00%T\x00%#v", value, value) //nolint:errcheck
	return h.Sum64()
}

// bucketOf returns the digest bucket for a key: its prefix extended
// bucketBits beyond the shared path (clamped to the key length).
func bucketOf(key string, pathLen, bucketBits int) string {
	end := pathLen + bucketBits
	if end > len(key) {
		end = len(key)
	}
	return key[:end]
}

// digestBuckets folds the node's stored pairs and tombstones under path
// into per-bucket digests. XOR folding makes the digest order-independent,
// so replicas agree regardless of map iteration or arrival order.
func (n *Node) digestBuckets(path string, bucketBits int) (items, tombs map[string]uint64) {
	items = make(map[string]uint64)
	tombs = make(map[string]uint64)
	n.mu.RLock()
	defer n.mu.RUnlock()
	n.eachPairLocked(path, func(k string, v any) {
		items[bucketOf(k, len(path), bucketBits)] ^= itemHash(k, v)
	})
	for k, ts := range n.tombs {
		if !hasPrefix(k, path) {
			continue
		}
		b := bucketOf(k, len(path), bucketBits)
		for _, t := range ts {
			tombs[b] ^= itemHash(k, t.value) ^ tombSalt
		}
	}
	return items, tombs
}

func hasPrefix(k, prefix string) bool {
	return len(k) >= len(prefix) && k[:len(prefix)] == prefix
}

// handleDigest answers a replica's digest request.
func (n *Node) handleDigest(req DigestRequest) DigestResponse {
	items, tombs := n.digestBuckets(req.Path, req.BucketBits)
	return DigestResponse{Items: items, Tombs: tombs}
}

// localDiff enumerates this node's items and tombstones under the given
// prefixes, returning their digests plus a resolution map from digest to
// concrete data (for shipping the push half).
func (n *Node) localDiff(prefixes []string) (have, haveTombs []ItemDigest, items map[ItemDigest]any, tombVals map[ItemDigest]any) {
	items = make(map[ItemDigest]any)
	tombVals = make(map[ItemDigest]any)
	n.mu.RLock()
	defer n.mu.RUnlock()
	n.eachPairLocked("", func(k string, v any) {
		if slices.ContainsFunc(prefixes, func(p string) bool { return hasPrefix(k, p) }) {
			d := ItemDigest{Key: k, Hash: itemHash(k, v)}
			have = append(have, d)
			items[d] = v
		}
	})
	for k, ts := range n.tombs {
		for _, p := range prefixes {
			if hasPrefix(k, p) {
				for _, t := range ts {
					d := ItemDigest{Key: k, Hash: itemHash(k, t.value)}
					haveTombs = append(haveTombs, d)
					tombVals[d] = t.value
				}
				break
			}
		}
	}
	return have, haveTombs, items, tombVals
}

// handleRepair answers the item-level diff: data the issuer lacks rides
// back in the response, digests the receiver lacks are requested back.
func (n *Node) handleRepair(req RepairRequest) RepairResponse {
	issuerHas := make(map[ItemDigest]bool, len(req.Have))
	for _, d := range req.Have {
		issuerHas[d] = true
	}
	issuerTombs := make(map[ItemDigest]bool, len(req.HaveTombs))
	for _, d := range req.HaveTombs {
		issuerTombs[d] = true
	}

	have, haveTombs, items, tombVals := n.localDiff(req.Prefixes)
	var resp RepairResponse
	localHas := make(map[ItemDigest]bool, len(have))
	for _, d := range have {
		localHas[d] = true
		if !issuerHas[d] {
			resp.Missing = append(resp.Missing, SubtreeItem{Key: d.Key, Value: items[d]})
		}
	}
	localTombs := make(map[ItemDigest]bool, len(haveTombs))
	for _, d := range haveTombs {
		localTombs[d] = true
		if !issuerTombs[d] {
			resp.Tombs = append(resp.Tombs, Tombstone{Key: d.Key, Value: tombVals[d]})
		}
	}
	for _, d := range req.Have {
		// Never ask for an item this node has tombstoned: within repair the
		// delete wins, so the issuer's copy is the stale one (its own pull
		// half receives the tombstone in this same exchange).
		if !localHas[d] && !localTombs[d] {
			resp.Want = append(resp.Want, d)
		}
	}
	for _, d := range req.HaveTombs {
		if !localTombs[d] {
			resp.WantTombs = append(resp.WantTombs, d)
		}
	}
	return resp
}

// mergeRepair applies the pull half of one repair response in a single
// locked pass that fires the store hook once. Tombstones go first — each is
// retained locally (so it propagates onward) and removes the value if
// present — so a value the replica deleted does not land from its item list
// and immediately resurrect. Items are then inserted unless a local
// tombstone marks them deleted: within repair the delete wins; only a fresh
// direct insert supersedes a tombstone. Entries whose key fails to parse
// are not applied. Returns how many deletions and insertions changed the
// store.
func (n *Node) mergeRepair(tombs []Tombstone, items []SubtreeItem) (deleted, inserted int) {
	n.mutate(func() (changes []store.Entry) {
		for _, t := range tombs {
			if _, err := keyspace.ParseKey(t.Key); err != nil {
				continue
			}
			n.recordTombLocked(t.Key, t.Value)
			changes = append(changes, store.Entry{Op: store.OpDelete, Key: t.Key, Value: t.Value})
			if n.deleteLocked(t.Key, t.Value) {
				deleted++
			}
		}
		for _, it := range items {
			_, err := keyspace.ParseKey(it.Key)
			same := sameAs(it.Value)
			tombstoned := slices.ContainsFunc(n.tombs[it.Key], func(t tombEntry) bool { return same.is(t.value) })
			if err == nil && !tombstoned && n.insertLocked(it.Key, it.Value) {
				changes = append(changes, store.Entry{Op: store.OpInsert, Key: it.Key, Value: it.Value})
				inserted++
			}
		}
		return changes
	})
	return deleted, inserted
}

// AntiEntropy runs one push-pull repair round against every replica in
// σ(p): targeted repair of hot-listed keys first, then a digest exchange
// that ships only what differs. Call it periodically (or after recovering
// from a crash) to restore the probabilistic consistency guarantee of the
// paper's overlay layer (§2.1). Unreachable replicas are skipped (and
// suspected); the round never fails as a whole.
func (n *Node) AntiEntropy(ctx context.Context) RepairStats {
	var stats RepairStats
	for _, r := range n.Replicas() {
		if err := ctx.Err(); err != nil {
			return stats
		}
		n.repairWith(ctx, r, &stats)
	}
	return stats
}

// repairWith runs the per-replica exchange, folding counters into stats.
func (n *Node) repairWith(ctx context.Context, r simnet.PeerID, stats *RepairStats) {
	// Targeted repair: re-ship the keys whose replication pushes to this
	// replica failed. Their current state (live values + tombstones) rides
	// one BatchReplicate; the digest pass below then only pays for
	// divergence the hot-list did not already explain.
	hot := n.takeHotKeys(r)
	if len(hot) > 0 {
		entries := n.hotEntries(hot)
		if len(entries) > 0 {
			stats.Messages++
			if _, err := n.net.Send(ctx, n.id, r, simnet.Message{Payload: BatchReplicate{Entries: entries}}); err != nil {
				n.noteReplicaFailure(r, hot...)
				return
			}
			stats.HotPushed += len(entries)
		}
	}

	path := n.Path().String()
	bits := digestBucketBits
	stats.Messages++
	msg, err := n.net.Send(ctx, n.id, r, simnet.Message{Payload: DigestRequest{Path: path, BucketBits: bits}})
	if err != nil {
		n.markSuspect(r)
		return
	}
	n.clearSuspect(r)
	theirs, ok := msg.Payload.(DigestResponse)
	if !ok {
		return
	}
	stats.Replicas++

	ours, ourTombs := n.digestBuckets(path, bits)
	prefixes := diffBuckets(ours, ourTombs, theirs.Items, theirs.Tombs)
	if len(prefixes) == 0 {
		return
	}

	have, haveTombs, items, tombVals := n.localDiff(prefixes)
	stats.Messages++
	msg, err = n.net.Send(ctx, n.id, r, simnet.Message{Payload: RepairRequest{Prefixes: prefixes, Have: have, HaveTombs: haveTombs}})
	if err != nil {
		n.markSuspect(r)
		return
	}
	rep, ok := msg.Payload.(RepairResponse)
	if !ok {
		return
	}

	// Pull half: one locked pass, one hook invocation — a durable peer
	// journals the whole response as one record.
	_, pulled := n.mergeRepair(rep.Tombs, rep.Missing)
	stats.TombsPulled += len(rep.Tombs)
	stats.Pulled += pulled

	// Push half: ship what the replica asked for as one replication batch —
	// inserts for live values, deletes for tombstones (the receiver records
	// the tombstone when applying the delete).
	var push []BatchEntry
	for _, d := range rep.Want {
		if v, ok := items[d]; ok {
			push = append(push, BatchEntry{Key: d.Key, Op: OpInsert, Value: v})
		}
	}
	pushTombs := 0
	for _, d := range rep.WantTombs {
		if v, ok := tombVals[d]; ok {
			push = append(push, BatchEntry{Key: d.Key, Op: OpDelete, Value: v})
			pushTombs++
		}
	}
	if len(push) > 0 {
		stats.Messages++
		if _, err := n.net.Send(ctx, n.id, r, simnet.Message{Payload: BatchReplicate{Entries: push}}); err != nil {
			keys := make([]string, len(push))
			for i, e := range push {
				keys[i] = e.Key
			}
			n.noteReplicaFailure(r, keys...)
			return
		}
		stats.Pushed += len(push) - pushTombs
		stats.TombsPushed += pushTombs
	}
}

// hotEntries builds the targeted-repair batch for hot-listed keys: the
// node's current live values as inserts plus retained tombstones as
// deletes, i.e. the key's full present state.
func (n *Node) hotEntries(keys []string) []BatchEntry {
	n.mu.RLock()
	defer n.mu.RUnlock()
	live := make(map[string][]any, len(keys))
	for _, k := range keys {
		live[k] = nil
	}
	// One walk for all the keys: each walk derives every stored pair.
	n.eachPairLocked("", func(k string, v any) {
		if vs, hot := live[k]; hot {
			live[k] = append(vs, v)
		}
	})
	var entries []BatchEntry
	for _, k := range keys {
		for _, v := range live[k] {
			entries = append(entries, BatchEntry{Key: k, Op: OpInsert, Value: v})
		}
		for _, t := range n.tombs[k] {
			entries = append(entries, BatchEntry{Key: k, Op: OpDelete, Value: t.value})
		}
	}
	return entries
}

// diffBuckets returns the sorted union of bucket prefixes whose item or
// tombstone digests differ between the two sides.
func diffBuckets(aItems, aTombs, bItems, bTombs map[string]uint64) []string {
	diff := make(map[string]bool)
	mark := func(a, b map[string]uint64) {
		for p, d := range a {
			if b[p] != d {
				diff[p] = true
			}
		}
		for p, d := range b {
			if a[p] != d {
				diff[p] = true
			}
		}
	}
	mark(aItems, bItems)
	mark(aTombs, bTombs)
	out := make([]string, 0, len(diff))
	for p := range diff {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// ContentDigest folds the node's stored pairs into one order-independent
// digest: replicas holding byte-identical stores compare equal. Tombstones
// are excluded — they are repair metadata, pruned independently.
func (n *Node) ContentDigest() uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var d uint64
	n.eachPairLocked("", func(k string, v any) { d ^= itemHash(k, v) })
	return d
}

func init() {
	gob.Register(DigestRequest{})
	gob.Register(DigestResponse{})
	gob.Register(RepairRequest{})
	gob.Register(RepairResponse{})
	gob.Register(ItemDigest{})
	gob.Register(Tombstone{})
	gob.Register(map[string]uint64(nil))
}
