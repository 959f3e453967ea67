package pgrid

import (
	"context"
	"encoding/gob"

	"gridvine/internal/simnet"
)

const msgSync = "pgrid.sync"

// SyncRequest asks a replica for its full store content under the
// requesting peer's path (the full-store anti-entropy baseline).
type SyncRequest struct {
	Path string
}

// SyncResponse carries the replica's matching items plus its retained
// deletion tombstones, so a recovering peer reconciles deletes it missed
// instead of resurrecting them.
type SyncResponse struct {
	Items []SubtreeItem
	Tombs []Tombstone
}

// SyncFromReplicas performs anti-entropy with the node's replica set σ(p).
// A peer that recovers after a crash calls this to catch up on the updates
// (and deletes) it missed — restoring the probabilistic consistency
// guarantee the paper's overlay layer provides (§2.1). It is digest-based:
// replicas whose stores already agree answer with one digest message and
// ship nothing (see AntiEntropy). It returns the number of local store
// changes (items merged plus deletions applied) and how many replicas
// answered the digest exchange.
func (n *Node) SyncFromReplicas() (merged, replicasSeen int) {
	//gridvine:serverctx anti-entropy is node-lifecycle work with no issuing request to inherit a context from
	stats := n.AntiEntropy(context.Background())
	return stats.Pulled + stats.TombsPulled, stats.Replicas
}

// FullSyncFromReplicas is the pre-digest anti-entropy baseline: it pulls
// every item stored under the node's path from each live replica and merges
// it locally, applying shipped tombstones so deletes reconcile. Kept (and
// measured by the churn experiment) as the comparison point for the
// digest-based exchange — it converges identically but re-ships the whole
// store regardless of how little diverged. Returns the number of local
// store changes and how many replicas answered.
func (n *Node) FullSyncFromReplicas() (merged, replicasSeen int) {
	path := n.Path()
	for _, r := range n.Replicas() {
		//gridvine:serverctx anti-entropy is node-lifecycle work with no issuing request to inherit a context from
		msg, err := n.net.Send(context.Background(), n.id, r, simnet.Message{
			Type:    msgSync,
			Payload: SyncRequest{Path: path.String()},
		})
		if err != nil {
			n.markSuspect(r)
			continue
		}
		resp, ok := msg.Payload.(SyncResponse)
		if !ok {
			continue
		}
		n.clearSuspect(r)
		replicasSeen++
		deleted, inserted := n.mergeRepair(resp.Tombs, resp.Items)
		merged += deleted + inserted
	}
	return merged, replicasSeen
}

// handleSync answers a replica's full-store anti-entropy pull.
func (n *Node) handleSync(req SyncRequest) SyncResponse {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var resp SyncResponse
	for k, vs := range n.store {
		if hasPrefix(k, req.Path) {
			for _, v := range vs {
				resp.Items = append(resp.Items, SubtreeItem{Key: k, Value: v})
			}
		}
	}
	for k, ts := range n.tombs {
		if hasPrefix(k, req.Path) {
			for _, t := range ts {
				resp.Tombs = append(resp.Tombs, Tombstone{Key: k, Value: t.value})
			}
		}
	}
	return resp
}

func init() {
	gob.Register(SyncRequest{})
	gob.Register(SyncResponse{})
}
