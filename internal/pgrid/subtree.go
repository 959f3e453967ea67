package pgrid

import (
	"context"

	"gridvine/internal/keyspace"
	"gridvine/internal/simnet"
)

// handleSubtree answers a subtree-enumeration step: local items under the
// prefix, plus references into sibling branches of the prefix's subtree
// (levels between the prefix length and this node's depth), plus replicas —
// so the issuer can continue the traversal and route around failures.
func (n *Node) handleSubtree(req SubtreeRequest) SubtreeResponse {
	n.mu.RLock()
	defer n.mu.RUnlock()

	resp := SubtreeResponse{Path: n.path.String()}
	prefix := req.Prefix
	n.eachPairLocked(prefix, func(k string, v any) {
		resp.Items = append(resp.Items, SubtreeItem{Key: k, Value: v})
	})
	// References that cover the rest of the prefix subtree: for every level
	// l ≥ len(prefix) of this node's path, the complementary refs at l lie
	// under the prefix as well.
	for l := len(prefix); l < n.path.Len(); l++ {
		resp.Onward = append(resp.Onward, n.refs[l]...)
	}
	resp.Replicas = append(resp.Replicas, n.replicas...)
	return resp
}

// SubtreeRetrieve enumerates every (key, value) stored under the given
// prefix by walking the distributed trie. The traversal is issuer-driven:
// the issuer routes to one peer inside the prefix, then repeatedly follows
// the Onward references returned by visited peers. Items are deduplicated
// per leaf path so replica sets contribute once. The returned Route counts
// the messages spent. Cancelling ctx abandons the walk with the items
// gathered so far discarded and ctx.Err() returned.
func (n *Node) SubtreeRetrieve(ctx context.Context, prefix keyspace.Key) ([]SubtreeItem, Route, error) {
	var route Route

	// Seed the frontier: route toward an arbitrary key inside the prefix.
	probe := prefix
	for probe.Len() < keyspace.DefaultDepth {
		probe = probe.Append(0)
	}

	frontier := []simnet.PeerID{}
	visited := map[simnet.PeerID]bool{}
	coveredPaths := map[string]bool{}
	var items []SubtreeItem

	visit := func(id simnet.PeerID) {
		if visited[id] {
			return
		}
		visited[id] = true
		var resp SubtreeResponse
		if id == n.id {
			resp = n.handleSubtree(SubtreeRequest{Prefix: prefix.String()})
		} else {
			route.Messages++
			msg, err := n.net.Send(ctx, n.id, id, simnet.Message{Payload: SubtreeRequest{Prefix: prefix.String()}})
			if err != nil {
				return
			}
			route.Contacted = append(route.Contacted, id)
			var ok bool
			resp, ok = msg.Payload.(SubtreeResponse)
			if !ok {
				return
			}
		}
		if !coveredPaths[resp.Path] {
			coveredPaths[resp.Path] = true
			items = append(items, resp.Items...)
		}
		frontier = append(frontier, resp.Onward...)
		// Replicas are enqueued as fallbacks: if their leaf path was already
		// covered they are skipped cheaply, but they answer for crashed
		// primaries.
		frontier = append(frontier, resp.Replicas...)
	}

	// Find an entry point inside the prefix. If this node is already inside,
	// start locally; otherwise route.
	if prefix.IsPrefixOf(n.Path()) || n.Path().IsPrefixOf(prefix) {
		visit(n.id)
	} else {
		_, r, err := n.Retrieve(ctx, probe)
		route.Add(r)
		if err != nil {
			return nil, route, err
		}
		entry := r.Contacted[len(r.Contacted)-1]
		visit(entry)
	}

	for len(frontier) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, route, err
		}
		next := frontier[0]
		frontier = frontier[1:]
		if visited[next] {
			continue
		}
		// Only follow peers that can hold data under the prefix.
		visit(next)
	}
	return items, route, nil
}

// RangeRetrieve returns every stored (key, value) whose key lies in the
// closed interval [lo, hi] (both at full key depth). Because the data keys
// come from the order-preserving hash, this implements value-range
// constraint searches over the overlay.
func (n *Node) RangeRetrieve(ctx context.Context, lo, hi keyspace.Key) ([]SubtreeItem, Route, error) {
	var route Route
	var items []SubtreeItem
	for _, prefix := range keyspace.CoverRange(lo, hi, lo.Len()) {
		part, r, err := n.SubtreeRetrieve(ctx, prefix)
		route.Add(r)
		if err != nil {
			return items, route, err
		}
		items = append(items, part...)
	}
	return items, route, nil
}
