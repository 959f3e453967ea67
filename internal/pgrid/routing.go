package pgrid

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"gridvine/internal/keyspace"
	"gridvine/internal/simnet"
)

// ErrNoRoute reports that routing could not reach a live responsible peer.
var ErrNoRoute = errors.New("pgrid: no route to responsible peer")

// ErrRetryBudget reports that a rerouting round was abandoned before it
// started because the context's remaining deadline budget is smaller than
// the node's observed per-hop latency — the retry was doomed to burn the
// rest of the deadline without completing. Distinguishable from both a
// routing dead-end (ErrNoRoute) and an actually expired context
// (context.DeadlineExceeded), so callers can fail fast and, e.g., redirect
// the remaining budget to work already in flight.
var ErrRetryBudget = errors.New("pgrid: deadline budget below observed per-hop latency, abandoning retry")

// Route describes how one overlay operation was resolved; the experiment
// harness feeds Contacted into the discrete-event replay and counts Messages
// for the O(log |Π|) routing-cost experiment.
type Route struct {
	// Contacted lists, in order, the remote peers the issuer exchanged a
	// request/response with. The final entry is the peer that answered.
	Contacted []simnet.PeerID
	// Messages is the number of transport sends attributed to the operation
	// as observed by the issuer (request+response counted once), excluding
	// server-side replication traffic.
	Messages int
	// Retries counts rerouting rounds forced by unreachable peers.
	Retries int
	// Degraded reports that the operation succeeded only by routing around
	// unreachable peers (excluded hops or retry rounds): the answer came
	// from a live replica rather than the first-choice responsible peer, so
	// under churn it may trail the newest writes by one anti-entropy round.
	Degraded bool
	// Shortcut reports that the first exchange went to a co-hosted peer of
	// the key's leaf or to a learned leaf — a peer that answered for it
	// before (see routeOnce) — rather than one of the issuer's routing
	// references.
	Shortcut bool
}

// Hops returns the number of peers contacted.
func (r Route) Hops() int { return len(r.Contacted) }

// Add folds the route of another operation into r, for a total over
// several: contacted peers, messages and retries add up, and Degraded and
// Shortcut hold when they hold for any of the parts.
func (r *Route) Add(o Route) {
	r.Contacted = append(r.Contacted, o.Contacted...)
	r.Messages += o.Messages
	r.Retries += o.Retries
	r.Degraded = r.Degraded || o.Degraded
	r.Shortcut = r.Shortcut || o.Shortcut
}

// Every routed operation takes a context: routing checks it between hops
// (and the transport checks it in transit), so cancelling the context or
// letting its deadline expire abandons the operation mid-route with
// ctx.Err(). Callers that do not need cancellation pass
// context.Background().

// Retrieve resolves key to its responsible peer and returns the values
// stored there (paper §2.1: Retrieve(key)), triples excepted: those are
// answered by the peer's triple database, through Query.
func (n *Node) Retrieve(ctx context.Context, key keyspace.Key) ([]any, Route, error) {
	resp, route, err := n.execute(ctx, ExecRequest{Key: key.String(), Op: OpGet})
	if err != nil {
		return nil, route, err
	}
	return resp.Values, route, nil
}

// Update inserts value at the peer responsible for key (paper §2.1:
// Update(key, value)), replacing the stored values it Replaces (see
// Replacer); the responsible peer synchronizes its replicas.
func (n *Node) Update(ctx context.Context, key keyspace.Key, value any) (Route, error) {
	return n.writeOne(ctx, BatchEntry{Key: key.String(), Op: OpInsert, Value: value})
}

// Delete removes value at the peer responsible for key.
func (n *Node) Delete(ctx context.Context, key keyspace.Key, value any) (Route, error) {
	return n.writeOne(ctx, BatchEntry{Key: key.String(), Op: OpDelete, Value: value})
}

// writeOne is a one-entry WriteBatch: the routed probe carries and applies
// the entry, so it costs exactly one routed operation.
func (n *Node) writeOne(ctx context.Context, e BatchEntry) (Route, error) {
	out, err := n.WriteBatch(ctx, []BatchEntry{e})
	if err == nil {
		err = out.Errs[0]
	}
	return out.Route, err
}

// Query ships payload to the peer responsible for key and runs the
// registered application handler there — GridVine's Retrieve(key, q).
func (n *Node) Query(ctx context.Context, key keyspace.Key, payload any) (any, Route, error) {
	resp, route, err := n.execute(ctx, ExecRequest{Key: key.String(), Op: OpQuery, Payload: payload})
	if err != nil {
		return nil, route, err
	}
	return resp.AppResult, route, nil
}

// execute drives iterative routing for a request: the issuer repeatedly
// sends the request to the best-known peer; a non-responsible receiver
// answers with closer references, the responsible receiver answers with the
// result. Failed peers are excluded and routing restarts up to maxRetries
// times (replicas of a failed leaf are reached through sibling references).
// A cancelled or deadline-expired ctx aborts between hops with ctx.Err().
func (n *Node) execute(ctx context.Context, req ExecRequest) (ExecResponse, Route, error) {
	key, err := keyspace.ParseKey(req.Key)
	if err != nil {
		return ExecResponse{}, Route{}, err
	}
	var route Route
	exclude := map[simnet.PeerID]bool{}

	for attempt := 0; attempt <= maxRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return ExecResponse{}, route, err
		}
		if attempt > 0 {
			// Deadline-aware rerouting: a retry round costs at least one more
			// hop, so when the remaining budget cannot cover the observed
			// per-hop latency, fail fast instead of burning the deadline on a
			// doomed pass.
			if err := n.retryBudget(ctx); err != nil {
				return ExecResponse{}, route, err
			}
			route.Retries++
			// Jittered backoff before re-routing: a dead responsible peer's
			// replicas need a beat to show up as the best candidates, and
			// synchronized retry storms from many issuers would hammer the
			// same survivors. Stays inside the retryBudget discipline — the
			// sleep is an order of magnitude below any observable hop.
			if err := n.retryBackoff(ctx, attempt); err != nil {
				return ExecResponse{}, route, err
			}
		}
		resp, ok, err := n.routeOnce(ctx, key, req, exclude, &route)
		if err != nil {
			return ExecResponse{}, route, err
		}
		if ok {
			route.Degraded = len(exclude) > 0 || route.Retries > 0
			return resp, route, nil
		}
	}
	return ExecResponse{}, route, fmt.Errorf("%w: %s (op %s)", ErrNoRoute, req.Key, req.Op)
}

// retryBackoff sleeps an exponentially growing, jittered interval before a
// rerouting round (base 100µs, doubling per attempt, ±50% jitter), honouring
// ctx cancellation. Kept deliberately small: it decorrelates concurrent
// issuers retrying against the same survivors without threatening the
// deadline budget retryBudget already vetted.
func (n *Node) retryBackoff(ctx context.Context, attempt int) error {
	base := 100 * time.Microsecond << (attempt - 1)
	n.rngMu.Lock()
	d := base/2 + time.Duration(n.rng.Int63n(int64(base)))
	n.rngMu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// routeOnce performs one iterative routing pass. It returns ok=false when it
// dead-ends (no live references); newly discovered dead peers are added to
// exclude so the next pass avoids them. A non-nil error is terminal —
// cancellation, never a dead peer.
//
// A pass starts at a co-hosted peer of the key's leaf when there is one
// (see SetCoHosted), else at the learned leaf, so a warm operation costs
// one exchange instead of one per trie level, and in a daemon that exchange
// never leaves the process. Neither hint is trusted: the receiver still
// checks its responsibility. A co-hosted peer that fails is excluded for
// this operation only — it is not suspected, since an in-process delivery
// fails on its handler, not on the network. A learned hint that fails or
// answers "not me" is forgotten. Either way the pass goes on as if the hint
// had not been there.
func (n *Node) routeOnce(ctx context.Context, key keyspace.Key, req ExecRequest, exclude map[simnet.PeerID]bool, route *Route) (ExecResponse, bool, error) {
	// Local fast path.
	if responsible, _ := n.nextHopInfo(key); responsible {
		resp, err := n.handleExec(req)
		if err != nil {
			return ExecResponse{}, false, nil
		}
		return resp, true, nil
	}

	// The learned leaf is looked up only without a co-hosted peer, and the
	// references are worked out only when there is no hint, or once it has
	// let the pass down.
	var hint simnet.PeerID
	var hintPath string
	remote := func() []simnet.PeerID {
		if hint, hintPath = n.learnedHop(req.Key, exclude); hint != "" {
			return []simnet.PeerID{hint}
		}
		return n.candidateHops(key, exclude)
	}
	var candidates []simnet.PeerID
	co := n.coHostedHop(req.Key, exclude)
	if co != "" {
		candidates = []simnet.PeerID{co}
	} else {
		candidates = remote()
	}
	if (co != "" || hint != "") && route.Messages == 0 {
		route.Shortcut = true
	}
	visited := map[simnet.PeerID]bool{n.id: true}

	for len(candidates) > 0 {
		if err := ctx.Err(); err != nil {
			return ExecResponse{}, false, err
		}
		next := candidates[0]
		candidates = candidates[1:]
		if visited[next] || exclude[next] {
			continue
		}
		visited[next] = true

		route.Messages++
		sendStart := time.Now()
		msg, err := n.net.Send(ctx, n.id, next, simnet.Message{Payload: req})
		if err == nil {
			n.observeHopLatency(time.Since(sendStart))
		}
		if err != nil {
			// Cancellation is not a dead peer: abort instead of rerouting.
			if cerr := ctx.Err(); cerr != nil {
				return ExecResponse{}, false, cerr
			}
			exclude[next] = true
			switch next {
			case co:
				candidates = remote()
			case hint:
				n.markSuspect(next)
				n.leaves.forget(hintPath, hint)
				candidates = n.candidateHops(key, exclude)
			default:
				n.markSuspect(next)
			}
			continue
		}
		n.clearSuspect(next)
		route.Contacted = append(route.Contacted, next)
		resp, ok := msg.Payload.(ExecResponse)
		if !ok {
			return ExecResponse{}, false, nil
		}
		if resp.Responsible {
			if next != co {
				n.leaves.learn(req.Key, resp.Path, next)
			}
			return resp, true, nil
		}
		switch next {
		case co:
			// The co-hosted peer's leaf split or moved: its references lead
			// on, then the learned leaf or the issuer's own references.
			candidates = remote()
		case hint:
			// The learned leaf split or moved: the receiver's references
			// lead on, then the issuer's own.
			n.leaves.forget(hintPath, hint)
			candidates = n.candidateHops(key, exclude)
		}
		// Prepend the receiver's references: they are strictly closer.
		closer := make([]simnet.PeerID, 0, len(resp.NextHops)+len(candidates))
		for _, h := range resp.NextHops {
			if !visited[h] && !exclude[h] {
				closer = append(closer, h)
			}
		}
		candidates = append(closer, candidates...)
	}
	return ExecResponse{}, false, nil
}

// coHosted is a node's table of the leaves its co-hosted peers serve: leaf
// path → the first co-hosted peer on it. It is built once and never
// changed, so routing reads it without a lock.
type coHosted struct {
	peers map[string]simnet.PeerID
	depth int // the longest path: lookups probe no deeper
}

// SetCoHosted tells the node which peers share its process, so routing
// tries one of them first for any key under their leaves (proximity
// routing: a replica in the same process answers without a network
// exchange). Where several serve one leaf, the first in peers is kept.
// The table takes the peers' paths as they are now and is replaced whole
// by the next call; it is meant to be set once, when every peer in it is
// reachable. The node itself and peers on its own leaf are left out: the
// node answers for those keys itself.
func (n *Node) SetCoHosted(peers []*Node) {
	own := n.Path().String()
	t := &coHosted{peers: make(map[string]simnet.PeerID, len(peers))}
	for _, p := range peers {
		path := p.Path().String()
		if _, dup := t.peers[path]; dup || p == n || path == "" || path == own {
			continue
		}
		t.peers[path] = p.ID()
		t.depth = max(t.depth, len(path))
	}
	n.cohosted.Store(t)
}

// coHostedHop returns the co-hosted peer for the deepest leaf on key's path
// unless this operation has excluded it; "" when there is none. Suspicion
// does not count: a co-hosted peer is tried on every operation.
func (n *Node) coHostedHop(key string, exclude map[simnet.PeerID]bool) simnet.PeerID {
	t := n.cohosted.Load()
	if t == nil {
		return ""
	}
	for l := min(t.depth, len(key)); l > 0; l-- {
		if p, ok := t.peers[key[:l]]; ok && !exclude[p] {
			return p
		}
	}
	return ""
}

// leafCache remembers, per trie leaf a node has reached, the peer that last
// answered for it as responsible: a one-hop hint for the next operation on
// a key under that leaf (one-hop lookups, Gupta, Liskov & Rodrigues,
// HotOS 2003). It holds at most learnedLeafCap leaves and forgets the
// first-learned first, so what it holds depends only on the sequence of
// answers. A forgotten leaf keeps its slot with no peer until it is
// learned again or evicted.
type leafCache struct {
	mu    sync.Mutex
	peers map[string]simnet.PeerID // leaf path → last responsible peer; "" once forgotten
	order []string                 // leaf paths in first-learned order, a ring once full
	next  int                      // the ring's oldest slot
	depth int                      // the longest path learned: lookups probe no deeper
}

// learn records peer as the last one to answer for the leaf at path, on a
// route to key. An answer is input from another peer, so only a non-empty
// path that prefixes the routed key is learned: a bogus short path must not
// capture every route.
func (c *leafCache) learn(key, path string, peer simnet.PeerID) {
	if path == "" || !strings.HasPrefix(key, path) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old, known := c.peers[path]
	if known && old == peer {
		return
	}
	if !known {
		// A decoded answer's strings alias its frame; a kept one must not.
		path = strings.Clone(path)
		if c.peers == nil {
			c.peers = make(map[string]simnet.PeerID)
		}
		if len(c.order) < learnedLeafCap {
			c.order = append(c.order, path)
		} else {
			delete(c.peers, c.order[c.next])
			c.order[c.next] = path
			c.next = (c.next + 1) % learnedLeafCap
		}
		c.depth = max(c.depth, len(path))
	}
	c.peers[path] = simnet.PeerID(strings.Clone(string(peer)))
}

// forget drops peer as the hint for the leaf at path, unless another peer
// has answered for it since.
func (c *leafCache) forget(path string, peer simnet.PeerID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.peers[path] == peer {
		c.peers[path] = ""
	}
}

// learnedHop returns the peer learned for the deepest leaf on key's path
// that is neither excluded nor suspected, and that leaf's path; "" when
// there is none. It probes key's prefixes as substrings, so a lookup
// allocates nothing.
func (n *Node) learnedHop(key string, exclude map[simnet.PeerID]bool) (simnet.PeerID, string) {
	c := &n.leaves
	c.mu.Lock()
	defer c.mu.Unlock()
	for l := min(c.depth, len(key)); l > 0; l-- {
		if p := c.peers[key[:l]]; p != "" && !exclude[p] && !n.Suspected(p) {
			return p, key[:l]
		}
	}
	return "", ""
}

// observeHopLatency folds one successful request/response round-trip into
// the node's per-hop latency floor: the minimum observed round-trip. The
// floor is deliberately conservative — individual round-trips include
// server-side work and payload transfer, so averaging them would let one
// large-answer exchange inflate the estimate and spuriously abort
// affordable retries; the minimum tracks what the cheapest possible next
// hop costs.
func (n *Node) observeHopLatency(d time.Duration) {
	if d <= 0 {
		return
	}
	n.latMu.Lock()
	if n.hopLat == 0 || d < n.hopLat {
		n.hopLat = d
	}
	n.latMu.Unlock()
}

// HopLatencyEstimate returns the node's per-hop latency floor (zero until
// a hop has been observed): the minimum request/response round-trip seen.
func (n *Node) HopLatencyEstimate() time.Duration {
	n.latMu.Lock()
	defer n.latMu.Unlock()
	return n.hopLat
}

// retryBudget reports ErrRetryBudget when ctx carries a deadline whose
// remaining budget is below the observed per-hop latency. Without a
// deadline, or before any hop has been measured, retries proceed.
func (n *Node) retryBudget(ctx context.Context) error {
	deadline, ok := ctx.Deadline()
	if !ok {
		return nil
	}
	est := n.HopLatencyEstimate()
	if est == 0 {
		return nil
	}
	if remaining := time.Until(deadline); remaining < est {
		return fmt.Errorf("%w (%v left, ~%v/hop)", ErrRetryBudget, remaining.Round(time.Microsecond), est.Round(time.Microsecond))
	}
	return nil
}

// candidateHops returns this node's references ordered best-first for key:
// deepest matching level first, shuffled within a level for load spreading.
// Suspected peers sort behind trusted ones at every position — they are not
// excluded (suspicion is a guess and the peer may have recovered), but a
// lookup only pays a round-trip to one after the live candidates dead-end.
func (n *Node) candidateHops(key keyspace.Key, exclude map[simnet.PeerID]bool) []simnet.PeerID {
	n.mu.RLock()
	level := n.path.CommonPrefixLen(key)
	refs := make([]simnet.PeerID, 0, len(n.refs[level]))
	for _, p := range n.refs[level] {
		if !exclude[p] {
			refs = append(refs, p)
		}
	}
	// Fallback: shallower levels (useful when the exact level is empty after
	// failures — any peer on the other side of an earlier bit can still make
	// progress, just more slowly).
	var fallback []simnet.PeerID
	for l := level - 1; l >= 0; l-- {
		for _, p := range n.refs[l] {
			if !exclude[p] {
				fallback = append(fallback, p)
			}
		}
	}
	n.mu.RUnlock()
	n.rngMu.Lock()
	n.rng.Shuffle(len(refs), func(i, j int) { refs[i], refs[j] = refs[j], refs[i] })
	n.rngMu.Unlock()
	all := append(refs, fallback...)
	trusted := make([]simnet.PeerID, 0, len(all))
	var suspected []simnet.PeerID
	for _, p := range all {
		if n.Suspected(p) {
			suspected = append(suspected, p)
		} else {
			trusted = append(trusted, p)
		}
	}
	return append(trusted, suspected...)
}

// handleExec processes an ExecRequest at this node.
func (n *Node) handleExec(req ExecRequest) (ExecResponse, error) {
	key, err := keyspace.ParseKey(req.Key)
	if err != nil {
		return ExecResponse{}, err
	}
	responsible, hops := n.nextHopInfo(key)
	if !responsible {
		return ExecResponse{NextHops: hops}, nil
	}

	resp := ExecResponse{Responsible: true, Path: n.Path().String()}
	switch req.Op {
	case OpGet:
		resp.Values = n.Values(key)
	case OpProbe:
		// The response's Path is the answer. A probe piggybacking the head
		// entry of a batched write additionally applies (and replicates) it
		// on the spot, so a single-entry run costs exactly one routed
		// operation.
		if e, ok := req.Payload.(BatchEntry); ok {
			resp.AppResult = BatchResult{Applied: n.applyBatch([]BatchEntry{e}, true)}
		}
	case OpQuery:
		n.mu.RLock()
		h := n.handler
		n.mu.RUnlock()
		if h == nil {
			return ExecResponse{}, fmt.Errorf("pgrid: node %s has no query handler", n.id)
		}
		result, err := h(key, req.Payload)
		if err != nil {
			return ExecResponse{}, err
		}
		resp.AppResult = result
	default:
		return ExecResponse{}, fmt.Errorf("pgrid: unknown op %v", req.Op)
	}
	return resp, nil
}
