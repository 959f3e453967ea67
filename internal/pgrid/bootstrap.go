package pgrid

import (
	"fmt"
	"math/rand"

	"gridvine/internal/keyspace"
	"gridvine/internal/simnet"
	"gridvine/internal/triple"
)

// BootstrapOptions parameterizes the self-organizing construction of the
// overlay by repeated pairwise peer exchanges (Aberer's P-Grid construction
// algorithm): peers start with empty paths and, meeting at random,
// progressively specialize into complementary subtrees, exchange data so
// each holds only the items matching its path, and record references to the
// complementary side at the split level. Peers meeting with identical paths
// at MaxDepth become mutual replicas.
type BootstrapOptions struct {
	Peers int
	// MaxDepth bounds trie depth; peers meeting at MaxDepth with the same
	// path become replicas rather than splitting further. Choose
	// ≈ log2(Peers / replicaTarget).
	MaxDepth int
	// Meetings is the number of random pairwise exchanges to run.
	// Convergence needs O(Peers · MaxDepth · c); default 60·Peers.
	Meetings int
	Rng      *rand.Rand
}

// Bootstrap builds an overlay through randomized pairwise exchanges.
// Unlike Build, the resulting trie shape is emergent: the test suite checks
// the structural invariants (prefix-free cover, routability) rather than an
// exact shape.
func Bootstrap(net simnet.Registrar, opts BootstrapOptions) (*Overlay, error) {
	if opts.Peers < 2 {
		return nil, fmt.Errorf("pgrid: Bootstrap needs ≥2 peers, got %d", opts.Peers)
	}
	if opts.Rng == nil {
		return nil, fmt.Errorf("pgrid: Rng is required")
	}
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = log2ceil(opts.Peers / 2)
	}
	if opts.Meetings <= 0 {
		opts.Meetings = 60 * opts.Peers
	}

	ov := &Overlay{byID: make(map[simnet.PeerID]*Node), byPath: make(map[string][]*Node)}
	for i := 0; i < opts.Peers; i++ {
		id := simnet.PeerID(fmt.Sprintf("peer-%03d", i))
		node := NewNode(id, keyspace.Key{}, net, Config{Seed: opts.Rng.Int63()})
		ov.nodes = append(ov.nodes, node)
		ov.byID[id] = node
		net.Register(id, node)
	}

	for m := 0; m < opts.Meetings; m++ {
		a := ov.nodes[opts.Rng.Intn(len(ov.nodes))]
		b := ov.nodes[opts.Rng.Intn(len(ov.nodes))]
		if a == b {
			continue
		}
		meet(a, b, opts.MaxDepth)
	}

	ov.reindexPaths()
	return ov, nil
}

// meet performs one pairwise exchange between two peers (construction time:
// the algorithm runs where both peer states are reachable, mirroring the
// original protocol's exchange messages).
func meet(a, b *Node, maxDepth int) {
	// Lock in a global order to stay deadlock-free under concurrent meets.
	first, second := a, b
	if second.id < first.id {
		first, second = second, first
	}
	first.mu.Lock()
	defer first.mu.Unlock()
	second.mu.Lock()
	defer second.mu.Unlock()

	pa, pb := a.path, b.path
	l := pa.CommonPrefixLen(pb)

	switch {
	case l == pa.Len() && l == pb.Len():
		// Identical paths.
		if l >= maxDepth {
			// Become replicas and synchronize stores.
			addReplicaLocked(a, b.id)
			addReplicaLocked(b, a.id)
			syncStoresLocked(a, b)
			return
		}
		// Split: a takes 0, b takes 1; each references the other at the new
		// level and hands over the items that now belong to the other side.
		a.path = pa.Append(0)
		b.path = pb.Append(1)
		a.addRefLocked(l, b.id)
		b.addRefLocked(l, a.id)
		exchangeOnSplitLocked(a, b)
		// Exchange some references to seed routing at lower levels.
		crossPollinateRefsLocked(a, b, l)

	case l == pa.Len(): // π(a) is a proper prefix of π(b): a specializes.
		// a takes the branch complementary to b's next bit, so the pair
		// covers b's sibling subtree; both gain a reference at level l.
		a.path = pa.Append(1 - pb.Bit(l))
		a.addRefLocked(l, b.id)
		b.addRefLocked(l, a.id)
		exchangeOnSplitLocked(a, b)
		crossPollinateRefsLocked(a, b, l)

	case l == pb.Len(): // symmetric case.
		b.path = pb.Append(1 - pa.Bit(l))
		a.addRefLocked(l, b.id)
		b.addRefLocked(l, a.id)
		exchangeOnSplitLocked(a, b)
		crossPollinateRefsLocked(a, b, l)

	default:
		// Paths diverge at level l < both lengths: reference exchange, plus
		// relocation of any items a previous split left misplaced.
		a.addRefLocked(l, b.id)
		b.addRefLocked(l, a.id)
		exchangeOnSplitLocked(a, b)
		crossPollinateRefsLocked(a, b, l)
	}
}

// exchangeOnSplitLocked moves items to whichever of the two peers now
// matches their keys; items matching neither stay put (they will migrate on
// later meetings). A triple moves when one of its keys does, and leaves
// from only when from's path covers none of its keys and to's covers one.
// Callers hold both locks.
func exchangeOnSplitLocked(a, b *Node) {
	moveMatching := func(from, to *Node) {
		for k, vs := range from.store {
			key, err := keyspace.ParseKey(k)
			if err != nil {
				continue
			}
			if !from.path.IsPrefixOf(key) && to.path.IsPrefixOf(key) {
				for _, v := range vs {
					appendUniqueLocked(to, k, v)
				}
				delete(from.store, k)
			}
		}
		var moved, gone []triple.Triple
		for _, t := range from.db.All() {
			stays, moves := false, false
			for _, s := range [3]string{t.Subject, t.Predicate, t.Object} {
				k := keyspace.HashDefault(s).String()
				stays = stays || from.covers(k)
				moves = moves || to.covers(k)
			}
			if moves {
				moved = append(moved, t)
				if !stays {
					gone = append(gone, t)
				}
			}
		}
		to.db.InsertBatch(moved)
		for _, t := range gone {
			from.db.Delete(t)
		}
	}
	moveMatching(a, b)
	moveMatching(b, a)
}

// crossPollinateRefsLocked lets both peers copy a few of each other's
// references at levels shallower than the meeting level, accelerating
// routing-table completion. Callers hold both locks.
func crossPollinateRefsLocked(a, b *Node, level int) {
	for lv := 0; lv < level; lv++ {
		for _, r := range b.refs[lv] {
			a.addRefLocked(lv, r)
		}
		for _, r := range a.refs[lv] {
			b.addRefLocked(lv, r)
		}
	}
}

func addReplicaLocked(n *Node, peer simnet.PeerID) {
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

func syncStoresLocked(a, b *Node) {
	for k, vs := range a.store {
		for _, v := range vs {
			appendUniqueLocked(b, k, v)
		}
	}
	for k, vs := range b.store {
		for _, v := range vs {
			appendUniqueLocked(a, k, v)
		}
	}
	ta := a.db.All()
	a.db.InsertBatch(b.db.All())
	b.db.InsertBatch(ta)
}

func appendUniqueLocked(n *Node, key string, value any) {
	same := sameAs(value)
	for _, v := range n.store[key] {
		if same.is(v) {
			return
		}
	}
	n.store[key] = append(n.store[key], value)
}

// reindexPaths rebuilds the byPath index after paths changed.
func (ov *Overlay) reindexPaths() {
	ov.byPath = make(map[string][]*Node)
	for _, n := range ov.nodes {
		p := n.Path().String()
		ov.byPath[p] = append(ov.byPath[p], n)
	}
}

// Join adds a new peer to a built overlay: it adopts the leaf of an existing
// bootstrap peer, either splitting the leaf (if the trie may deepen) or
// joining its replica set, then copies the relevant data and references.
// maxDepth bounds trie growth.
func (ov *Overlay) Join(net simnet.Registrar, id simnet.PeerID, bootstrap *Node, maxDepth int, rng *rand.Rand) (*Node, error) {
	if _, exists := ov.byID[id]; exists {
		return nil, fmt.Errorf("pgrid: peer %s already in overlay", id)
	}
	node := NewNode(id, keyspace.Key{}, net, Config{Seed: rng.Int63()})
	net.Register(id, node)

	meet(node, bootstrap, maxDepth)
	// A few more meetings with random peers complete the routing table.
	for i := 0; i < 4*maxDepth && len(ov.nodes) > 0; i++ {
		meet(node, ov.nodes[rng.Intn(len(ov.nodes))], maxDepth)
	}

	ov.nodes = append(ov.nodes, node)
	ov.byID[id] = node
	ov.reindexPaths()
	return node, nil
}

func log2ceil(n int) int {
	d := 0
	for 1<<d < n {
		d++
	}
	if d == 0 {
		d = 1
	}
	return d
}
