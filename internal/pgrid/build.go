package pgrid

import (
	"fmt"
	"math/rand"
	"sort"

	"gridvine/internal/keyspace"
	"gridvine/internal/simnet"
)

// BuildOptions parameterizes static overlay construction.
type BuildOptions struct {
	// Peers is the number of nodes to create. Required.
	Peers int
	// ReplicaFactor is the target number of peers per leaf path (≥1).
	// Default 2: the paper's P-Grid deployment replicates each path for
	// fault tolerance and churn resilience.
	ReplicaFactor int
	// SampleKeys, when non-empty, drives data-adaptive (unbalanced) trie
	// construction: leaves are split where the sample is dense, modelling
	// P-Grid's storage load balancing under the order-preserving hash.
	// When empty, a balanced trie is built.
	SampleKeys []keyspace.Key
	// Rng drives randomized assignment; required.
	Rng *rand.Rand
}

// Overlay is a handle on a set of nodes forming one P-Grid network, used by
// tests, experiments and the public API. The nodes communicate exclusively
// through their transport; Overlay itself is bookkeeping.
type Overlay struct {
	nodes  []*Node
	byID   map[simnet.PeerID]*Node
	byPath map[string][]*Node
}

// Build constructs a static P-Grid overlay on the given network: it chooses
// leaf paths (balanced, or adapted to SampleKeys), assigns ReplicaFactor
// peers per leaf, wires complete routing tables and replica sets, and
// registers every node on the network.
func Build(net simnet.Registrar, opts BuildOptions) (*Overlay, error) {
	if opts.Peers <= 0 {
		return nil, fmt.Errorf("pgrid: Peers must be positive, got %d", opts.Peers)
	}
	if opts.ReplicaFactor <= 0 {
		opts.ReplicaFactor = 2
	}
	if opts.Rng == nil {
		return nil, fmt.Errorf("pgrid: Rng is required")
	}

	leaves := opts.Peers / opts.ReplicaFactor
	if leaves < 1 {
		leaves = 1
	}
	var paths []keyspace.Key
	var weights []int
	if len(opts.SampleKeys) > 0 {
		paths, weights = adaptivePaths(opts.SampleKeys, opts.Peers, opts.ReplicaFactor)
	} else {
		paths = balancedPaths(leaves)
	}

	ov := &Overlay{byID: make(map[simnet.PeerID]*Node), byPath: make(map[string][]*Node)}

	// Peer-to-leaf assignment: proportional to sample load when available
	// (every leaf gets at least one peer; dense leaves get replica sets —
	// P-Grid's replication-driven load balancing), round-robin otherwise.
	counts := assignPeerCounts(opts.Peers, len(paths), weights)
	i := 0
	for leafIdx, path := range paths {
		for c := 0; c < counts[leafIdx]; c++ {
			id := simnet.PeerID(fmt.Sprintf("peer-%03d", i))
			i++
			node := NewNode(id, path, net, Config{Seed: opts.Rng.Int63()})
			ov.nodes = append(ov.nodes, node)
			ov.byID[id] = node
			ov.byPath[path.String()] = append(ov.byPath[path.String()], node)
			net.Register(id, node)
		}
	}

	ov.wire(opts.Rng)
	return ov, nil
}

// wire fills routing tables and replica sets from global knowledge. A
// prefix index keeps construction near-linear so experiment-scale overlays
// (thousands of peers) build quickly.
func (ov *Overlay) wire(rng *rand.Rand) {
	// byPrefix[p] lists the nodes whose path starts with p (including p
	// itself). Total index size is Σ depth(node).
	byPrefix := map[string][]*Node{}
	for _, n := range ov.nodes {
		path := n.Path().String()
		for l := 0; l <= len(path); l++ {
			byPrefix[path[:l]] = append(byPrefix[path[:l]], n)
		}
	}
	for _, n := range ov.nodes {
		// Replicas: same path.
		for _, sib := range ov.byPath[n.Path().String()] {
			if sib.ID() != n.ID() {
				n.AddReplica(sib.ID())
			}
		}
		// Refs: for each level l of the path, peers whose path lies in the
		// complementary subtree (prefix = path[:l] + ¬path[l]). Nodes whose
		// own path is shorter than the complement prefix also qualify when
		// it extends their path (possible in unbalanced tries).
		path := n.Path()
		for l := 0; l < path.Len(); l++ {
			complement := path.Prefix(l).Append(1 - path.Bit(l))
			pool := byPrefix[complement.String()]
			if len(pool) == 0 {
				// Unbalanced trie: the complement subtree may be covered by a
				// node with a shorter path.
				for cut := complement.Len() - 1; cut >= 0 && len(pool) == 0; cut-- {
					pool = ov.byPath[complement.Prefix(cut).String()]
				}
			}
			// Sample refsPerLevel distinct references from the pool.
			picked := map[simnet.PeerID]bool{n.ID(): true}
			added := 0
			for attempt := 0; attempt < 8*refsPerLevel && added < refsPerLevel && added < len(pool); attempt++ {
				cand := pool[rng.Intn(len(pool))]
				if picked[cand.ID()] {
					continue
				}
				picked[cand.ID()] = true
				n.AddRef(l, cand.ID())
				added++
			}
			if added == 0 {
				// Tiny pools: deterministic fill.
				for _, cand := range pool {
					if !picked[cand.ID()] {
						n.AddRef(l, cand.ID())
						added++
						if added >= refsPerLevel {
							break
						}
					}
				}
			}
		}
	}
}

// balancedPaths returns a complete prefix-free partition of the key space
// into exactly the requested number of leaves, with depths differing by at
// most one. It starts from the root and repeatedly splits a shallowest
// leaf, which preserves completeness at every step.
func balancedPaths(leaves int) []keyspace.Key {
	paths := []keyspace.Key{{}}
	for len(paths) < leaves {
		// Split the first shallowest leaf.
		best := 0
		for i, p := range paths {
			if p.Len() < paths[best].Len() {
				best = i
			}
		}
		target := paths[best]
		paths = append(paths[:best], paths[best+1:]...)
		paths = append(paths, target.Append(0), target.Append(1))
	}
	sort.Slice(paths, func(i, j int) bool { return paths[i].Compare(paths[j]) < 0 })
	return paths
}

// adaptivePaths splits the trie where the key sample is dense, producing an
// unbalanced partition with roughly equal storage load per peer. This
// mirrors P-Grid's storage load balancing: realistic data keyed by the
// order-preserving hash shares long prefixes (URIs, accessions), so the
// dense key-space region must be split far deeper than a balanced trie
// would — which necessarily peels off empty sibling leaves along the shared
// prefix. Splitting continues while the peer budget allows: every leaf
// (empty ones included, for key-space coverage) needs at least one peer,
// and each loaded leaf should end up with about replicaFactor peers.
//
// It returns the leaf paths in key order together with each leaf's sample
// load (the weight used for proportional peer assignment).
//
// Each leaf carries its subset of the sample, so every split is O(subset)
// and the whole construction is O(|sample| · depth).
func adaptivePaths(sample []keyspace.Key, peers, replicaFactor int) ([]keyspace.Key, []int) {
	type leaf struct {
		path keyspace.Key
		keys []keyspace.Key
	}
	parts := []leaf{{path: keyspace.Key{}, keys: sample}}
	maxDepth := keyspace.DefaultDepth - 1
	for len(parts) < peers {
		empty := 0
		for _, p := range parts {
			if len(p.keys) == 0 {
				empty++
			}
		}
		loaded := len(parts) - empty
		targetLoaded := (peers - empty) / replicaFactor
		if targetLoaded < 1 {
			targetLoaded = 1
		}
		if loaded >= targetLoaded {
			break
		}
		// Split the most loaded splittable leaf. A leaf whose sample keys
		// are all identical cannot be split usefully (identical keys stay
		// on one side at every depth).
		best := -1
		for i, p := range parts {
			if p.path.Len() >= maxDepth || len(p.keys) < 2 || allEqualKeys(p.keys) {
				continue
			}
			if best == -1 || len(p.keys) > len(parts[best].keys) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		target := parts[best]
		bit := target.path.Len()
		var zero, one []keyspace.Key
		for _, k := range target.keys {
			if k.Len() <= bit || k.Bit(bit) == 0 {
				zero = append(zero, k)
			} else {
				one = append(one, k)
			}
		}
		parts = append(parts[:best], parts[best+1:]...)
		parts = append(parts,
			leaf{path: target.path.Append(0), keys: zero},
			leaf{path: target.path.Append(1), keys: one})
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].path.Compare(parts[j].path) < 0 })
	paths := make([]keyspace.Key, len(parts))
	weights := make([]int, len(parts))
	for i, p := range parts {
		paths[i] = p.path
		weights[i] = len(p.keys)
	}
	return paths, weights
}

func allEqualKeys(keys []keyspace.Key) bool {
	for _, k := range keys[1:] {
		if !k.Equal(keys[0]) {
			return false
		}
	}
	return true
}

// assignPeerCounts distributes peers over leaves: at least one peer per
// leaf, the remainder proportional to the leaf weights (largest-remainder
// rounding). With nil weights the distribution is as even as possible.
func assignPeerCounts(peers, leaves int, weights []int) []int {
	counts := make([]int, leaves)
	for i := range counts {
		counts[i] = 1
	}
	extra := peers - leaves
	if extra <= 0 {
		// More leaves than peers cannot happen (builders bound splits), but
		// guard by truncating: the first peers leaves get one peer each.
		return counts
	}
	totalWeight := 0
	for _, w := range weights {
		totalWeight += w
	}
	if len(weights) != leaves || totalWeight == 0 {
		// Even spread.
		for i := 0; i < extra; i++ {
			counts[i%leaves]++
		}
		return counts
	}
	type slot struct {
		idx  int
		frac float64
	}
	assigned := 0
	slots := make([]slot, leaves)
	for i, w := range weights {
		share := float64(extra) * float64(w) / float64(totalWeight)
		whole := int(share)
		counts[i] += whole
		assigned += whole
		slots[i] = slot{idx: i, frac: share - float64(whole)}
	}
	sort.Slice(slots, func(a, b int) bool {
		if slots[a].frac != slots[b].frac {
			return slots[a].frac > slots[b].frac
		}
		return slots[a].idx < slots[b].idx
	})
	for i := 0; i < extra-assigned; i++ {
		counts[slots[i%leaves].idx]++
	}
	return counts
}

// Nodes returns the overlay's nodes in creation order.
func (ov *Overlay) Nodes() []*Node { return ov.nodes }

// Node returns the node with the given id, or nil.
func (ov *Overlay) Node(id simnet.PeerID) *Node { return ov.byID[id] }

// RandomNode picks a uniformly random node.
func (ov *Overlay) RandomNode(rng *rand.Rand) *Node {
	return ov.nodes[rng.Intn(len(ov.nodes))]
}

// Paths returns the distinct leaf paths in key order.
func (ov *Overlay) Paths() []keyspace.Key {
	seen := map[string]bool{}
	var out []keyspace.Key
	for _, n := range ov.nodes {
		p := n.Path()
		if !seen[p.String()] {
			seen[p.String()] = true
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// CheckCoverage verifies the structural invariant of a P-Grid trie: the set
// of leaf paths is prefix-free and covers the whole key space exactly.
func (ov *Overlay) CheckCoverage() error {
	paths := ov.Paths()
	if len(paths) == 0 {
		return fmt.Errorf("pgrid: no paths")
	}
	maxDepth := 0
	for _, p := range paths {
		if p.Len() > maxDepth {
			maxDepth = p.Len()
		}
	}
	for i := range paths {
		for j := range paths {
			if i != j && paths[i].IsPrefixOf(paths[j]) {
				return fmt.Errorf("pgrid: path %q is a prefix of %q", paths[i], paths[j])
			}
		}
	}
	// Complete cover: Σ 2^(maxDepth − len(p)) == 2^maxDepth.
	var total uint64
	for _, p := range paths {
		total += 1 << uint(maxDepth-p.Len())
	}
	if total != 1<<uint(maxDepth) {
		return fmt.Errorf("pgrid: paths cover %d/%d of the key space at depth %d", total, uint64(1)<<uint(maxDepth), maxDepth)
	}
	return nil
}

// MaxPathDepth returns the deepest leaf path length.
func (ov *Overlay) MaxPathDepth() int {
	d := 0
	for _, n := range ov.nodes {
		if l := n.Path().Len(); l > d {
			d = l
		}
	}
	return d
}
