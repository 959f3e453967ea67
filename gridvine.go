// Package gridvine is a Go implementation of the GridVine peer data
// management system (Aberer et al., ISWC 2004; Cudré-Mauroux et al., VLDB
// 2007): a semantic mediation layer — RDF-style triples, user-defined
// schemas, pairwise schema mappings, query reformulation, and
// self-organizing mapping maintenance — built on the P-Grid structured
// overlay, a distributed binary search trie with prefix routing,
// replication and an order-preserving hash supporting range queries.
//
// The package is a facade over the internal layers. A minimal session:
//
//	net, _ := gridvine.NewNetwork(gridvine.Options{Peers: 16, Seed: 1})
//	batch := &gridvine.Batch{}
//	batch.InsertTriple(gridvine.Triple{
//		Subject: "acc:P1", Predicate: "EMBL#Organism", Object: "Aspergillus niger"})
//	net.Peer(0).Write(ctx, batch)
//	q := gridvine.Pattern{
//		S: gridvine.Var("x"), P: gridvine.Const("EMBL#Organism"), O: gridvine.Like("%Aspergillus%")}
//	rs, _ := gridvine.CollectPattern(ctx, net.Peer(3), gridvine.Request{Pattern: &q})
//
// Peer.Run pushes a query's rows to a callback on the caller's goroutine as
// the engine produces them; Peer.Query returns a Cursor that pulls them at
// the consumer's pace; the Collect helpers return the whole answer.
//
// See the Examples (checked by go test) for walk-throughs and DESIGN.md for the architecture.
package gridvine

import (
	"fmt"
	"math/rand"
	"sort"

	"gridvine/internal/mediation"
	"gridvine/internal/pgrid"
	"gridvine/internal/rdql"
	"gridvine/internal/schema"
	"gridvine/internal/selforg"
	"gridvine/internal/simnet"
	"gridvine/internal/tcpnet"
	"gridvine/internal/triple"
)

// Core data-model types, re-exported for a one-import experience.
type (
	// Triple is one statement {subject, predicate, object}.
	Triple = triple.Triple
	// Pattern is a triple pattern (s, p, o) with constants, variables and
	// LIKE terms.
	Pattern = triple.Pattern
	// Term is one slot of a Pattern.
	Term = triple.Term
	// Bindings maps query variables to matched values.
	Bindings = triple.Bindings
	// BindingSet is the flattened binding representation (variable schema
	// plus tuple rows) the conjunctive query engine joins over.
	BindingSet = triple.BindingSet
	// ConjunctiveStats reports how a conjunctive query was executed:
	// messages sent, pushdowns, semi-joins, full scans, triples shipped.
	ConjunctiveStats = mediation.ConjunctiveStats
	// Schema is a named set of attributes used as triple predicates.
	Schema = schema.Schema
	// Mapping is a directed pairwise schema mapping.
	Mapping = schema.Mapping
	// Correspondence aligns one source attribute with one target attribute.
	Correspondence = schema.Correspondence
	// SearchOptions tunes reformulating searches.
	SearchOptions = mediation.SearchOptions
	// ResultSet aggregates query answers with provenance.
	ResultSet = mediation.ResultSet
	// Result is one retrieved triple with its reformulation provenance.
	Result = mediation.Result
	// Provenance is how a Result was reached: the (possibly reformulated)
	// pattern that matched, the mapping path and its confidence. The rows
	// of one answer share one.
	Provenance = mediation.Provenance
	// Request unifies the streaming query surface: one triple pattern, a
	// conjunctive pattern set, or an RDQL text query, plus reformulation,
	// a row Limit (top-k) and SearchOptions. Execute with Peer.Run or
	// Peer.Query.
	Request = mediation.Request
	// Cursor yields a streamed query's rows incrementally (Next, Err,
	// Stats, Close) as reformulation waves and join stages complete: a
	// goroutine around Peer.Run.
	Cursor = mediation.Cursor
	// QueryRow is one streamed answer: column values plus, for pattern
	// requests, the matched triple with provenance.
	QueryRow = mediation.QueryRow
	// QueryStats reports a streamed query's execution: rows, messages,
	// time-to-first-row, and the conjunctive planner statistics.
	QueryStats = mediation.QueryStats
	// Batch collects mutations — triple inserts/deletes, schema and mapping
	// publishes — for one Peer.Write: the bulk-ingest counterpart of the
	// streaming Request.
	Batch = mediation.Batch
	// Receipt reports how a Write resolved: per-entry applied/failed/skipped
	// states, the routed group count, and the overlay message cost.
	Receipt = mediation.Receipt
	// EntryStatus is one batch entry's outcome within a Receipt.
	EntryStatus = mediation.EntryStatus
	// EntryState is the terminal state of one batch entry (EntryApplied,
	// EntryFailed, EntrySkipped).
	EntryState = mediation.EntryState
	// ConnectivityReport is the domain registry's connectivity answer.
	ConnectivityReport = mediation.ConnectivityReport
	// RoundReport summarizes one self-organization round.
	RoundReport = selforg.RoundReport
	// Peer is one GridVine participant. Its query entry point is
	// Run(ctx, Request, emit), which runs the engine on the caller's
	// goroutine and pushes rows to emit a chunk at a time, honouring
	// cancellation, deadlines and Limit; Query(ctx, Request) wraps Run in a
	// goroutine and returns a Cursor to pull rows from, and CollectPattern,
	// CollectSet and CollectRows return the whole answer. Its mutation entry
	// point is Write(ctx, Batch), which plans a mixed batch by responsible
	// key and ships one grouped message per destination; the …Context
	// methods (InsertTripleContext, InsertMappingContext, …) are one-entry
	// batches over it.
	Peer = mediation.Peer
)

// Term constructors.
var (
	// Const builds a constant term.
	Const = triple.Const
	// Var builds a variable term.
	Var = triple.Var
	// Like builds a LIKE term with % wildcards.
	Like = triple.LikeTerm
)

// Whole-answer helpers: each runs a request on a peer through Peer.Run and
// returns the aggregate answer (sorted, deduplicated).
var (
	// CollectPattern runs a pattern request into a ResultSet.
	CollectPattern = mediation.CollectPattern
	// CollectSet runs a conjunctive request into a BindingSet plus the
	// planner's execution statistics.
	CollectSet = mediation.CollectSet
	// CollectRows runs an RDQL request into projected rows plus the
	// planner's execution statistics.
	CollectRows = mediation.CollectRows
)

// Receipt entry states.
const (
	// EntryApplied marks a batch entry all of whose key-writes reached
	// their responsible peers.
	EntryApplied = mediation.EntryApplied
	// EntryFailed marks an entry that could not be routed or delivered.
	EntryFailed = mediation.EntryFailed
	// EntrySkipped marks an entry never (fully) attempted before the write
	// was cancelled.
	EntrySkipped = mediation.EntrySkipped
)

// DefaultParallelism reports the reformulation fan-out width used when
// SearchOptions.Parallelism is zero: reformulated patterns are resolved
// over the overlay by a bounded worker pool of this size. To override it,
// set SearchOptions.Parallelism per query — 1 gives fully serial,
// per-seed-reproducible message accounting (result sets are deterministic
// at any width).
func DefaultParallelism() int { return mediation.DefaultParallelism }

// Mapping helpers.

// NewSchema builds a schema from a name, domain and attributes.
func NewSchema(name, domain string, attributes ...string) Schema {
	return schema.NewSchema(name, domain, attributes...)
}

// NewManualMapping builds a trusted bidirectional equivalence mapping from
// attribute pairs (source attribute → target attribute).
func NewManualMapping(source, target string, attrPairs map[string]string) Mapping {
	m := schema.NewMapping(source, target, schema.Equivalence, schema.Manual,
		sortedCorrespondences(attrPairs, 1))
	m.Bidirectional = true
	return m
}

// NewAutomaticMapping builds a bidirectional equivalence mapping of
// automatic origin with the given confidence — the kind the self-organizing
// matcher produces, subject to Bayesian assessment and deprecation.
func NewAutomaticMapping(source, target string, attrPairs map[string]string, confidence float64) Mapping {
	m := schema.NewMapping(source, target, schema.Equivalence, schema.Automatic,
		sortedCorrespondences(attrPairs, confidence))
	m.Bidirectional = true
	return m
}

// sortedCorrespondences lifts an attribute-pair map into a correspondence
// list ordered by source attribute. Map iteration order is randomized per
// run, and a mapping's identity and wire form embed its correspondence
// list — two peers building "the same" mapping from the same pairs must
// produce identical values, so the order is pinned.
func sortedCorrespondences(attrPairs map[string]string, confidence float64) []Correspondence {
	attrs := make([]string, 0, len(attrPairs))
	for s := range attrPairs {
		attrs = append(attrs, s)
	}
	sort.Strings(attrs)
	corrs := make([]Correspondence, 0, len(attrs))
	for _, s := range attrs {
		corrs = append(corrs, Correspondence{SourceAttr: s, TargetAttr: attrPairs[s], Confidence: confidence})
	}
	return corrs
}

// Options configures a local GridVine network.
type Options struct {
	// Peers is the number of peers. Default 16.
	Peers int
	// ReplicaFactor is the number of peers per overlay leaf. Default 2.
	ReplicaFactor int
	// Seed drives all randomness (construction, routing tie-breaks).
	Seed int64
	// TCP runs peers over local TCP sockets instead of the in-memory
	// transport.
	TCP bool
	// SelfOrganizingOverlay constructs the overlay with the randomized
	// pairwise-exchange bootstrap instead of static placement.
	SelfOrganizingOverlay bool
}

func (o Options) withDefaults() Options {
	if o.Peers == 0 {
		o.Peers = 16
	}
	if o.ReplicaFactor == 0 {
		o.ReplicaFactor = 2
	}
	return o
}

// Row is one RDQL result row (values of the SELECT variables, in order).
type Row = rdql.Row

// ParseRDQL parses an RDQL-style query string (the paper's query language,
// reference [8]):
//
//	SELECT ?x, ?len
//	WHERE (?x, <EMBL#Organism>, "%Aspergillus%"), (?x, <EMBL#Length>, ?len)
//	LIMIT 10
func ParseRDQL(query string) (rdql.Query, error) { return rdql.Parse(query) }

// Network is a handle on a set of GridVine peers sharing one overlay.
type Network struct {
	opts    Options
	inmem   *simnet.Network
	tcp     *tcpnet.Transport
	overlay *pgrid.Overlay
	peers   []*Peer
	rng     *rand.Rand
}

// NewNetwork builds a local GridVine network: the overlay (static or
// self-organizing), one mediation peer per node, over the in-memory or the
// TCP transport.
func NewNetwork(opts Options) (*Network, error) {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))

	n := &Network{opts: opts, rng: rng}
	var registrar simnet.Registrar
	if opts.TCP {
		n.tcp = tcpnet.NewTransport()
		registrar = n.tcp
	} else {
		n.inmem = simnet.NewNetwork()
		registrar = n.inmem
	}

	var ov *pgrid.Overlay
	var err error
	if opts.SelfOrganizingOverlay {
		ov, err = pgrid.Bootstrap(registrar, pgrid.BootstrapOptions{
			Peers:    opts.Peers,
			MaxDepth: log2(opts.Peers / opts.ReplicaFactor),
			Rng:      rng,
		})
	} else {
		ov, err = pgrid.Build(registrar, pgrid.BuildOptions{
			Peers:         opts.Peers,
			ReplicaFactor: opts.ReplicaFactor,
			Rng:           rng,
		})
	}
	if err != nil {
		if n.tcp != nil {
			n.tcp.Close()
		}
		return nil, fmt.Errorf("gridvine: building overlay: %w", err)
	}
	n.overlay = ov
	for _, node := range ov.Nodes() {
		n.peers = append(n.peers, mediation.NewPeer(node))
	}
	return n, nil
}

// Peers returns every peer.
func (n *Network) Peers() []*Peer { return n.peers }

// Peer returns the i-th peer (panics when out of range, like a slice).
func (n *Network) Peer(i int) *Peer { return n.peers[i] }

// NumPeers returns the network size.
func (n *Network) NumPeers() int { return len(n.peers) }

// RandomPeer returns a uniformly random peer (deterministic per Seed).
func (n *Network) RandomPeer() *Peer {
	return n.peers[n.rng.Intn(len(n.peers))]
}

// Overlay exposes the underlying P-Grid overlay (diagnostics, experiments).
func (n *Network) Overlay() *pgrid.Overlay { return n.overlay }

// Transport exposes the in-memory network when not running over TCP
// (failure injection, stats); nil under TCP.
func (n *Network) Transport() *simnet.Network { return n.inmem }

// Close releases transport resources (TCP listeners). In-memory networks
// need no cleanup.
func (n *Network) Close() {
	if n.tcp != nil {
		n.tcp.Close()
	}
}

// OrganizerOptions configures a self-organization driver.
type OrganizerOptions struct {
	// Domain is the application domain to organize. Default "default".
	Domain string
	// MaxMappingsPerRound bounds creation per round.
	MaxMappingsPerRound int
	// Seed drives sampling.
	Seed int64
}

// Organizer drives the self-organizing schema-mapping maintenance.
type Organizer = selforg.Organizer

// NewOrganizer attaches a self-organization driver to a peer.
func (n *Network) NewOrganizer(p *Peer, opts OrganizerOptions) (*Organizer, error) {
	return selforg.New(p, selforg.Config{
		Domain:              opts.Domain,
		MaxMappingsPerRound: opts.MaxMappingsPerRound,
		Rng:                 rand.New(rand.NewSource(opts.Seed)),
	})
}

func log2(n int) int {
	d := 0
	for 1<<d < n {
		d++
	}
	if d == 0 {
		d = 1
	}
	return d
}
