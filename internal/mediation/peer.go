// Package mediation implements GridVine's semantic mediation layer (paper
// §2.2–§2.3, §3): triple storage over the overlay (each triple indexed by
// subject, predicate and object), schema and schema-mapping sharing, triple
// pattern and conjunctive queries resolved through overlay look-ups and
// local relational queries, and query reformulation across schema mappings
// (§4), evaluated by the issuer.
package mediation

import (
	"context"
	"encoding/gob"
	"fmt"
	"slices"
	"sync"

	"gridvine/internal/compose"
	"gridvine/internal/keyspace"
	"gridvine/internal/pgrid"
	"gridvine/internal/schema"
	"gridvine/internal/store"
	"gridvine/internal/triple"
)

// Peer is one GridVine participant: a P-Grid node extended with the
// mediation-layer state and operations. The local triple database DB_p for
// the keys the node is responsible for is the node's own (pgrid.Node.DB).
type Peer struct {
	node  *pgrid.Node
	depth int

	// walMu guards wal, the durable mutation log attached by AttachLog
	// (nil for a purely in-memory peer). See durable.go.
	walMu sync.RWMutex
	wal   *store.Log

	// statsMu guards statsCache, the per-schema aggregates of published
	// statistics digests this peer has fetched (see stats.go).
	statsMu    sync.Mutex
	statsCache map[string]*schemaEstimate

	// composites caches this peer's precomposed mapping closures (see
	// compose.go), invalidated by mapping publishes and replacements
	// observed on either the write path or the store hooks.
	composites *compose.Cache

	// reversedMu guards reversed, the memo of bidirectional mappings'
	// reverses MappingsFrom hands out (see reverse).
	reversedMu sync.RWMutex
	reversed   map[string]*reversal
}

// reversal is one memo entry: a forward mapping as it was reversed, owning
// its correspondences, and its reverse.
type reversal struct {
	fwd, rev schema.Mapping
}

// reversedMemoSize bounds the reversal memo; a full memo is cleared rather
// than evicted piecemeal, since one entry costs one Reverse to rebuild.
const reversedMemoSize = 1024

// PatternQuery ships triple patterns to the peer responsible for their key;
// the handler runs σ for each against the local database and returns the
// matching triples (paper §2.3: Retrieve(key, q)) as one []triple.Triple:
// each pattern's answer, sorted, in request order. A search ships its
// pattern alone; the reformulation engine ships every variant routed to one
// key in one request (see flush), so the patterns of a request differ only
// in their constant predicate.
type PatternQuery struct {
	Patterns []triple.Pattern
	// Filters optionally restricts the answer server-side to triples whose
	// variable values pass every filter — the semi-join reduction (see
	// semijoin.go). Empty for plain pattern lookups.
	Filters []VarFilter
}

// ConnectivityQuery asks the peer responsible for a domain key to derive
// the connectivity indicator from its locally stored degree reports
// (paper §3.1).
type ConnectivityQuery struct {
	Domain string
}

// ConnectivityReport is the answer to a ConnectivityQuery.
type ConnectivityReport struct {
	Domain  string
	Schemas int
	CI      float64
}

// DomainDegree is one schema's degree report stored at the domain key:
// Update(Hash(Domain), {Schema, InDegree, OutDegree}).
type DomainDegree struct {
	Schema    string
	InDegree  int
	OutDegree int
}

// Replaces implements pgrid.Replacer: a fresh degree report supersedes the
// previous report for the same schema.
func (d DomainDegree) Replaces(old any) bool {
	o, ok := old.(DomainDegree)
	return ok && o.Schema == d.Schema
}

// NewPeer wraps an overlay node with mediation-layer behaviour, answering
// from the node's triple database. It registers the node's query handler
// and store hook; one node must back at most one Peer.
func NewPeer(node *pgrid.Node) *Peer {
	p := &Peer{node: node, depth: keyspace.DefaultDepth, composites: compose.NewCache()}
	node.SetStoreHook(p.hookStore)
	node.SetQueryHandler(p.handleQuery)
	return p
}

// Node returns the underlying overlay node.
func (p *Peer) Node() *pgrid.Node { return p.node }

// DB returns the peer's local triple database (the triples this peer is
// responsible for), which its node owns.
func (p *Peer) DB() *triple.DB { return p.node.DB() }

// hookStore is the node's StoreHook: one locked apply pass of the overlay
// store becomes one log record (if a log is attached), staged now and
// waited for in the returned wait. Mapping values landing or leaving the
// local store invalidate the composite closures through their schemas, once
// — the responsible-peer side of the schema-graph version counter (the
// issuer side is Peer.Write).
func (p *Peer) hookStore(changes []store.Entry) (wait func()) {
	wait = p.logChanges(changes)
	var mappings []schema.Mapping
	for _, c := range changes {
		if m, ok := c.Value.(schema.Mapping); ok {
			mappings = append(mappings, m)
		}
	}
	p.invalidateComposites(mappings)
	return wait
}

// GUID builds a globally unique identifier for a local resource name,
// concatenating the peer's overlay path with a hash of the local
// identifier (paper §2.2).
func (p *Peer) GUID(localID string) string {
	return schema.GUID(p.node.Path().String(), localID)
}

// tripleKeys returns the three overlay keys a triple is indexed under.
func (p *Peer) tripleKeys(t triple.Triple) []keyspace.Key {
	return []keyspace.Key{
		keyspace.Hash(t.Subject, p.depth),
		keyspace.Hash(t.Predicate, p.depth),
		keyspace.Hash(t.Object, p.depth),
	}
}

// writeOne submits a one-entry batch serially with the per-entry contract
// of the …Context one-entry helpers: the aggregate route,
// plus the entry's own error (or the batch's terminal error) when it did
// not apply.
func (p *Peer) writeOne(ctx context.Context, b *Batch) (pgrid.Route, error) {
	rec, err := p.Write(ctx, b)
	if err == nil {
		err = rec.FirstErr()
	}
	return rec.Route, err
}

// InsertTripleContext shares a triple at the mediation layer: one write at
// the overlay per component key (paper §2.2: Update(t) ≡ three Update()
// operations on Hash(subject), Hash(predicate), Hash(object)), shipped
// through the batched write path under the caller's context.
func (p *Peer) InsertTripleContext(ctx context.Context, t triple.Triple) (pgrid.Route, error) {
	b := &Batch{Parallelism: 1}
	b.InsertTriple(t)
	route, err := p.writeOne(ctx, b)
	if err != nil {
		return route, fmt.Errorf("mediation: inserting %v: %w", t, err)
	}
	return route, nil
}

// DeleteTripleContext removes a triple from all three component indexes
// under the caller's context.
func (p *Peer) DeleteTripleContext(ctx context.Context, t triple.Triple) (pgrid.Route, error) {
	b := &Batch{Parallelism: 1}
	b.DeleteTriple(t)
	route, err := p.writeOne(ctx, b)
	if err != nil {
		return route, fmt.Errorf("mediation: deleting %v: %w", t, err)
	}
	return route, nil
}

// InsertSchemaContext publishes a schema definition at the key of its name
// (paper §2.2: Update(Hash(Schema Name), Schema Definition)) under the
// caller's context.
func (p *Peer) InsertSchemaContext(ctx context.Context, s schema.Schema) (pgrid.Route, error) {
	b := &Batch{Parallelism: 1}
	b.PublishSchema(s)
	return p.writeOne(ctx, b)
}

// LookupSchema retrieves a schema definition by name under the caller's
// context.
func (p *Peer) LookupSchema(ctx context.Context, name string) (schema.Schema, error) {
	values, _, err := p.node.Retrieve(ctx, p.schemaKey(name))
	if err != nil {
		return schema.Schema{}, err
	}
	for _, v := range values {
		if s, ok := v.(schema.Schema); ok && s.Name == name {
			return s, nil
		}
	}
	return schema.Schema{}, fmt.Errorf("mediation: schema %q not found", name)
}

// InsertMappingContext publishes a mapping at the key space of its source
// schema, and additionally at the target schema's key when bidirectional
// (paper §3: Update(Source Schema Key, Schema Mapping)), under the caller's
// context.
func (p *Peer) InsertMappingContext(ctx context.Context, m schema.Mapping) (pgrid.Route, error) {
	b := &Batch{Parallelism: 1}
	b.PublishMapping(m)
	return p.writeOne(ctx, b)
}

// MappingsFrom returns the active (non-deprecated) mappings usable to
// reformulate queries posed against the given schema: mappings stored at
// the schema's key whose source is the schema, plus reverses of
// bidirectional mappings targeting it. The retrieval that seeds each
// reformulation wave aborts promptly when ctx is cancelled.
func (p *Peer) MappingsFrom(ctx context.Context, schemaName string) ([]schema.Mapping, pgrid.Route, error) {
	values, route, err := p.node.Retrieve(ctx, p.schemaKey(schemaName))
	if err != nil {
		return nil, route, err
	}
	var out []schema.Mapping
	for _, v := range values {
		m, ok := v.(schema.Mapping)
		if !ok || m.Deprecated {
			continue
		}
		switch {
		case m.Source == schemaName:
			out = append(out, m)
		case m.Target == schemaName && m.Bidirectional && m.Type == schema.Equivalence:
			if rev, err := p.reverse(m); err == nil {
				out = append(out, rev)
			}
		}
	}
	return out, route, nil
}

// reverse is m.Reverse() computed once per stored version of m. The memo is
// keyed by ID and validated by content: a hit requires m to equal, field by
// field, the forward mapping the entry was reversed from, so a replacement
// under the same ID (a confidence change, a deprecation) misses and is
// reversed afresh, with no invalidation hook. The reverse carries the ID
// Reverse gives it, and shares its correspondences with every caller, who
// reads them only, as they read the stored forward mappings.
func (p *Peer) reverse(m schema.Mapping) (schema.Mapping, error) {
	p.reversedMu.RLock()
	r := p.reversed[m.ID]
	p.reversedMu.RUnlock()
	if r != nil && sameMapping(&r.fwd, &m) {
		return r.rev, nil
	}
	rev, err := m.Reverse()
	if err != nil {
		return rev, err
	}
	fwd := m
	fwd.Correspondences = slices.Clone(m.Correspondences)
	p.reversedMu.Lock()
	if p.reversed == nil || len(p.reversed) >= reversedMemoSize {
		p.reversed = make(map[string]*reversal)
	}
	p.reversed[m.ID] = &reversal{fwd: fwd, rev: rev}
	p.reversedMu.Unlock()
	return rev, nil
}

// sameMapping reports whether a and b agree on every field.
func sameMapping(a, b *schema.Mapping) bool {
	return a.ID == b.ID && a.Source == b.Source && a.Target == b.Target &&
		a.Type == b.Type && a.Bidirectional == b.Bidirectional &&
		a.Origin == b.Origin && a.Confidence == b.Confidence &&
		a.Deprecated == b.Deprecated &&
		slices.Equal(a.Correspondences, b.Correspondences)
}

// MappingsAt returns every mapping stored at a schema's key, including
// deprecated ones — the raw material of the self-organization analysis.
func (p *Peer) MappingsAt(ctx context.Context, schemaName string) ([]schema.Mapping, error) {
	values, _, err := p.node.Retrieve(ctx, p.schemaKey(schemaName))
	if err != nil {
		return nil, err
	}
	var out []schema.Mapping
	for _, v := range values {
		if m, ok := v.(schema.Mapping); ok {
			out = append(out, m)
		}
	}
	return out, nil
}

// ReportDomainDegree publishes (or refreshes) a schema's mapping degrees at
// the domain key (paper §3.1: Update(Domain Connectivity)). The previous
// report for the schema is replaced atomically at the responsible peer —
// one routed operation instead of the retrieve + delete + update sequence,
// which cost three round-trips and raced with concurrent reporters.
func (p *Peer) ReportDomainDegree(ctx context.Context, domain, schemaName string, in, out int) error {
	_, err := p.node.Update(ctx, p.domainKey(domain),
		DomainDegree{Schema: schemaName, InDegree: in, OutDegree: out})
	return err
}

// DomainDegrees retrieves all degree reports of a domain.
func (p *Peer) DomainDegrees(ctx context.Context, domain string) ([]DomainDegree, error) {
	values, _, err := p.node.Retrieve(ctx, p.domainKey(domain))
	if err != nil {
		return nil, err
	}
	var out []DomainDegree
	for _, v := range values {
		if d, ok := v.(DomainDegree); ok {
			out = append(out, d)
		}
	}
	return out, nil
}

// DomainConnectivity issues a connectivity inquiry to the domain's key
// space; the responsible peer derives the indicator locally from the degree
// distribution it aggregates (paper §3.1–3.2).
func (p *Peer) DomainConnectivity(ctx context.Context, domain string) (ConnectivityReport, error) {
	result, _, err := p.node.Query(ctx, p.domainKey(domain), ConnectivityQuery{Domain: domain})
	if err != nil {
		return ConnectivityReport{}, err
	}
	report, ok := result.(ConnectivityReport)
	if !ok {
		return ConnectivityReport{}, fmt.Errorf("mediation: unexpected connectivity result %T", result)
	}
	return report, nil
}

func (p *Peer) schemaKey(name string) keyspace.Key {
	return keyspace.Hash("schema:"+name, p.depth)
}

func (p *Peer) domainKey(domain string) keyspace.Key {
	return keyspace.Hash("domain:"+domain, p.depth)
}

func init() {
	gob.Register(PatternQuery{})
	gob.Register(ConnectivityQuery{})
	gob.Register(ConnectivityReport{})
	gob.Register(DomainDegree{})
}
