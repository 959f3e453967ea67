package gridvine

import (
	"context"
	"fmt"
	"testing"
	"time"

	"gridvine/internal/tcpnet"
)

func TestNewNetworkDefaults(t *testing.T) {
	net, err := NewNetwork(Options{Seed: 1})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	defer net.Close()
	if net.NumPeers() != 16 {
		t.Errorf("peers = %d, want default 16", net.NumPeers())
	}
	if net.Transport() == nil {
		t.Error("in-memory transport expected by default")
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	net, err := NewNetwork(Options{Peers: 16, Seed: 2})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	defer net.Close()

	p := net.Peer(0)
	if _, err := p.InsertTripleContext(context.Background(), Triple{Subject: "acc:P1", Predicate: "EMBL#Organism", Object: "Aspergillus niger"}); err != nil {
		t.Fatalf("InsertTriple: %v", err)
	}
	if _, err := p.InsertTripleContext(context.Background(), Triple{Subject: "acc:P2", Predicate: "EMP#SystematicName", Object: "Aspergillus oryzae"}); err != nil {
		t.Fatalf("InsertTriple: %v", err)
	}
	if _, err := p.InsertSchemaContext(context.Background(), NewSchema("EMBL", "bio", "Organism")); err != nil {
		t.Fatalf("InsertSchema: %v", err)
	}
	if _, err := p.InsertMappingContext(context.Background(), NewManualMapping("EMBL", "EMP", map[string]string{"Organism": "SystematicName"})); err != nil {
		t.Fatalf("InsertMapping: %v", err)
	}

	q := Pattern{S: Var("x"), P: Const("EMBL#Organism"), O: Like("%Aspergillus%")}
	rs, err := blockingSearchReformulated(net.Peer(7), q, SearchOptions{})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if len(rs.Results) != 2 {
		t.Errorf("results = %d, want 2", len(rs.Results))
	}
}

func TestFacadeTCP(t *testing.T) {
	net, err := NewNetwork(Options{Peers: 6, Seed: 3, TCP: true})
	if err != nil {
		t.Fatalf("NewNetwork TCP: %v", err)
	}
	defer net.Close()
	if net.Transport() != nil {
		t.Error("TCP network should not expose the in-memory transport")
	}
	p := net.Peer(0)
	if _, err := p.InsertTripleContext(context.Background(), Triple{Subject: "s", Predicate: "A#p", Object: "o"}); err != nil {
		t.Fatalf("InsertTriple over TCP: %v", err)
	}
	rs, err := blockingSearchFor(net.Peer(3), Pattern{S: Var("x"), P: Const("A#p"), O: Var("o")})
	if err != nil {
		t.Fatalf("SearchFor over TCP: %v", err)
	}
	if len(rs.Results) != 1 {
		t.Errorf("results = %d", len(rs.Results))
	}
}

// TestFacadeBatchWrite exercises the public bulk-ingest surface — a mixed
// Batch written over TCP, so the batch messages' overlay-codec frames are
// pinned end to end.
func TestFacadeBatchWrite(t *testing.T) {
	net, err := NewNetwork(Options{Peers: 6, Seed: 9, TCP: true})
	if err != nil {
		t.Fatalf("NewNetwork TCP: %v", err)
	}
	defer net.Close()

	b := &Batch{}
	for i := 0; i < 20; i++ {
		b.InsertTriple(Triple{
			Subject:   fmt.Sprintf("acc:B%03d", i),
			Predicate: "EMBL#Organism",
			Object:    fmt.Sprintf("Species %d", i%4),
		})
	}
	b.PublishSchema(NewSchema("EMBL", "bio", "Organism"))
	b.PublishMapping(NewManualMapping("EMBL", "EMP", map[string]string{"Organism": "SystematicName"}))

	rec, err := net.Peer(0).Write(context.Background(), b)
	if err != nil {
		t.Fatalf("Write over TCP: %v", err)
	}
	if rec.Applied != b.Len() {
		t.Fatalf("applied %d of %d entries: %v", rec.Applied, b.Len(), rec.FirstErr())
	}
	if rec.Groups == 0 || rec.Messages() == 0 {
		t.Errorf("receipt accounting empty: %+v", rec)
	}
	if sent, recv := mustTCP(t, net).Bytes(); sent == 0 || recv == 0 {
		t.Errorf("tcp byte accounting empty: sent=%d recv=%d", sent, recv)
	}

	rs, err := blockingSearchFor(net.Peer(3), Pattern{S: Var("x"), P: Const("EMBL#Organism"), O: Const("Species 1")})
	if err != nil {
		t.Fatalf("SearchFor: %v", err)
	}
	if len(rs.Results) != 5 {
		t.Errorf("results = %d, want 5", len(rs.Results))
	}
	if _, err := net.Peer(2).LookupSchema(context.Background(), "EMBL"); err != nil {
		t.Errorf("LookupSchema after batched publish: %v", err)
	}
	ms, _, err := net.Peer(4).MappingsFrom(context.Background(), "EMBL")
	if err != nil || len(ms) != 1 {
		t.Errorf("MappingsFrom after batched publish: %v (%d mappings)", err, len(ms))
	}
}

// mustTCP digs the TCP transport out of a TCP-backed network.
func mustTCP(t *testing.T, n *Network) *tcpnet.Transport {
	t.Helper()
	if n.tcp == nil {
		t.Fatal("network is not TCP-backed")
	}
	return n.tcp
}

func TestFacadeSelfOrganizingOverlay(t *testing.T) {
	net, err := NewNetwork(Options{Peers: 16, Seed: 4, SelfOrganizingOverlay: true})
	if err != nil {
		t.Fatalf("NewNetwork bootstrap: %v", err)
	}
	defer net.Close()
	if err := net.Overlay().CheckCoverage(); err != nil {
		t.Errorf("coverage: %v", err)
	}
	p := net.Peer(0)
	if _, err := p.InsertTripleContext(context.Background(), Triple{Subject: "s", Predicate: "A#p", Object: "o"}); err != nil {
		t.Fatalf("InsertTriple: %v", err)
	}
	rs, err := blockingSearchFor(net.RandomPeer(), Pattern{S: Const("s"), P: Var("p"), O: Var("o")})
	if err != nil {
		t.Fatalf("SearchFor: %v", err)
	}
	if len(rs.Results) != 1 {
		t.Errorf("results = %d", len(rs.Results))
	}
}

func TestFacadeOrganizer(t *testing.T) {
	net, err := NewNetwork(Options{Peers: 16, Seed: 5})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	defer net.Close()
	org, err := net.NewOrganizer(net.Peer(0), OrganizerOptions{Domain: "bio", Seed: 6})
	if err != nil {
		t.Fatalf("NewOrganizer: %v", err)
	}
	if err := org.RegisterSchema(context.Background(), NewSchema("A", "bio", "x")); err != nil {
		t.Fatalf("RegisterSchema: %v", err)
	}
	names, err := org.SchemaNames(context.Background())
	if err != nil || len(names) != 1 || names[0] != "A" {
		t.Errorf("SchemaNames = %v err=%v", names, err)
	}
}

func TestQueryRDQL(t *testing.T) {
	net, err := NewNetwork(Options{Peers: 16, Seed: 8})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	defer net.Close()
	p := net.Peer(0)
	p.InsertTripleContext(context.Background(), Triple{Subject: "acc:1", Predicate: "EMBL#Organism", Object: "Aspergillus niger"})
	p.InsertTripleContext(context.Background(), Triple{Subject: "acc:1", Predicate: "EMBL#Length", Object: "900"})
	p.InsertTripleContext(context.Background(), Triple{Subject: "acc:2", Predicate: "EMBL#Organism", Object: "Homo sapiens"})
	p.InsertTripleContext(context.Background(), Triple{Subject: "acc:2", Predicate: "EMBL#Length", Object: "1200"})

	rows, err := blockingRDQL(net.Peer(5), `
		SELECT ?x, ?len
		WHERE (?x, <EMBL#Organism>, "%Aspergillus%"), (?x, <EMBL#Length>, ?len)`,
		false, SearchOptions{})
	if err != nil {
		t.Fatalf("QueryRDQL: %v", err)
	}
	if len(rows) != 1 || rows[0][0] != "acc:1" || rows[0][1] != "900" {
		t.Errorf("rows = %v", rows)
	}
	if _, err := blockingRDQL(net.Peer(5), "SELECT bogus", false, SearchOptions{}); err == nil {
		t.Error("invalid RDQL should fail")
	}
}

func TestQueryRDQLWithReformulation(t *testing.T) {
	net, err := NewNetwork(Options{Peers: 16, Seed: 9})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	defer net.Close()
	p := net.Peer(0)
	p.InsertTripleContext(context.Background(), Triple{Subject: "acc:9", Predicate: "EMP#SystematicName", Object: "Aspergillus flavus"})
	p.InsertMappingContext(context.Background(), NewManualMapping("EMBL", "EMP", map[string]string{"Organism": "SystematicName"}))

	rows, err := blockingRDQL(net.Peer(3),
		`SELECT ?x WHERE (?x, <EMBL#Organism>, "%Aspergillus%")`, true, SearchOptions{})
	if err != nil {
		t.Fatalf("QueryRDQL: %v", err)
	}
	if len(rows) != 1 || rows[0][0] != "acc:9" {
		t.Errorf("rows = %v", rows)
	}
}

func TestGUIDViaFacade(t *testing.T) {
	net, err := NewNetwork(Options{Peers: 4, Seed: 7})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	defer net.Close()
	// GUIDs embed the peer path π(p): peers on different leaves must differ
	// (replicas share a path by design, so pick distinct-path peers).
	var a, b *Peer
	for _, p := range net.Peers() {
		if a == nil {
			a = p
			continue
		}
		if !p.Node().Path().Equal(a.Node().Path()) {
			b = p
			break
		}
	}
	if b == nil {
		t.Fatal("no two peers with distinct paths")
	}
	if a.GUID("res") == b.GUID("res") {
		t.Error("GUIDs from different paths should differ")
	}
	if a.GUID("res") != a.GUID("res") {
		t.Error("GUID not deterministic")
	}
}

func TestSearchObjectRangeViaFacade(t *testing.T) {
	net, err := NewNetwork(Options{Peers: 16, Seed: 10})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	defer net.Close()
	p := net.Peer(0)
	for subj, org := range map[string]string{
		"acc:a": "Aspergillus flavus",
		"acc:b": "Aspergillus niger",
		"acc:c": "Homo sapiens",
	} {
		p.InsertTripleContext(context.Background(), Triple{Subject: subj, Predicate: "EMBL#Organism", Object: org})
	}
	got, _, err := net.Peer(4).SearchObjectRange(context.Background(), "EMBL#Organism", "Aspergillus", "Aspergillus z")
	if err != nil {
		t.Fatalf("SearchObjectRange: %v", err)
	}
	if len(got) != 2 {
		t.Errorf("range results = %v", got)
	}
}

func TestMappingCorrespondenceOrderDeterministic(t *testing.T) {
	pairs := map[string]string{
		"organism": "species", "length": "size", "accession": "id",
		"function": "role", "sequence": "chain", "family": "group",
	}
	want := []string{"accession", "family", "function", "length", "organism", "sequence"}
	for trial := 0; trial < 20; trial++ {
		for _, m := range []Mapping{
			NewManualMapping("A", "B", pairs),
			NewAutomaticMapping("A", "B", pairs, 0.8),
		} {
			if len(m.Correspondences) != len(want) {
				t.Fatalf("correspondences = %d, want %d", len(m.Correspondences), len(want))
			}
			for i, c := range m.Correspondences {
				if c.SourceAttr != want[i] {
					t.Fatalf("trial %d: correspondence %d = %q, want %q (map order leaked)",
						trial, i, c.SourceAttr, want[i])
				}
				if c.TargetAttr != pairs[c.SourceAttr] {
					t.Fatalf("correspondence %q -> %q, want %q", c.SourceAttr, c.TargetAttr, pairs[c.SourceAttr])
				}
			}
		}
	}
	// Identical input maps must yield identical mapping IDs across builds —
	// the property the sort exists for (two peers deriving the same mapping).
	a := NewManualMapping("A", "B", pairs)
	b := NewManualMapping("A", "B", map[string]string{
		"sequence": "chain", "family": "group", "organism": "species",
		"accession": "id", "function": "role", "length": "size",
	})
	if a.ID != b.ID {
		t.Errorf("same pairs produced different mapping IDs: %q vs %q", a.ID, b.ID)
	}
}

func TestFacadeStreamingQuery(t *testing.T) {
	net, err := NewNetwork(Options{Peers: 16, Seed: 21})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	defer net.Close()
	p := net.Peer(0)
	for i := 0; i < 6; i++ {
		p.InsertTripleContext(context.Background(), Triple{
			Subject:   fmt.Sprintf("acc:%d", i),
			Predicate: "EMBL#Organism",
			Object:    "Aspergillus niger",
		})
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	q := Pattern{S: Var("x"), P: Const("EMBL#Organism"), O: Like("%Aspergillus%")}
	cur, err := net.Peer(9).Query(ctx, Request{Pattern: &q, Limit: 3})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	defer cur.Close()
	rows := 0
	for {
		row, ok := cur.Next(ctx)
		if !ok {
			break
		}
		if row.Result == nil {
			t.Fatal("pattern row without Result")
		}
		rows++
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	if rows != 3 {
		t.Errorf("Limit 3 yielded %d rows", rows)
	}
	if st := cur.Stats(); st.Rows != 3 || st.FirstRow <= 0 {
		t.Errorf("stats = %+v", st)
	}

	// RDQL with LIMIT through the same entry point.
	rcur, err := net.Peer(3).Query(ctx, Request{
		RDQL: `SELECT ?x WHERE (?x, <EMBL#Organism>, "%Aspergillus%") LIMIT 2`,
	})
	if err != nil {
		t.Fatalf("RDQL Query: %v", err)
	}
	defer rcur.Close()
	n := 0
	for {
		if _, ok := rcur.Next(ctx); !ok {
			break
		}
		n++
	}
	if n != 2 {
		t.Errorf("RDQL LIMIT 2 yielded %d rows", n)
	}
}
