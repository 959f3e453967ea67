package mediation

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"gridvine/internal/keyspace"
	"gridvine/internal/pgrid"
	"gridvine/internal/schema"
	"gridvine/internal/simnet"
	"gridvine/internal/triple"
)

// testNetwork builds an overlay with a mediation peer wrapped around every
// node, returning the peers.
func testNetwork(t *testing.T, peers int, seed int64) (*simnet.Network, []*Peer) {
	t.Helper()
	net := simnet.NewNetwork()
	ov, err := pgrid.Build(net, pgrid.BuildOptions{
		Peers:         peers,
		ReplicaFactor: 2,
		Rng:           rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	out := make([]*Peer, 0, peers)
	for _, n := range ov.Nodes() {
		out = append(out, NewPeer(n))
	}
	return net, out
}

func TestInsertAndSearchSingleTriple(t *testing.T) {
	_, peers := testNetwork(t, 16, 1)
	tr := triple.Triple{Subject: "seq1", Predicate: "EMBL#Organism", Object: "Aspergillus nidulans"}
	if _, err := peers[0].InsertTripleContext(context.Background(), tr); err != nil {
		t.Fatalf("InsertTriple: %v", err)
	}
	// Query constrained on predicate from a different peer.
	rs, err := blockingSearchFor(peers[7], triple.Pattern{
		S: triple.Var("x"), P: triple.Const("EMBL#Organism"), O: triple.Var("o"),
	})
	if err != nil {
		t.Fatalf("SearchFor: %v", err)
	}
	if len(rs.Results) != 1 || rs.Results[0].Triple != tr {
		t.Errorf("results = %+v", rs.Results)
	}
}

func TestTripleIndexedThreeTimes(t *testing.T) {
	_, peers := testNetwork(t, 16, 2)
	tr := triple.Triple{Subject: "seqX", Predicate: "EMBL#Length", Object: "1422"}
	peers[0].InsertTripleContext(context.Background(), tr)
	// Query by each position.
	bySubject := triple.Pattern{S: triple.Const("seqX"), P: triple.Var("p"), O: triple.Var("o")}
	byPredicate := triple.Pattern{S: triple.Var("s"), P: triple.Const("EMBL#Length"), O: triple.Var("o")}
	byObject := triple.Pattern{S: triple.Var("s"), P: triple.Var("p"), O: triple.Const("1422")}
	for name, q := range map[string]triple.Pattern{"subject": bySubject, "predicate": byPredicate, "object": byObject} {
		rs, err := blockingSearchFor(peers[3], q)
		if err != nil {
			t.Fatalf("SearchFor by %s: %v", name, err)
		}
		if len(rs.Results) != 1 {
			t.Errorf("by %s: %d results", name, len(rs.Results))
		}
	}
}

func TestDeleteTriple(t *testing.T) {
	_, peers := testNetwork(t, 8, 3)
	tr := triple.Triple{Subject: "s", Predicate: "sch#p", Object: "o"}
	peers[0].InsertTripleContext(context.Background(), tr)
	if _, err := peers[1].DeleteTripleContext(context.Background(), tr); err != nil {
		t.Fatalf("DeleteTriple: %v", err)
	}
	for _, q := range []triple.Pattern{
		{S: triple.Const("s"), P: triple.Var("p"), O: triple.Var("o")},
		{S: triple.Var("s"), P: triple.Const("sch#p"), O: triple.Var("o")},
		{S: triple.Var("s"), P: triple.Var("p"), O: triple.Const("o")},
	} {
		rs, err := blockingSearchFor(peers[2], q)
		if err != nil {
			t.Fatalf("SearchFor: %v", err)
		}
		if len(rs.Results) != 0 {
			t.Errorf("triple survived deletion: %+v", rs.Results)
		}
	}
}

func TestSearchForLikeConstraint(t *testing.T) {
	_, peers := testNetwork(t, 16, 4)
	peers[0].InsertTripleContext(context.Background(), triple.Triple{Subject: "a1", Predicate: "EMBL#Organism", Object: "Aspergillus nidulans"})
	peers[0].InsertTripleContext(context.Background(), triple.Triple{Subject: "a2", Predicate: "EMBL#Organism", Object: "Aspergillus niger"})
	peers[0].InsertTripleContext(context.Background(), triple.Triple{Subject: "b1", Predicate: "EMBL#Organism", Object: "Homo sapiens"})
	// The paper's example: SearchFor(x? : (x?, EMBL#Organism, %Aspergillus%)).
	rs, err := blockingSearchFor(peers[5], triple.Pattern{
		S: triple.Var("x"), P: triple.Const("EMBL#Organism"), O: triple.LikeTerm("%Aspergillus%"),
	})
	if err != nil {
		t.Fatalf("SearchFor: %v", err)
	}
	if len(rs.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(rs.Results))
	}
	subjects := map[string]bool{}
	for _, r := range rs.Results {
		subjects[r.Triple.Subject] = true
	}
	if !subjects["a1"] || !subjects["a2"] {
		t.Errorf("bindings = %v", subjects)
	}
}

func TestSearchForNotRoutable(t *testing.T) {
	_, peers := testNetwork(t, 4, 5)
	_, err := blockingSearchFor(peers[0], triple.Pattern{S: triple.Var("x"), P: triple.Var("y"), O: triple.Var("z")})
	if !errors.Is(err, ErrNotRoutable) {
		t.Errorf("err = %v, want ErrNotRoutable", err)
	}
}

func TestSchemaRoundtrip(t *testing.T) {
	_, peers := testNetwork(t, 8, 6)
	s := schema.NewSchema("EMBL", "protein-sequences", "Organism", "Length")
	if _, err := peers[0].InsertSchemaContext(context.Background(), s); err != nil {
		t.Fatalf("InsertSchema: %v", err)
	}
	got, err := peers[3].LookupSchema(context.Background(), "EMBL")
	if err != nil {
		t.Fatalf("LookupSchema: %v", err)
	}
	if got.Name != "EMBL" || len(got.Attributes) != 2 {
		t.Errorf("schema = %+v", got)
	}
	if _, err := peers[3].LookupSchema(context.Background(), "MISSING"); err == nil {
		t.Error("missing schema lookup should fail")
	}
}

func TestMappingStorageAndRetrieval(t *testing.T) {
	_, peers := testNetwork(t, 16, 7)
	m := schema.NewMapping("EMBL", "EMP", schema.Equivalence, schema.Manual, []schema.Correspondence{
		{SourceAttr: "Organism", TargetAttr: "SystematicName", Confidence: 1},
	})
	if _, err := peers[0].InsertMappingContext(context.Background(), m); err != nil {
		t.Fatalf("InsertMapping: %v", err)
	}
	// Unidirectional: visible from source schema only.
	from, _, err := peers[2].MappingsFrom(context.Background(), "EMBL")
	if err != nil {
		t.Fatalf("MappingsFrom: %v", err)
	}
	if len(from) != 1 || from[0].ID != m.ID {
		t.Errorf("MappingsFrom(EMBL) = %v", from)
	}
	fromTarget, _, err := peers[2].MappingsFrom(context.Background(), "EMP")
	if err != nil {
		t.Fatalf("MappingsFrom: %v", err)
	}
	if len(fromTarget) != 0 {
		t.Errorf("MappingsFrom(EMP) = %v, want none", fromTarget)
	}
}

func TestBidirectionalMappingVisibleBothSides(t *testing.T) {
	_, peers := testNetwork(t, 16, 8)
	m := schema.NewMapping("EMBL", "EMP", schema.Equivalence, schema.Manual, []schema.Correspondence{
		{SourceAttr: "Organism", TargetAttr: "SystematicName", Confidence: 1},
	})
	m.Bidirectional = true
	peers[0].InsertMappingContext(context.Background(), m)
	from, _, _ := peers[1].MappingsFrom(context.Background(), "EMBL")
	if len(from) != 1 {
		t.Errorf("source side = %v", from)
	}
	rev, _, _ := peers[1].MappingsFrom(context.Background(), "EMP")
	if len(rev) != 1 || rev[0].Source != "EMP" || rev[0].Target != "EMBL" {
		t.Errorf("target side = %v", rev)
	}
}

// TestFigure2Reformulation reproduces the paper's Figure 2 walk-through:
// a query on EMBL#Organism is reformulated through the mapping
// EMBL#Organism ↔ EMP#SystematicName and aggregates results from both
// schemas.
func TestFigure2Reformulation(t *testing.T) {
	_, peers := testNetwork(t, 16, 9)

	// Data under two heterogeneous schemas.
	peers[0].InsertTripleContext(context.Background(), triple.Triple{Subject: "EMBL:A78712", Predicate: "EMBL#Organism", Object: "Aspergillus nidulans"})
	peers[0].InsertTripleContext(context.Background(), triple.Triple{Subject: "EMBL:A78767", Predicate: "EMBL#Organism", Object: "Aspergillus niger"})
	peers[0].InsertTripleContext(context.Background(), triple.Triple{Subject: "NEN94295-05", Predicate: "EMP#SystematicName", Object: "Aspergillus flavus"})
	peers[0].InsertTripleContext(context.Background(), triple.Triple{Subject: "NEN00001-99", Predicate: "EMP#SystematicName", Object: "Homo sapiens"})

	m := schema.NewMapping("EMBL", "EMP", schema.Equivalence, schema.Manual, []schema.Correspondence{
		{SourceAttr: "Organism", TargetAttr: "SystematicName", Confidence: 1},
	})
	m.Bidirectional = true
	peers[0].InsertMappingContext(context.Background(), m)

	q := triple.Pattern{S: triple.Var("x"), P: triple.Const("EMBL#Organism"), O: triple.LikeTerm("%Aspergillus%")}
	rs, err := blockingSearchReformulated(peers[4], q, SearchOptions{})
	if err != nil {
		t.Fatalf("SearchWithReformulation: %v", err)
	}
	subjects := map[string]bool{}
	for _, r := range rs.Results {
		if b, ok := r.Pattern.Bind(r.Triple); ok {
			subjects[b["x"]] = true
		}
	}
	for _, want := range []string{"EMBL:A78712", "EMBL:A78767", "NEN94295-05"} {
		if !subjects[want] {
			t.Errorf("missing result %s (got %v)", want, subjects)
		}
	}
	if subjects["NEN00001-99"] {
		t.Errorf("Homo sapiens should not match %%Aspergillus%%")
	}
	if rs.Reformulations < 1 {
		t.Errorf("reformulations = %d", rs.Reformulations)
	}
	// Provenance: the EMP result must carry the mapping path.
	for _, r := range rs.Results {
		if r.Triple.Subject == "NEN94295-05" {
			if len(r.MappingPath) != 1 || r.MappingPath[0] != m.ID {
				t.Errorf("EMP result path = %v", r.MappingPath)
			}
		}
	}
}

func TestReformulationChain(t *testing.T) {
	// A → B → C chain: results from all three schemas, confidence decays.
	_, peers := testNetwork(t, 16, 10)
	peers[0].InsertTripleContext(context.Background(), triple.Triple{Subject: "a1", Predicate: "A#org", Object: "aspergillus"})
	peers[0].InsertTripleContext(context.Background(), triple.Triple{Subject: "b1", Predicate: "B#name", Object: "aspergillus"})
	peers[0].InsertTripleContext(context.Background(), triple.Triple{Subject: "c1", Predicate: "C#taxon", Object: "aspergillus"})

	ab := schema.NewMapping("A", "B", schema.Equivalence, schema.Automatic, []schema.Correspondence{
		{SourceAttr: "org", TargetAttr: "name", Confidence: 0.9},
	})
	bc := schema.NewMapping("B", "C", schema.Equivalence, schema.Automatic, []schema.Correspondence{
		{SourceAttr: "name", TargetAttr: "taxon", Confidence: 0.8},
	})
	peers[0].InsertMappingContext(context.Background(), ab)
	peers[0].InsertMappingContext(context.Background(), bc)

	q := triple.Pattern{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Const("aspergillus")}
	rs, err := blockingSearchReformulated(peers[2], q, SearchOptions{})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	bySubject := map[string]Result{}
	for _, r := range rs.Results {
		bySubject[r.Triple.Subject] = r
	}
	if len(bySubject) != 3 {
		t.Fatalf("results = %v", bySubject)
	}
	if got := bySubject["c1"].Confidence; got < 0.71 || got > 0.73 {
		t.Errorf("c1 confidence = %v, want ≈0.72", got)
	}
	if len(bySubject["c1"].MappingPath) != 2 {
		t.Errorf("c1 path = %v", bySubject["c1"].MappingPath)
	}
}

func TestReformulationRespectsMaxDepth(t *testing.T) {
	_, peers := testNetwork(t, 16, 11)
	peers[0].InsertTripleContext(context.Background(), triple.Triple{Subject: "c1", Predicate: "C#taxon", Object: "x"})
	ab := schema.NewMapping("A", "B", schema.Equivalence, schema.Manual, []schema.Correspondence{{SourceAttr: "org", TargetAttr: "name", Confidence: 1}})
	bc := schema.NewMapping("B", "C", schema.Equivalence, schema.Manual, []schema.Correspondence{{SourceAttr: "name", TargetAttr: "taxon", Confidence: 1}})
	peers[0].InsertMappingContext(context.Background(), ab)
	peers[0].InsertMappingContext(context.Background(), bc)
	q := triple.Pattern{S: triple.Var("v"), P: triple.Const("A#org"), O: triple.Const("x")}
	rs, err := blockingSearchReformulated(peers[1], q, SearchOptions{MaxDepth: 1})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	for _, r := range rs.Results {
		if r.Triple.Subject == "c1" {
			t.Errorf("depth-2 result returned despite MaxDepth=1")
		}
	}
}

func TestReformulationMinConfidencePrunes(t *testing.T) {
	_, peers := testNetwork(t, 16, 12)
	peers[0].InsertTripleContext(context.Background(), triple.Triple{Subject: "b1", Predicate: "B#name", Object: "v"})
	weak := schema.NewMapping("A", "B", schema.Equivalence, schema.Automatic, []schema.Correspondence{
		{SourceAttr: "org", TargetAttr: "name", Confidence: 0.3},
	})
	peers[0].InsertMappingContext(context.Background(), weak)
	q := triple.Pattern{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Const("v")}
	rs, err := blockingSearchReformulated(peers[1], q, SearchOptions{MinConfidence: 0.5})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if len(rs.Results) != 0 {
		t.Errorf("low-confidence path should be pruned: %v", rs.Results)
	}
}

func TestDeprecatedMappingIgnored(t *testing.T) {
	_, peers := testNetwork(t, 16, 13)
	peers[0].InsertTripleContext(context.Background(), triple.Triple{Subject: "b1", Predicate: "B#name", Object: "v"})
	m := schema.NewMapping("A", "B", schema.Equivalence, schema.Manual, []schema.Correspondence{
		{SourceAttr: "org", TargetAttr: "name", Confidence: 1},
	})
	m.Deprecated = true
	peers[0].InsertMappingContext(context.Background(), m)
	q := triple.Pattern{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Const("v")}
	rs, err := blockingSearchReformulated(peers[1], q, SearchOptions{})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if len(rs.Results) != 0 {
		t.Errorf("deprecated mapping used: %v", rs.Results)
	}
}

func TestReplaceMappingPublishesDeprecation(t *testing.T) {
	_, peers := testNetwork(t, 16, 14)
	peers[0].InsertTripleContext(context.Background(), triple.Triple{Subject: "b1", Predicate: "B#name", Object: "v"})
	m := schema.NewMapping("A", "B", schema.Equivalence, schema.Automatic, []schema.Correspondence{
		{SourceAttr: "org", TargetAttr: "name", Confidence: 0.9},
	})
	peers[0].InsertMappingContext(context.Background(), m)
	q := triple.Pattern{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Const("v")}
	rs, _ := blockingSearchReformulated(peers[1], q, SearchOptions{})
	if len(rs.Results) != 1 {
		t.Fatalf("pre-deprecation results = %v", rs.Results)
	}
	dep := m
	dep.Deprecated = true
	if _, err := peers[2].InsertMappingContext(context.Background(), dep); err != nil {
		t.Fatalf("InsertMapping: %v", err)
	}
	rs, _ = blockingSearchReformulated(peers[1], q, SearchOptions{})
	if len(rs.Results) != 0 {
		t.Errorf("post-deprecation results = %v", rs.Results)
	}
	// MappingsAt still reveals the deprecated mapping for analysis.
	all, err := peers[3].MappingsAt(context.Background(), "A")
	if err != nil || len(all) != 1 || !all[0].Deprecated {
		t.Errorf("MappingsAt = %v err=%v", all, err)
	}
}

func TestMappingCycleTerminates(t *testing.T) {
	// A ↔ B cycle must not loop the reformulation.
	_, peers := testNetwork(t, 16, 16)
	peers[0].InsertTripleContext(context.Background(), triple.Triple{Subject: "a1", Predicate: "A#x", Object: "v"})
	peers[0].InsertTripleContext(context.Background(), triple.Triple{Subject: "b1", Predicate: "B#y", Object: "v"})
	ab := schema.NewMapping("A", "B", schema.Equivalence, schema.Manual, []schema.Correspondence{{SourceAttr: "x", TargetAttr: "y", Confidence: 1}})
	ba := schema.NewMapping("B", "A", schema.Equivalence, schema.Manual, []schema.Correspondence{{SourceAttr: "y", TargetAttr: "x", Confidence: 1}})
	peers[0].InsertMappingContext(context.Background(), ab)
	peers[0].InsertMappingContext(context.Background(), ba)
	q := triple.Pattern{S: triple.Var("s"), P: triple.Const("A#x"), O: triple.Const("v")}
	rs, err := blockingSearchReformulated(peers[1], q, SearchOptions{})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if len(rs.Results) != 2 {
		t.Errorf("results = %v", rs.Results)
	}
}

func TestSearchConjunctive(t *testing.T) {
	_, peers := testNetwork(t, 16, 17)
	peers[0].InsertTripleContext(context.Background(), triple.Triple{Subject: "seq1", Predicate: "EMBL#Organism", Object: "Aspergillus nidulans"})
	peers[0].InsertTripleContext(context.Background(), triple.Triple{Subject: "seq1", Predicate: "EMBL#Length", Object: "1422"})
	peers[0].InsertTripleContext(context.Background(), triple.Triple{Subject: "seq2", Predicate: "EMBL#Organism", Object: "Aspergillus niger"})
	// seq2 has no Length triple.
	patterns := []triple.Pattern{
		{S: triple.Var("x"), P: triple.Const("EMBL#Organism"), O: triple.LikeTerm("%Aspergillus%")},
		{S: triple.Var("x"), P: triple.Const("EMBL#Length"), O: triple.Var("len")},
	}
	bindings, _, err := blockingConjunctive(peers[3], patterns, false, SearchOptions{})
	if err != nil {
		t.Fatalf("SearchConjunctive: %v", err)
	}
	if len(bindings) != 1 || bindings[0]["x"] != "seq1" || bindings[0]["len"] != "1422" {
		t.Errorf("bindings = %v", bindings)
	}
}

func TestSearchConjunctiveWithReformulation(t *testing.T) {
	_, peers := testNetwork(t, 16, 18)
	peers[0].InsertTripleContext(context.Background(), triple.Triple{Subject: "p1", Predicate: "A#org", Object: "aspergillus"})
	peers[0].InsertTripleContext(context.Background(), triple.Triple{Subject: "p1", Predicate: "B#len", Object: "700"})
	m := schema.NewMapping("A", "B", schema.Equivalence, schema.Manual, []schema.Correspondence{
		{SourceAttr: "length", TargetAttr: "len", Confidence: 1},
	})
	peers[0].InsertMappingContext(context.Background(), m)
	patterns := []triple.Pattern{
		{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Const("aspergillus")},
		{S: triple.Var("x"), P: triple.Const("A#length"), O: triple.Var("len")},
	}
	// Without reformulation the second pattern yields nothing.
	bindings, _, err := blockingConjunctive(peers[1], patterns, false, SearchOptions{})
	if err != nil {
		t.Fatalf("conjunctive: %v", err)
	}
	if len(bindings) != 0 {
		t.Errorf("unreformulated bindings = %v", bindings)
	}
	// With reformulation A#length → B#len joins through.
	bindings, _, err = blockingConjunctive(peers[1], patterns, true, SearchOptions{})
	if err != nil {
		t.Fatalf("conjunctive: %v", err)
	}
	if len(bindings) != 1 || bindings[0]["len"] != "700" {
		t.Errorf("reformulated bindings = %v", bindings)
	}
}

func TestSearchConjunctiveEmpty(t *testing.T) {
	_, peers := testNetwork(t, 4, 19)
	if _, _, err := blockingConjunctive(peers[0], nil, false, SearchOptions{}); err == nil {
		t.Error("empty conjunctive query should fail")
	}
}

func TestDomainConnectivityRegistry(t *testing.T) {
	_, peers := testNetwork(t, 16, 20)
	// Report degrees for three schemas; chain topology A→B→C:
	// A (0,1), B (1,1), C (1,0) ⇒ ci = [1·1 − (1+1+0)]/3 = −1/3.
	peers[0].ReportDomainDegree(context.Background(), "bio", "A", 0, 1)
	peers[1].ReportDomainDegree(context.Background(), "bio", "B", 1, 1)
	peers[2].ReportDomainDegree(context.Background(), "bio", "C", 1, 0)
	report, err := peers[5].DomainConnectivity(context.Background(), "bio")
	if err != nil {
		t.Fatalf("DomainConnectivity: %v", err)
	}
	if report.Schemas != 3 {
		t.Errorf("schemas = %d", report.Schemas)
	}
	want := (1.0 - 2.0) / 3.0
	if diff := report.CI - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("ci = %v, want %v", report.CI, want)
	}
	// Updating a schema's degrees replaces the old report.
	peers[0].ReportDomainDegree(context.Background(), "bio", "A", 2, 3)
	degrees, err := peers[4].DomainDegrees(context.Background(), "bio")
	if err != nil {
		t.Fatalf("DomainDegrees: %v", err)
	}
	if len(degrees) != 3 {
		t.Fatalf("degrees = %v", degrees)
	}
	for _, d := range degrees {
		if d.Schema == "A" && (d.InDegree != 2 || d.OutDegree != 3) {
			t.Errorf("stale degree report: %+v", d)
		}
	}
}

func TestGUIDUsesPath(t *testing.T) {
	_, peers := testNetwork(t, 8, 21)
	g := peers[0].GUID("local-1")
	if g == "" {
		t.Fatal("empty GUID")
	}
	path := peers[0].Node().Path().String()
	if len(g) <= len(path) || g[:len(path)] != path {
		t.Errorf("GUID %q does not start with path %q", g, path)
	}
}

func TestLocalDBMirrorsResponsibility(t *testing.T) {
	_, peers := testNetwork(t, 8, 22)
	tr := triple.Triple{Subject: "mirror-s", Predicate: "M#p", Object: "mirror-o"}
	peers[0].InsertTripleContext(context.Background(), tr)
	// Every peer responsible for one of the triple's keys must have it in
	// its relational DB.
	holders := 0
	for _, p := range peers {
		for _, k := range p.tripleKeys(tr) {
			if p.Node().Responsible(k) {
				if !p.DB().Has(tr) {
					t.Errorf("peer %s responsible but DB misses triple", p.Node().ID())
				}
				holders++
				break
			}
		}
	}
	if holders == 0 {
		t.Error("no responsible peers found")
	}
	// After deletion, all local DBs drop it.
	peers[1].DeleteTripleContext(context.Background(), tr)
	for _, p := range peers {
		if p.DB().Has(tr) {
			t.Errorf("peer %s DB retains deleted triple", p.Node().ID())
		}
	}
}

// TestTruncatedTraversalIsDegraded: when no replica of a schema key is
// reachable the mapping retrieval fails, the traversal stops below that
// schema, and the partial answer must say so. All
// "schema:"-prefixed keys share one leaf under the order-preserving hash, so
// killing the peers responsible for one schema's key cuts every mapping
// retrieval; the data key (the pattern routes on its object) stays alive.
// Seed 2 is one where routing to the data key does not itself detour around
// a dead peer, which would set Degraded by accident.
func TestTruncatedTraversalIsDegraded(t *testing.T) {
	net, peers := chainNetwork(t, 3, 2)
	full, err := blockingSearchReformulated(peers[0], triple.Pattern{
		S: triple.Var("x"), P: triple.Const("S0#org"), O: triple.Const("aspergillus"),
	}, SearchOptions{Parallelism: 1})
	if err != nil || len(full.Results) != 3 || full.Degraded {
		t.Fatalf("healthy run: %d rows, degraded=%v, err=%v", len(full.Results), full.Degraded, err)
	}

	dataKey := keyspace.Hash("aspergillus", peers[0].depth)
	var issuer *Peer
	for _, p := range peers {
		if !p.Node().Responsible(p.schemaKey("S0")) {
			if issuer == nil && !p.Node().Responsible(dataKey) {
				issuer = p
			}
			continue
		}
		if p.Node().Responsible(dataKey) {
			t.Fatalf("test setup: %s holds both the schema and the data key", p.Node().ID())
		}
		net.Fail(p.Node().ID())
	}

	rs, err := blockingSearchReformulated(issuer, full.Query, SearchOptions{Parallelism: 1})
	if err != nil {
		t.Fatalf("truncated run: %v", err)
	}
	if len(rs.Results) != 1 {
		t.Errorf("rows = %d, want only the unreformulated answer", len(rs.Results))
	}
	if !rs.Degraded {
		t.Errorf("%d of %d reachable rows returned without Degraded", len(rs.Results), len(full.Results))
	}
}
