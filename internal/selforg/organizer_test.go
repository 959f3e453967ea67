package selforg

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"gridvine/internal/keyspace"
	"gridvine/internal/mediation"
	"gridvine/internal/pgrid"
	"gridvine/internal/schema"
	"gridvine/internal/simnet"
	"gridvine/internal/triple"
)

// testSetup builds a network of peers plus an organizer on peers[0].
func testSetup(t *testing.T, peers int, seed int64) ([]*mediation.Peer, *Organizer) {
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
	ps := make([]*mediation.Peer, 0, peers)
	for _, n := range ov.Nodes() {
		ps = append(ps, mediation.NewPeer(n))
	}
	org, err := New(ps[0], Config{Domain: "bio", Rng: rand.New(rand.NewSource(seed + 100))})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return ps, org
}

// seedEntity inserts records about one entity under several schemas: each
// schema uses its own attribute names but identical values (the shared
// reference the candidate selection exploits).
func seedEntity(t *testing.T, p *mediation.Peer, subject string, organism string, length string, schemaAttrs map[string][2]string) {
	t.Helper()
	for schemaName, attrs := range schemaAttrs {
		for _, tr := range []triple.Triple{
			{Subject: subject, Predicate: schemaName + "#" + attrs[0], Object: organism},
			{Subject: subject, Predicate: schemaName + "#" + attrs[1], Object: length},
		} {
			if _, err := p.InsertTripleContext(context.Background(), tr); err != nil {
				t.Fatalf("InsertTriple: %v", err)
			}
		}
	}
}

func TestNewRequiresRng(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("New without Rng should fail")
	}
}

func TestRegisterSchemaAndNames(t *testing.T) {
	ps, org := testSetup(t, 16, 1)
	_ = ps
	for _, name := range []string{"EMBL", "EMP", "SWISS"} {
		if err := org.RegisterSchema(context.Background(), schema.NewSchema(name, "bio", "Organism", "Length")); err != nil {
			t.Fatalf("RegisterSchema(%s): %v", name, err)
		}
	}
	names, err := org.SchemaNames(context.Background())
	if err != nil {
		t.Fatalf("SchemaNames: %v", err)
	}
	if len(names) != 3 || names[0] != "EMBL" || names[1] != "EMP" || names[2] != "SWISS" {
		t.Errorf("names = %v", names)
	}
}

func TestCandidatePairsFromSharedReferences(t *testing.T) {
	ps, org := testSetup(t, 16, 2)
	org.RegisterSchema(context.Background(), schema.NewSchema("A", "bio", "Organism", "Length"))
	org.RegisterSchema(context.Background(), schema.NewSchema("B", "bio", "SystematicName", "SeqLen"))
	org.RegisterSchema(context.Background(), schema.NewSchema("C", "bio", "Taxon", "Size"))

	// e1, e2 shared between A and B; e3 only between A and C.
	seedEntity(t, ps[0], "acc:e1", "Aspergillus nidulans", "1422", map[string][2]string{
		"A": {"Organism", "Length"}, "B": {"SystematicName", "SeqLen"},
	})
	seedEntity(t, ps[0], "acc:e2", "Homo sapiens", "2210", map[string][2]string{
		"A": {"Organism", "Length"}, "B": {"SystematicName", "SeqLen"},
	})
	seedEntity(t, ps[0], "acc:e3", "Mus musculus", "980", map[string][2]string{
		"A": {"Organism", "Length"}, "C": {"Taxon", "Size"},
	})

	pairs, err := org.CandidatePairs(context.Background(), []string{"acc:e1", "acc:e2", "acc:e3"})
	if err != nil {
		t.Fatalf("CandidatePairs: %v", err)
	}
	if len(pairs) != 2 {
		t.Fatalf("pairs = %v", pairs)
	}
	if pairs[0].A != "A" || pairs[0].B != "B" || pairs[0].Shared != 2 {
		t.Errorf("best pair = %+v", pairs[0])
	}
	if pairs[1].A != "A" || pairs[1].B != "C" || pairs[1].Shared != 1 {
		t.Errorf("second pair = %+v", pairs[1])
	}
}

func TestAlignPairFindsCorrespondences(t *testing.T) {
	ps, org := testSetup(t, 16, 3)
	org.RegisterSchema(context.Background(), schema.NewSchema("A", "bio", "Organism", "Length"))
	org.RegisterSchema(context.Background(), schema.NewSchema("B", "bio", "SystematicName", "SeqLen"))
	subjects := []string{}
	organisms := []string{"Aspergillus nidulans", "Homo sapiens", "Mus musculus", "Danio rerio"}
	for i, orgName := range organisms {
		subj := fmt.Sprintf("acc:p%d", i)
		subjects = append(subjects, subj)
		seedEntity(t, ps[0], subj, orgName, fmt.Sprint(900+i*37), map[string][2]string{
			"A": {"Organism", "Length"}, "B": {"SystematicName", "SeqLen"},
		})
	}
	m, ok, err := org.AlignPair(context.Background(), "A", "B", subjects)
	if err != nil {
		t.Fatalf("AlignPair: %v", err)
	}
	if !ok {
		t.Fatal("no mapping found")
	}
	if m.Origin != schema.Automatic || !m.Bidirectional {
		t.Errorf("mapping meta = %+v", m)
	}
	got := map[string]string{}
	for _, c := range m.Correspondences {
		got[c.SourceAttr] = c.TargetAttr
	}
	if got["Organism"] != "SystematicName" || got["Length"] != "SeqLen" {
		t.Errorf("correspondences = %v", got)
	}
}

func TestAlignPairInsufficientSupport(t *testing.T) {
	ps, org := testSetup(t, 16, 4)
	org.RegisterSchema(context.Background(), schema.NewSchema("A", "bio", "Organism"))
	org.RegisterSchema(context.Background(), schema.NewSchema("B", "bio", "SystematicName"))
	// Only one shared subject, below minSharedSubjects=2.
	seedEntity(t, ps[0], "acc:only", "Aspergillus", "1", map[string][2]string{
		"A": {"Organism", "Organism"}, "B": {"SystematicName", "SystematicName"},
	})
	_, ok, err := org.AlignPair(context.Background(), "A", "B", []string{"acc:only"})
	if err != nil {
		t.Fatalf("AlignPair: %v", err)
	}
	if ok {
		t.Error("mapping created from a single shared instance")
	}
}

func TestRoundCreatesMappingsAndConnects(t *testing.T) {
	ps, org := testSetup(t, 24, 5)
	schemas := map[string][2]string{
		"S0": {"Organism", "Length"},
		"S1": {"SystematicName", "SeqLen"},
		"S2": {"Taxon", "MolSize"},
	}
	for name, attrs := range schemas {
		org.RegisterSchema(context.Background(), schema.NewSchema(name, "bio", attrs[0], attrs[1]))
	}
	var subjects []string
	organisms := []string{"Aspergillus nidulans", "Homo sapiens", "Mus musculus", "Danio rerio", "Rattus norvegicus"}
	for i, orgName := range organisms {
		subj := fmt.Sprintf("acc:x%d", i)
		subjects = append(subjects, subj)
		all := map[string][2]string{}
		for n, a := range schemas {
			all[n] = a
		}
		seedEntity(t, ps[0], subj, orgName, fmt.Sprint(1000+i*13), all)
	}

	report, err := org.Round(context.Background(), subjects)
	if err != nil {
		t.Fatalf("Round: %v", err)
	}
	if report.CIBefore >= 0 && report.Schemas > 1 {
		t.Logf("warning: CIBefore = %v with no mappings", report.CIBefore)
	}
	if len(report.Created) == 0 {
		t.Fatal("no mappings created")
	}
	// After enough rounds, the indicator must reach the target and queries
	// must reformulate across all three schemas.
	final := report
	for i := 0; i < 6 && (final.CIAfter < 0 || len(final.Created)+len(final.Deprecated) > 0); i++ {
		if final, err = org.Round(context.Background(), subjects); err != nil {
			t.Fatalf("Round: %v", err)
		}
	}
	if final.CIAfter < 0 {
		t.Errorf("final ci = %v, want ≥ 0", final.CIAfter)
	}
	q := triple.Pattern{S: triple.Var("x"), P: triple.Const("S0#Organism"), O: triple.Const("Homo sapiens")}
	rs, err := mediation.CollectPattern(context.Background(), ps[3], mediation.Request{Pattern: &q, Reformulate: true})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	// The entity should be found under all three schemas (same subject).
	schemasSeen := map[string]bool{}
	for _, r := range rs.Results {
		if name, _, ok := schema.SplitPredicateURI(r.Triple.Predicate); ok {
			schemasSeen[name] = true
		}
	}
	if len(schemasSeen) != 3 {
		t.Errorf("reformulation reached %v, want all 3 schemas", schemasSeen)
	}
}

func TestRoundSkipsConnectedNetwork(t *testing.T) {
	ps, org := testSetup(t, 16, 6)
	org.RegisterSchema(context.Background(), schema.NewSchema("A", "bio", "x"))
	org.RegisterSchema(context.Background(), schema.NewSchema("B", "bio", "y"))
	// Manually connect A and B bidirectionally: 2-schema graph with a
	// bidirectional mapping has each node at (in,out)=(1,1) ⇒ ci = 0.
	m := schema.NewMapping("A", "B", schema.Equivalence, schema.Manual, []schema.Correspondence{
		{SourceAttr: "x", TargetAttr: "y", Confidence: 1},
	})
	m.Bidirectional = true
	ps[0].InsertMappingContext(context.Background(), m)
	ms, _ := org.GatherMappings(context.Background())
	org.RefreshDegrees(context.Background(), ms)

	report, err := org.Round(context.Background(), nil)
	if err != nil {
		t.Fatalf("Round: %v", err)
	}
	if report.CIBefore < 0 {
		t.Errorf("ci = %v, want ≥ 0", report.CIBefore)
	}
	if len(report.Created) != 0 {
		t.Errorf("connected network should not trigger creation: %v", report.Created)
	}
}

func TestRoundDeprecatesPlantedBadMapping(t *testing.T) {
	ps, org := testSetup(t, 24, 7)
	for _, name := range []string{"A", "B", "C", "D"} {
		org.RegisterSchema(context.Background(), schema.NewSchema(name, "bio", "x", "y", "z"))
	}
	ident := func(src, tgt string) schema.Mapping {
		return schema.NewMapping(src, tgt, schema.Equivalence, schema.Automatic, []schema.Correspondence{
			{SourceAttr: "x", TargetAttr: "x", Confidence: 0.8},
			{SourceAttr: "y", TargetAttr: "y", Confidence: 0.8},
			{SourceAttr: "z", TargetAttr: "z", Confidence: 0.8},
		})
	}
	for _, m := range []schema.Mapping{ident("A", "B"), ident("B", "C"), ident("C", "A"), ident("C", "D"), ident("D", "A")} {
		ps[0].InsertMappingContext(context.Background(), m)
	}
	bad := schema.NewMapping("B", "D", schema.Equivalence, schema.Automatic, []schema.Correspondence{
		{SourceAttr: "x", TargetAttr: "y", Confidence: 0.8},
		{SourceAttr: "y", TargetAttr: "z", Confidence: 0.8},
		{SourceAttr: "z", TargetAttr: "x", Confidence: 0.8},
	})
	ps[0].InsertMappingContext(context.Background(), bad)
	ms, _ := org.GatherMappings(context.Background())
	org.RefreshDegrees(context.Background(), ms)

	report, err := org.Round(context.Background(), nil)
	if err != nil {
		t.Fatalf("Round: %v", err)
	}
	found := false
	for _, id := range report.Deprecated {
		if id == bad.ID {
			found = true
		} else {
			t.Errorf("good mapping %s deprecated", id)
		}
	}
	if !found {
		t.Errorf("bad mapping not deprecated (deprecated = %v, evidence = %d)", report.Deprecated, report.Evidence)
	}
	// The deprecation must be visible network-wide.
	mappings, _, err := ps[5].MappingsFrom(context.Background(), "B")
	if err != nil {
		t.Fatalf("MappingsFrom: %v", err)
	}
	for _, m := range mappings {
		if m.ID == bad.ID {
			t.Error("deprecated mapping still served for reformulation")
		}
	}
}

func TestDeprecatedMappingNotRecreated(t *testing.T) {
	// After deprecation, the same (wrong) alignment must not come back in
	// the next round: the organizer checks the rejected set.
	ps, org := testSetup(t, 16, 8)
	org.RegisterSchema(context.Background(), schema.NewSchema("A", "bio", "Name"))
	org.RegisterSchema(context.Background(), schema.NewSchema("B", "bio", "Name"))
	// Shared instances whose "Name" attributes hold identical values, so
	// AlignPair would produce exactly the same mapping again.
	for i := 0; i < 4; i++ {
		subj := fmt.Sprintf("acc:r%d", i)
		ps[0].InsertTripleContext(context.Background(), triple.Triple{Subject: subj, Predicate: "A#Name", Object: fmt.Sprintf("val%d", i)})
		ps[0].InsertTripleContext(context.Background(), triple.Triple{Subject: subj, Predicate: "B#Name", Object: fmt.Sprintf("val%d", i)})
	}
	subjects := []string{"acc:r0", "acc:r1", "acc:r2", "acc:r3"}
	m, ok, err := org.AlignPair(context.Background(), "A", "B", subjects)
	if err != nil || !ok {
		t.Fatalf("AlignPair: %v %v", ok, err)
	}
	dep := m
	dep.Deprecated = true
	ps[0].InsertMappingContext(context.Background(), dep)

	report, err := org.Round(context.Background(), subjects)
	if err != nil {
		t.Fatalf("Round: %v", err)
	}
	for _, created := range report.Created {
		if created.ID == m.ID {
			t.Error("previously deprecated mapping recreated")
		}
	}
}

// TestRoundRepublishesStatsDigests: each maintenance round refreshes the
// organizer peer's statistics digests, and a new round's digest supersedes
// the stale one at the schema key instead of accumulating next to it.
func TestRoundRepublishesStatsDigests(t *testing.T) {
	ps, setupOrg := testSetup(t, 8, 42)
	if err := setupOrg.RegisterSchema(context.Background(), schema.NewSchema("A", "bio", "org")); err != nil {
		t.Fatalf("RegisterSchema: %v", err)
	}
	var subjects []string
	for i := 0; i < 20; i++ {
		subj := fmt.Sprintf("acc:%03d", i)
		subjects = append(subjects, subj)
		if _, err := ps[0].InsertTripleContext(context.Background(), triple.Triple{
			Subject: subj, Predicate: "A#org", Object: fmt.Sprintf("species-%d", i%4),
		}); err != nil {
			t.Fatalf("InsertTriple: %v", err)
		}
	}

	digestsFrom := func(origin string) []mediation.StatsDigest {
		t.Helper()
		key := keyspace.Hash("schema:A", keyspace.DefaultDepth)
		values, _, err := ps[0].Node().Retrieve(context.Background(), key)
		if err != nil {
			t.Fatalf("Retrieve(schema:A): %v", err)
		}
		var out []mediation.StatsDigest
		for _, v := range values {
			if d, ok := v.(mediation.StatsDigest); ok && d.Origin == origin && d.Schema == "A" {
				out = append(out, d)
			}
		}
		return out
	}
	tripleCount := func(d mediation.StatsDigest) int {
		n := 0
		for _, ps := range d.Predicates {
			n += ps.Triples
		}
		return n
	}

	// The order-preserving hash clusters these lowercase keys onto one
	// leaf, so run the maintenance loop on a peer that actually holds data
	// (any schema keeper may drive maintenance).
	keeper := ps[0]
	for _, p := range ps {
		if len(p.DB().All()) > 0 {
			keeper = p
			break
		}
	}
	org, nerr := New(keeper, Config{Domain: "bio", Rng: rand.New(rand.NewSource(7))})
	if nerr != nil {
		t.Fatalf("New: %v", nerr)
	}

	origin := string(keeper.Node().ID())
	r1, err := org.Round(context.Background(), subjects)
	if err != nil {
		t.Fatalf("Round 1: %v", err)
	}
	if r1.StatsDigests < 1 {
		t.Fatalf("round 1 published %d digests, want >= 1", r1.StatsDigests)
	}
	first := digestsFrom(origin)
	if len(first) != 1 {
		t.Fatalf("after round 1: %d digests from %s, want 1", len(first), origin)
	}

	// Grow the local extension, run another round: the fresh digest must
	// replace — not join — the stale one, and reflect the new counts.
	for i := 20; i < 40; i++ {
		if _, err := ps[0].InsertTripleContext(context.Background(), triple.Triple{
			Subject: fmt.Sprintf("acc:%03d", i), Predicate: "A#org", Object: "species-9",
		}); err != nil {
			t.Fatalf("InsertTriple: %v", err)
		}
	}
	r2, err := org.Round(context.Background(), subjects)
	if err != nil {
		t.Fatalf("Round 2: %v", err)
	}
	if r2.StatsDigests < 1 {
		t.Fatalf("round 2 published %d digests, want >= 1", r2.StatsDigests)
	}
	second := digestsFrom(origin)
	if len(second) != 1 {
		t.Fatalf("after round 2: %d digests from %s, want exactly 1 (stale digest must be superseded)", len(second), origin)
	}
	if !second[0].Published.After(first[0].Published) {
		t.Errorf("republished digest not fresher: %v vs %v", second[0].Published, first[0].Published)
	}
	if tripleCount(second[0]) <= tripleCount(first[0]) {
		t.Errorf("refreshed digest triples = %d, want more than the stale %d",
			tripleCount(second[0]), tripleCount(first[0]))
	}
}

func TestRoundWarmsCompositeCache(t *testing.T) {
	ps, setupOrg := testSetup(t, 16, 77)
	for _, name := range []string{"A", "B", "C"} {
		if err := setupOrg.RegisterSchema(context.Background(), schema.NewSchema(name, "bio", "org")); err != nil {
			t.Fatalf("RegisterSchema(%s): %v", name, err)
		}
	}
	for _, m := range []schema.Mapping{
		schema.NewMapping("A", "B", schema.Equivalence, schema.Manual,
			[]schema.Correspondence{{SourceAttr: "org", TargetAttr: "org", Confidence: 1}}),
		schema.NewMapping("B", "C", schema.Equivalence, schema.Manual,
			[]schema.Correspondence{{SourceAttr: "org", TargetAttr: "org", Confidence: 1}}),
	} {
		if _, err := ps[0].InsertMappingContext(context.Background(), m); err != nil {
			t.Fatalf("InsertMapping: %v", err)
		}
	}

	opts := mediation.SearchOptions{MaxDepth: 3, Parallelism: 1}
	org, err := New(ps[0], Config{
		Domain:  "bio",
		Rng:     rand.New(rand.NewSource(8)),
		Compose: &opts,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	r1, err := org.Round(context.Background(), nil)
	if err != nil {
		t.Fatalf("Round 1: %v", err)
	}
	// One closure per registered schema attribute: A#org, B#org, C#org.
	if r1.CompositesWarmed != 3 {
		t.Fatalf("round 1 warmed %d closures, want 3", r1.CompositesWarmed)
	}

	// A steady-state composite query must now be a pure cache hit.
	before := ps[0].ComposeStats()
	q := triple.Pattern{S: triple.Var("s"), P: triple.Const("A#org"), O: triple.Var("o")}
	qopts := opts
	qopts.ComposeMappings = true
	if _, err := mediation.CollectPattern(context.Background(), ps[0], mediation.Request{Pattern: &q, Reformulate: true, Options: qopts}); err != nil {
		t.Fatalf("Collect: %v", err)
	}
	after := ps[0].ComposeStats()
	if after.Hits != before.Hits+1 || after.Builds != before.Builds {
		t.Errorf("warmed query was not a cache hit: before %+v after %+v", before, after)
	}

	// Nothing changed since: the next round rebuilds no closure.
	r2, err := org.Round(context.Background(), nil)
	if err != nil {
		t.Fatalf("Round 2: %v", err)
	}
	if r2.CompositesWarmed != 0 {
		t.Errorf("round 2 rebuilt %d closures on an unchanged graph, want 0", r2.CompositesWarmed)
	}
}
