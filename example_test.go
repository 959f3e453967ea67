package gridvine_test

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"gridvine"
	"gridvine/internal/bioworkload"
)

// serial pins the reformulation fan-out to one worker, so the message
// counts the examples print do not depend on the machine's core count.
var serial = gridvine.SearchOptions{Parallelism: 1}

// write ships b from p and stops the example unless every entry applied.
func write(p *gridvine.Peer, b *gridvine.Batch) *gridvine.Receipt {
	rec, err := p.Write(context.Background(), b)
	if err != nil {
		log.Fatal(err)
	}
	if rec.Applied != b.Len() {
		log.Fatalf("batch applied %d of %d entries: %v", rec.Applied, b.Len(), rec.FirstErr())
	}
	return rec
}

// The paper's Figure 2 walk-through. Two nucleotide sequences are
// described under EMBL and one protein entry under EMP; the mapping
// EMBL#Organism ↔ EMP#SystematicName makes them interoperable:
//
//	SearchFor(x1? : (x1?, EMBL#Organism, %Aspergillus%))
//	 1) Search for schema mapping  EMBL#Organism ↔ EMP#SystematicName
//	 2) Reformulate query          SearchFor(x2? : (x2?, EMP#SystematicName, %Aspergillus%))
//	 3) Aggregate results          x1 = {EMBL:A78712, EMBL:A78767}, x2 = NEN94295-05
//
// A conjunctive query then joins two EMBL patterns on the shared x.
func ExampleNewNetwork() {
	// A 16-peer network over the in-memory transport (set TCP: true to run
	// the peers on real localhost sockets instead).
	net, err := gridvine.NewNetwork(gridvine.Options{Peers: 16, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	defer net.Close()
	ctx := context.Background()

	// Any peer can write. Each triple is indexed at the overlay by its
	// subject, predicate and object keys; a Batch ships the triples, the
	// schemas and the mapping in one key-grouped Write.
	batch := &gridvine.Batch{Parallelism: 1}
	for _, t := range []gridvine.Triple{
		{Subject: "EMBL:A78712", Predicate: "EMBL#Organism", Object: "Aspergillus nidulans"},
		{Subject: "EMBL:A78712", Predicate: "EMBL#Length", Object: "1422"},
		{Subject: "EMBL:A78767", Predicate: "EMBL#Organism", Object: "Aspergillus niger"},
		{Subject: "NEN94295-05", Predicate: "EMP#SystematicName", Object: "Aspergillus flavus"},
	} {
		batch.InsertTriple(t)
	}
	batch.PublishSchema(gridvine.NewSchema("EMBL", "bio", "Organism", "Length"))
	batch.PublishSchema(gridvine.NewSchema("EMP", "bio", "SystematicName"))
	batch.PublishMapping(gridvine.NewManualMapping("EMBL", "EMP",
		map[string]string{"Organism": "SystematicName"}))
	write(net.Peer(0), batch)

	// Query from another peer. The issuer looks up the mappings of each
	// schema it reaches and sends the rewritten patterns in one message per
	// destination key.
	query := gridvine.Pattern{
		S: gridvine.Var("x1"),
		P: gridvine.Const("EMBL#Organism"),
		O: gridvine.Like("%Aspergillus%"),
	}
	fmt.Printf("SearchFor(x1? : %v)\n", query)
	rs, err := gridvine.CollectPattern(ctx, net.Peer(11), gridvine.Request{Pattern: &query, Reformulate: true, Options: serial})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d results, %d reformulations, %d messages\n", len(rs.Results), rs.Reformulations, rs.Messages)
	for _, r := range rs.Results {
		step := "original query"
		if len(r.MappingPath) > 0 {
			step = fmt.Sprintf("reformulated via %v", r.MappingPath)
		}
		fmt.Printf("  %-13s ← %-20s (%s)\n", r.Triple.Subject, r.Pattern.P.Value, step)
	}

	// Conjunctive query: join two patterns on the shared variable x.
	set, _, err := gridvine.CollectSet(ctx, net.Peer(3), gridvine.Request{Patterns: []gridvine.Pattern{
		{S: gridvine.Var("x"), P: gridvine.Const("EMBL#Organism"), O: gridvine.Like("%Aspergillus%")},
		{S: gridvine.Var("x"), P: gridvine.Const("EMBL#Length"), O: gridvine.Var("len")},
	}})
	if err != nil {
		log.Fatal(err)
	}
	for _, b := range set.ToBindings() {
		fmt.Printf("joined: x=%s len=%s\n", b["x"], b["len"])
	}
	// Output:
	// SearchFor(x1? : (x1?, EMBL#Organism, LIKE %Aspergillus%))
	// 3 results, 1 reformulations, 5 messages
	//   EMBL:A78712   ← EMBL#Organism        (original query)
	//   EMBL:A78767   ← EMBL#Organism        (original query)
	//   NEN94295-05   ← EMP#SystematicName   (reformulated via [map-4e66fcf776393fbb])
	// joined: x=EMBL:A78712 len=1422
}

// The demonstration workload of paper §4: heterogeneous protein and
// nucleotide schemas built from a shared concept pool, bulk-loaded with
// their ground-truth mappings in one Write, and the recall a query mix
// reaches with and without reformulation.
func ExamplePeer_Write() {
	// A 12-schema slice of the 50-schema demonstration.
	w := bioworkload.Generate(bioworkload.Config{Schemas: 12, Entities: 80, Seed: 3})
	fmt.Printf("workload: %d schemas, %d entities, %d triples\n",
		len(w.Schemas), len(w.Entities), len(w.Triples()))
	fmt.Println("the 'organism' concept across schemas:")
	for _, info := range w.Schemas[:6] {
		fmt.Printf("  %-10s → %s\n", info.Schema.Name, info.Schema.PredicateURI(info.ConceptAttr["organism"]))
	}

	net, err := gridvine.NewNetwork(gridvine.Options{Peers: 48, Seed: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer net.Close()
	ctx := context.Background()

	// Triples, schema definitions and the mappings connecting every schema
	// to the next, as one batch: the engine groups the index keys by
	// responsible peer and ships one message per destination instead of
	// three routed updates per triple.
	batch := &gridvine.Batch{Parallelism: 1}
	for _, t := range w.Triples() {
		batch.InsertTriple(t)
	}
	for _, info := range w.Schemas {
		batch.PublishSchema(info.Schema)
	}
	for _, m := range w.SeedMappings(len(w.Schemas) - 1) {
		batch.PublishMapping(m)
	}
	rec := write(net.Peer(0), batch)
	fmt.Printf("bulk load: %d entries applied in %d grouped shipments (%d overlay messages)\n",
		rec.Applied, rec.Groups, rec.Messages())

	// Without reformulation a query sees one schema's share of the data;
	// with it, the mapping chain aggregates the rest.
	queries := w.Queries(30, rand.New(rand.NewSource(5)))
	recall := func(reformulate bool) float64 {
		sum := 0.0
		for _, q := range queries {
			rs, err := gridvine.CollectPattern(ctx, net.RandomPeer(), gridvine.Request{Pattern: &q.Pattern, Reformulate: reformulate, Options: serial})
			if err != nil {
				log.Fatal(err)
			}
			sum += q.Recall(rs.Triples())
		}
		return sum / float64(len(queries))
	}
	fmt.Printf("mean recall over %d queries without reformulation: %.2f\n", len(queries), recall(false))
	fmt.Printf("mean recall over %d queries with reformulation:    %.2f\n", len(queries), recall(true))

	// One conjunctive query over a single schema.
	info := w.Schemas[0]
	set, _, err := gridvine.CollectSet(ctx, net.Peer(1), gridvine.Request{Patterns: []gridvine.Pattern{
		{S: gridvine.Var("x"), P: gridvine.Const(info.Schema.PredicateURI(info.ConceptAttr["organism"])), O: gridvine.Like("%Aspergillus%")},
		{S: gridvine.Var("x"), P: gridvine.Const(info.Schema.PredicateURI(info.ConceptAttr["accession"])), O: gridvine.Var("acc")},
	}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Aspergillus entries in %s with accessions:\n", info.Schema.Name)
	for _, b := range set.ToBindings() {
		fmt.Printf("  %s (accession %s)\n", b["x"], b["acc"])
	}
	// Output:
	// workload: 12 schemas, 80 entities, 3094 triples
	// the 'organism' concept across schemas:
	//   EMBL       → EMBL#SystematicName
	//   EMP        → EMP#OrganismName
	//   SwissProt  → SwissProt#Species
	//   TrEMBL     → TrEMBL#Organism
	//   GenBank    → GenBank#Organism
	//   DDBJ       → DDBJ#BioSource
	// bulk load: 3117 entries applied in 6 grouped shipments (17 overlay messages)
	// mean recall over 30 queries without reformulation: 0.17
	// mean recall over 30 queries with reformulation:    0.42
	// Aspergillus entries in EMBL with accessions:
	//   acc:GV00001 (accession GV00001)
	//   acc:GV00022 (accession GV00022)
	//   acc:GV00024 (accession GV00024)
}

// The §3–§4 maintenance loop. Schemas start almost unconnected; the
// organizer watches the connectivity indicator, creates mappings from
// shared instance references, and the Bayesian cycle analysis deprecates
// a deliberately planted wrong mapping.
func ExampleNetwork_NewOrganizer() {
	w := bioworkload.Generate(bioworkload.Config{Schemas: 8, Entities: 60, Seed: 11})
	net, err := gridvine.NewNetwork(gridvine.Options{Peers: 32, Seed: 12})
	if err != nil {
		log.Fatal(err)
	}
	defer net.Close()
	ctx := context.Background()

	// The data, one manual seed mapping, and one WRONG mapping: its
	// correspondences cross concepts (organism ↔ accession), so cycles
	// through it do not compose to the identity.
	a, b := w.Schemas[2], w.Schemas[4]
	wrong := gridvine.NewAutomaticMapping(a.Schema.Name, b.Schema.Name, map[string]string{
		a.ConceptAttr["organism"]:  b.ConceptAttr["accession"],
		a.ConceptAttr["accession"]: b.ConceptAttr["organism"],
	}, 0.8)
	batch := &gridvine.Batch{Parallelism: 1}
	for _, t := range w.Triples() {
		batch.InsertTriple(t)
	}
	batch.PublishMapping(w.SeedMappings(1)[0])
	batch.PublishMapping(wrong)
	write(net.Peer(0), batch)
	fmt.Printf("planted wrong mapping %s: %s ↔ %s\n", wrong.ID, a.Schema.Name, b.Schema.Name)

	org, err := net.NewOrganizer(net.Peer(0), gridvine.OrganizerOptions{
		Domain:              w.Domain,
		MaxMappingsPerRound: 4,
		Seed:                13,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, info := range w.Schemas {
		if err := org.RegisterSchema(ctx, info.Schema); err != nil {
			log.Fatal(err)
		}
	}
	for round := 1; round <= 4; round++ {
		r, err := org.Round(ctx, w.Subjects())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("round %d: ci %+0.2f → %+0.2f, created %d, deprecated %v (cycles evaluated: %d)\n",
			round, r.CIBefore, r.CIAfter, len(r.Created), r.Deprecated, r.Evidence)
		for _, m := range r.Created {
			fmt.Printf("    + %s\n", m)
		}
	}

	ms, err := org.GatherMappings(ctx)
	if err != nil {
		log.Fatal(err)
	}
	got, _ := ms.Get(wrong.ID)
	fmt.Printf("final state: %d active mappings, %d deprecated; planted wrong mapping deprecated: %v\n",
		len(ms.Active()), ms.Len()-len(ms.Active()), got.Deprecated)
	// Output:
	// planted wrong mapping map-e6ff5f8e5a0dea5c: SwissProt ↔ GenBank
	// round 1: ci +0.00 → +2.00, created 4, deprecated [] (cycles evaluated: 0)
	//     + map-38c646ae3abbf338: EMBL ↔ GenBank (equivalence, automatic, conf 0.96, 2 corr)
	//     + map-241ea155f474a6e0: DDBJ ↔ GenBank (equivalence, automatic, conf 0.78, 5 corr)
	//     + map-982b11d2f64e6dd2: GenBank ↔ TrEMBL (equivalence, automatic, conf 0.69, 4 corr)
	//     + map-02002fc94865eea0: DDBJ ↔ PDB (equivalence, automatic, conf 0.68, 3 corr)
	// round 2: ci +2.00 → +4.25, created 4, deprecated [map-e6ff5f8e5a0dea5c] (cycles evaluated: 7)
	//     + map-840764ac05d304d7: GenBank ↔ PDB (equivalence, automatic, conf 0.80, 3 corr)
	//     + map-771456d757eb0df4: DDBJ ↔ SwissProt (equivalence, automatic, conf 0.84, 5 corr)
	//     + map-cf0e5f1187a57c81: EMBL ↔ SwissProt (equivalence, automatic, conf 0.78, 2 corr)
	//     + map-e3eda4ab8258daac: PDB ↔ TrEMBL (equivalence, automatic, conf 0.68, 4 corr)
	// round 3: ci +4.25 → +10.00, created 4, deprecated [] (cycles evaluated: 19)
	//     + map-18637f25c80573fe: GenBank ↔ SwissProt (equivalence, automatic, conf 0.87, 3 corr)
	//     + map-3b0e93bd656ff7d3: GenBank ↔ PIR (equivalence, automatic, conf 0.78, 4 corr)
	//     + map-25604ecbf040124c: PDB ↔ SwissProt (equivalence, automatic, conf 0.78, 4 corr)
	//     + map-b850fb4fe3a9b233: DDBJ ↔ EMBL (equivalence, automatic, conf 0.71, 5 corr)
	// round 4: ci +10.00 → +10.00, created 0, deprecated [] (cycles evaluated: 19)
	// final state: 13 active mappings, 1 deprecated; planted wrong mapping deprecated: true
}

// Peer.Query serves every query shape through one Cursor, pulled at the
// consumer's pace; Peer.Run pushes the same rows to a callback on the
// caller's goroutine. Here a query against S0#organism reformulates wave by
// wave along a chain of four schemas, and a Limit stops the fan-out as soon
// as enough rows exist.
func ExamplePeer_Query() {
	net, err := gridvine.NewNetwork(gridvine.Options{Peers: 32, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	defer net.Close()
	ctx := context.Background()

	batch := &gridvine.Batch{Parallelism: 1}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("S%d", i)
		for e := 0; e < 5; e++ {
			batch.InsertTriple(gridvine.Triple{
				Subject:   fmt.Sprintf("acc:%s-%d", name, e),
				Predicate: name + "#organism",
				Object:    fmt.Sprintf("Aspergillus strain %d", e),
			})
		}
		if i < 3 {
			batch.PublishMapping(gridvine.NewManualMapping(
				name, fmt.Sprintf("S%d", i+1), map[string]string{"organism": "organism"}))
		}
	}
	write(net.Peer(0), batch)

	q := gridvine.Pattern{S: gridvine.Var("x"), P: gridvine.Const("S0#organism"), O: gridvine.Var("org")}
	issuer := net.Peer(17)
	run := func(limit int) gridvine.QueryStats {
		cur, err := issuer.Query(ctx, gridvine.Request{Pattern: &q, Reformulate: true, Limit: limit, Options: serial})
		if err != nil {
			log.Fatal(err)
		}
		defer cur.Close()
		// The first row arrives while deeper waves are still fanning out.
		if row, ok := cur.Next(ctx); ok && limit == 0 {
			fmt.Printf("first row: %v (schema %s)\n", row.Values, row.Result.Pattern.P.Value)
		}
		for _, ok := cur.Next(ctx); ok; _, ok = cur.Next(ctx) {
		}
		if err := cur.Err(); err != nil {
			log.Fatal(err)
		}
		return cur.Stats()
	}
	full := run(0)
	fmt.Printf("full answer: %d rows (%d reformulations, %d messages)\n", full.Rows, full.Reformulations, full.Messages)
	top := run(3)
	fmt.Printf("LIMIT 3: %d rows, %d messages\n", top.Rows, top.Messages)

	// Run hands the rows over as the engine lets go of them: the root
	// pattern's before the mapping lookups, then the reformulated ones.
	handOvers := 0
	_, pushed, err := issuer.Run(ctx, gridvine.Request{Pattern: &q, Reformulate: true, Options: serial},
		func(rows []gridvine.QueryRow, _ []string) bool {
			handOvers++
			return true
		})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Run: %d rows in %d hand-overs\n", pushed.Rows, handOvers)

	// RDQL carries the same limit in-language.
	rows, _, err := gridvine.CollectRows(ctx, issuer, gridvine.Request{
		RDQL: `SELECT ?x WHERE (?x, <S0#organism>, "%Aspergillus%") LIMIT 2`,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RDQL LIMIT 2: %v\n", rows)
	// Output:
	// first row: [acc:S0-0 Aspergillus strain 0] (schema S0#organism)
	// full answer: 20 rows (3 reformulations, 10 messages)
	// LIMIT 3: 3 rows, 1 messages
	// Run: 20 rows in 2 hand-overs
	// RDQL LIMIT 2: [[acc:S0-0] [acc:S0-1]]
}
