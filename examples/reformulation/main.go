// Reformulation: the paper's Figure 2 walk-through, step by step.
//
// A query posed against EMBL#Organism is reformulated through the schema
// mapping EMBL#Organism ↔ EMP#SystematicName and aggregates results from
// both schemas:
//
//	SearchFor(x1? : (x1?, EMBL#Organism, %Aspergillus%))
//	 1) Search for schema mapping  EMBL#Organism ↔ EMP#SystematicName
//	 2) Reformulate query          SearchFor(x2? : (x2?, EMP#SystematicName, %Aspergillus%))
//	 3) Aggregate results          x1 = {EMBL:A78712, EMBL:A78767}, x2 = NEN94295-05
//
//	go run ./examples/reformulation
package main

import (
	"context"
	"fmt"
	"log"

	"gridvine"
)

func main() {
	net, err := gridvine.NewNetwork(gridvine.Options{Peers: 16, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	defer net.Close()
	p := net.Peer(0)

	ctx := context.Background()

	// The figure's data: two nucleotide sequences described under EMBL, one
	// protein entry described under EMP, plus the mapping — one batch Write.
	batch := &gridvine.Batch{}
	for _, t := range []gridvine.Triple{
		{Subject: "EMBL:A78712", Predicate: "EMBL#Organism", Object: "Aspergillus nidulans"},
		{Subject: "EMBL:A78767", Predicate: "EMBL#Organism", Object: "Aspergillus niger"},
		{Subject: "NEN94295-05", Predicate: "EMP#SystematicName", Object: "Aspergillus flavus"},
	} {
		batch.InsertTriple(t)
	}
	batch.PublishMapping(gridvine.NewManualMapping("EMBL", "EMP",
		map[string]string{"Organism": "SystematicName"}))
	if rec, err := p.Write(ctx, batch); err != nil {
		log.Fatal(err)
	} else if rec.Applied != batch.Len() {
		log.Fatalf("batch applied %d of %d entries: %v", rec.Applied, batch.Len(), rec.FirstErr())
	}

	query := gridvine.Pattern{
		S: gridvine.Var("x1"),
		P: gridvine.Const("EMBL#Organism"),
		O: gridvine.Like("%Aspergillus%"),
	}
	fmt.Printf("SearchFor(x1? : %v)\n\n", query)

	// The issuer looks the mappings of each schema it reaches up and sends
	// the rewritten patterns in one message per destination key.
	cur, err := net.Peer(11).Query(ctx, gridvine.Request{Pattern: &query, Reformulate: true})
	if err != nil {
		log.Fatal(err)
	}
	rs, err := gridvine.CollectPattern(ctx, cur)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d results, %d reformulations, %d messages\n", len(rs.Results), rs.Reformulations, rs.Messages)
	for _, r := range rs.Results {
		step := "original query"
		if len(r.MappingPath) > 0 {
			step = fmt.Sprintf("reformulated via %v", r.MappingPath)
		}
		fmt.Printf("  %-13s ← %-24s (%s)\n", r.Triple.Subject, r.Pattern.P.Value, step)
	}
}
