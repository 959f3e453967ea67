// Command gridvine runs a local GridVine network and executes a
// triple-pattern query against it, demonstrating the full stack: P-Grid
// overlay (in-memory or real TCP sockets), triple storage indexed by
// subject/predicate/object, schemas, mappings and query reformulation.
//
// Usage:
//
//	gridvine -peers 32 -query "x? EMBL#Organism %Aspergillus%"
//	gridvine -tcp -peers 8
//
// Query syntax: three whitespace-separated terms (subject predicate
// object); "name?" is a variable, a term containing % is a LIKE pattern,
// anything else is a constant.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"gridvine"
)

func main() {
	peers := flag.Int("peers", 16, "number of peers")
	seed := flag.Int64("seed", 1, "random seed")
	tcp := flag.Bool("tcp", false, "run peers over local TCP sockets")
	bootstrap := flag.Bool("bootstrap", false, "construct the overlay by self-organizing pairwise exchanges")
	queryStr := flag.String("query", "x? EMBL#Organism %Aspergillus%", "triple pattern to resolve")
	rdqlStr := flag.String("rdql", "", "RDQL query (overrides -query), e.g. 'SELECT ?x WHERE (?x, <EMBL#Organism>, \"%Aspergillus%\")'")
	flag.Parse()

	net, err := gridvine.NewNetwork(gridvine.Options{
		Peers:                 *peers,
		Seed:                  *seed,
		TCP:                   *tcp,
		SelfOrganizingOverlay: *bootstrap,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "building network:", err)
		os.Exit(1)
	}
	defer net.Close()
	fmt.Printf("network: %d peers, %d overlay leaves, tcp=%v\n",
		net.NumPeers(), len(net.Overlay().Paths()), *tcp)

	// Share demonstration data under two heterogeneous schemas plus the
	// mapping connecting them (the paper's Figure 2 setting), shipped as
	// one key-grouped batch write.
	ctx := context.Background()
	p := net.Peer(0)
	seedData := []gridvine.Triple{
		{Subject: "EMBL:A78712", Predicate: "EMBL#Organism", Object: "Aspergillus nidulans"},
		{Subject: "EMBL:A78767", Predicate: "EMBL#Organism", Object: "Aspergillus niger"},
		{Subject: "EMBL:B00120", Predicate: "EMBL#Organism", Object: "Homo sapiens"},
		{Subject: "NEN94295-05", Predicate: "EMP#SystematicName", Object: "Aspergillus flavus"},
		{Subject: "NEN00001-99", Predicate: "EMP#SystematicName", Object: "Mus musculus"},
	}
	batch := &gridvine.Batch{}
	for _, t := range seedData {
		batch.InsertTriple(t)
	}
	batch.PublishSchema(gridvine.NewSchema("EMBL", "protein-sequences", "Organism"))
	batch.PublishSchema(gridvine.NewSchema("EMP", "protein-sequences", "SystematicName"))
	batch.PublishMapping(gridvine.NewManualMapping("EMBL", "EMP", map[string]string{"Organism": "SystematicName"}))
	rec, err := p.Write(ctx, batch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loading seed data:", err)
		os.Exit(1)
	}
	if rec.Applied != batch.Len() {
		fmt.Fprintf(os.Stderr, "seed batch applied %d of %d entries: %v\n", rec.Applied, batch.Len(), rec.FirstErr())
		os.Exit(1)
	}
	fmt.Printf("inserted %d triples, 2 schemas, 1 mapping (EMBL#Organism ↔ EMP#SystematicName)\n\n", len(seedData))

	issuer := net.Peer(net.NumPeers() - 1)

	if *rdqlStr != "" {
		rows, _, err := gridvine.CollectRows(ctx, issuer, gridvine.Request{RDQL: *rdqlStr, Reformulate: true})
		if err != nil {
			fmt.Fprintln(os.Stderr, "RDQL query failed:", err)
			os.Exit(1)
		}
		q, _ := gridvine.ParseRDQL(*rdqlStr)
		fmt.Printf("%s\n", q)
		for _, row := range rows {
			fmt.Printf("  %v\n", []string(row))
		}
		fmt.Printf("%d rows\n", len(rows))
		return
	}

	pattern, err := parsePattern(*queryStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "parsing query:", err)
		os.Exit(2)
	}
	fmt.Printf("SearchFor(%v) from %s:\n", pattern, issuer.Node().ID())
	rs, err := gridvine.CollectPattern(ctx, issuer, gridvine.Request{Pattern: &pattern, Reformulate: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, "query failed:", err)
		os.Exit(1)
	}
	for _, r := range rs.Results {
		via := "direct"
		if len(r.MappingPath) > 0 {
			via = fmt.Sprintf("via %d mapping(s), confidence %.2f", len(r.MappingPath), r.Confidence)
		}
		fmt.Printf("  %-14s %-22s %-24s [%s]\n", r.Triple.Subject, r.Triple.Predicate, r.Triple.Object, via)
	}
	fmt.Printf("\n%d results, %d reformulations, %d messages\n",
		len(rs.Results), rs.Reformulations, rs.Messages)
}

// parsePattern parses "s p o" where "name?" is a variable and %-containing
// terms are LIKE patterns.
func parsePattern(s string) (gridvine.Pattern, error) {
	fields := strings.Fields(s)
	if len(fields) != 3 {
		return gridvine.Pattern{}, fmt.Errorf("query needs exactly 3 terms, got %d", len(fields))
	}
	term := func(f string) gridvine.Term {
		switch {
		case strings.HasSuffix(f, "?"):
			return gridvine.Var(strings.TrimSuffix(f, "?"))
		case strings.Contains(f, "%"):
			return gridvine.Like(f)
		default:
			return gridvine.Const(f)
		}
	}
	return gridvine.Pattern{S: term(fields[0]), P: term(fields[1]), O: term(fields[2])}, nil
}
