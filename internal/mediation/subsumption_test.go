package mediation

import (
	"context"
	"testing"

	"gridvine/internal/schema"
	"gridvine/internal/triple"
)

// Subsumption (inclusion) mappings are directed: a query over the source
// schema may be unfolded into the (subsumed) target attribute, but not the
// other way around (paper §3: "equivalence and inclusion (subsumption) GAV
// mappings" with view unfolding).

func subsumptionFixture(t *testing.T) []*Peer {
	t.Helper()
	_, peers := testNetwork(t, 16, 41)
	// GEN#Sequence subsumes NUC#NucleotideSeq: every nucleotide sequence is
	// a sequence. Query on the general attribute should also return the
	// specific instances.
	peers[0].InsertTripleContext(context.Background(), triple.Triple{Subject: "g1", Predicate: "GEN#Sequence", Object: "ATGC"})
	peers[0].InsertTripleContext(context.Background(), triple.Triple{Subject: "n1", Predicate: "NUC#NucleotideSeq", Object: "ATGC"})
	m := schema.NewMapping("GEN", "NUC", schema.Subsumption, schema.Manual, []schema.Correspondence{
		{SourceAttr: "Sequence", TargetAttr: "NucleotideSeq", Confidence: 1},
	})
	if _, err := peers[0].InsertMappingContext(context.Background(), m); err != nil {
		t.Fatalf("InsertMapping: %v", err)
	}
	return peers
}

func TestSubsumptionUnfoldsDownward(t *testing.T) {
	peers := subsumptionFixture(t)
	q := triple.Pattern{S: triple.Var("x"), P: triple.Const("GEN#Sequence"), O: triple.Const("ATGC")}
	rs, err := blockingSearchReformulated(peers[3], q, SearchOptions{})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	subjects := map[string]bool{}
	for _, r := range rs.Results {
		subjects[r.Triple.Subject] = true
	}
	if !subjects["g1"] || !subjects["n1"] {
		t.Errorf("downward query results = %v, want both", subjects)
	}
}

func TestSubsumptionDoesNotUnfoldUpward(t *testing.T) {
	peers := subsumptionFixture(t)
	// Query on the SPECIFIC attribute: the subsumption mapping must not
	// be reversed, so only n1 comes back.
	q := triple.Pattern{S: triple.Var("x"), P: triple.Const("NUC#NucleotideSeq"), O: triple.Const("ATGC")}
	rs, err := blockingSearchReformulated(peers[5], q, SearchOptions{})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	for _, r := range rs.Results {
		if r.Triple.Subject == "g1" {
			t.Errorf("subsumption wrongly reversed: %v", r)
		}
	}
	if len(rs.Results) != 1 {
		t.Errorf("results = %v", rs.Results)
	}
}

func TestSubsumptionNotReversedEvenWhenBidirectionalFlagSet(t *testing.T) {
	_, peers := testNetwork(t, 16, 42)
	peers[0].InsertTripleContext(context.Background(), triple.Triple{Subject: "g1", Predicate: "A#general", Object: "v"})
	m := schema.NewMapping("A", "B", schema.Subsumption, schema.Manual, []schema.Correspondence{
		{SourceAttr: "general", TargetAttr: "specific", Confidence: 1},
	})
	m.Bidirectional = true // stored at both keys, but semantics stay directed
	peers[0].InsertMappingContext(context.Background(), m)
	q := triple.Pattern{S: triple.Var("x"), P: triple.Const("B#specific"), O: triple.Const("v")}
	rs, err := blockingSearchReformulated(peers[2], q, SearchOptions{})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if len(rs.Results) != 0 {
		t.Errorf("subsumption reversed via bidirectional flag: %v", rs.Results)
	}
}

func TestSubsumptionChainConfidence(t *testing.T) {
	// GEN ⊒ NUC ⊒ RNA: a query on GEN walks two subsumption steps.
	_, peers := testNetwork(t, 16, 43)
	peers[0].InsertTripleContext(context.Background(), triple.Triple{Subject: "r1", Predicate: "RNA#RnaSeq", Object: "AUGC"})
	m1 := schema.NewMapping("GEN", "NUC", schema.Subsumption, schema.Manual, []schema.Correspondence{
		{SourceAttr: "Sequence", TargetAttr: "NucSeq", Confidence: 1},
	})
	m2 := schema.NewMapping("NUC", "RNA", schema.Subsumption, schema.Automatic, []schema.Correspondence{
		{SourceAttr: "NucSeq", TargetAttr: "RnaSeq", Confidence: 0.9},
	})
	peers[0].InsertMappingContext(context.Background(), m1)
	peers[0].InsertMappingContext(context.Background(), m2)
	q := triple.Pattern{S: triple.Var("x"), P: triple.Const("GEN#Sequence"), O: triple.Const("AUGC")}
	rs, err := blockingSearchReformulated(peers[1], q, SearchOptions{})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if len(rs.Results) != 1 {
		t.Fatalf("results = %v", rs.Results)
	}
	r := rs.Results[0]
	if len(r.MappingPath) != 2 {
		t.Errorf("path = %v", r.MappingPath)
	}
	if r.Confidence < 0.89 || r.Confidence > 0.91 {
		t.Errorf("confidence = %v, want ≈0.9", r.Confidence)
	}
}
