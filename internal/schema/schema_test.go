package schema

import (
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestNewSchema(t *testing.T) {
	s := NewSchema("EMBL", "protein-sequences", "Organism", "Length", "Accession")
	if s.Name != "EMBL" || s.Domain != "protein-sequences" {
		t.Errorf("schema = %+v", s)
	}
	// Sorted attributes.
	if s.Attributes[0] != "Accession" {
		t.Errorf("attributes not sorted: %v", s.Attributes)
	}
}

func TestPredicateURIRoundtrip(t *testing.T) {
	s := NewSchema("EMBL", "d", "Organism")
	uri := s.PredicateURI("Organism")
	if uri != "EMBL#Organism" {
		t.Errorf("uri = %q", uri)
	}
	name, attr, ok := SplitPredicateURI(uri)
	if !ok || name != "EMBL" || attr != "Organism" {
		t.Errorf("split = %q %q %v", name, attr, ok)
	}
	if _, _, ok := SplitPredicateURI("nohash"); ok {
		t.Error("split without # should fail")
	}
	// Names containing '#' split at the last one.
	name, attr, ok = SplitPredicateURI("a#b#c")
	if !ok || name != "a#b" || attr != "c" {
		t.Errorf("split = %q %q", name, attr)
	}
}

func TestGUID(t *testing.T) {
	g1 := GUID("0101", "local-res-1")
	g2 := GUID("0101", "local-res-2")
	g3 := GUID("0110", "local-res-1")
	if g1 == g2 || g1 == g3 {
		t.Error("GUIDs should differ")
	}
	if !strings.HasPrefix(g1, "0101:") {
		t.Errorf("GUID should embed the peer path: %q", g1)
	}
	if g1 != GUID("0101", "local-res-1") {
		t.Error("GUID not deterministic")
	}
}

func TestNewMappingConfidence(t *testing.T) {
	corrs := []Correspondence{
		{SourceAttr: "Organism", TargetAttr: "SystematicName", Confidence: 0.8},
		{SourceAttr: "Length", TargetAttr: "SeqLength", Confidence: 0.6},
	}
	manual := NewMapping("EMBL", "EMP", Equivalence, Manual, corrs)
	if manual.Confidence != 1.0 {
		t.Errorf("manual confidence = %v", manual.Confidence)
	}
	auto := NewMapping("EMBL", "EMP", Equivalence, Automatic, corrs)
	if auto.Confidence != 0.7 {
		t.Errorf("auto confidence = %v, want 0.7", auto.Confidence)
	}
	if auto.ID == "" || manual.ID == "" {
		t.Error("mapping ID empty")
	}
	// Same structure → same ID regardless of origin.
	if auto.ID != manual.ID {
		t.Error("ID should depend on structure only")
	}
}

func TestTranslateAttr(t *testing.T) {
	m := NewMapping("A", "B", Equivalence, Manual, []Correspondence{
		{SourceAttr: "x", TargetAttr: "y", Confidence: 1},
	})
	if got, ok := m.TranslateAttr("x"); !ok || got != "y" {
		t.Errorf("TranslateAttr = %q %v", got, ok)
	}
	if _, ok := m.TranslateAttr("z"); ok {
		t.Error("unknown attr should fail")
	}
	if got, ok := m.ReverseTranslateAttr("y"); !ok || got != "x" {
		t.Errorf("ReverseTranslateAttr = %q %v", got, ok)
	}
	if _, ok := m.ReverseTranslateAttr("x"); ok {
		t.Error("reverse of unknown target attr should fail")
	}
}

func TestReverse(t *testing.T) {
	m := NewMapping("A", "B", Equivalence, Manual, []Correspondence{
		{SourceAttr: "x", TargetAttr: "y", Confidence: 0.9},
	})
	m.Bidirectional = true
	rev, err := m.Reverse()
	if err != nil {
		t.Fatalf("Reverse: %v", err)
	}
	if rev.Source != "B" || rev.Target != "A" {
		t.Errorf("rev = %+v", rev)
	}
	if got, ok := rev.TranslateAttr("y"); !ok || got != "x" {
		t.Errorf("rev translate = %q %v", got, ok)
	}
	// Unidirectional or subsumption mappings are not reversible.
	uni := NewMapping("A", "B", Equivalence, Manual, nil)
	if _, err := uni.Reverse(); err == nil {
		t.Error("unidirectional reverse should fail")
	}
	sub := NewMapping("A", "B", Subsumption, Manual, nil)
	sub.Bidirectional = true
	if _, err := sub.Reverse(); err == nil {
		t.Error("subsumption reverse should fail")
	}
}

func TestCompose(t *testing.T) {
	ab := NewMapping("A", "B", Equivalence, Manual, []Correspondence{
		{SourceAttr: "a1", TargetAttr: "b1", Confidence: 0.9},
		{SourceAttr: "a2", TargetAttr: "b2", Confidence: 0.8},
	})
	bc := NewMapping("B", "C", Equivalence, Manual, []Correspondence{
		{SourceAttr: "b1", TargetAttr: "c1", Confidence: 0.5},
	})
	ac, err := ab.Compose(bc)
	if err != nil {
		t.Fatalf("Compose: %v", err)
	}
	if ac.Source != "A" || ac.Target != "C" {
		t.Errorf("composed endpoints = %s→%s", ac.Source, ac.Target)
	}
	// Only the a1→b1→c1 chain survives.
	if len(ac.Correspondences) != 1 {
		t.Fatalf("correspondences = %v", ac.Correspondences)
	}
	c := ac.Correspondences[0]
	if c.SourceAttr != "a1" || c.TargetAttr != "c1" {
		t.Errorf("chain = %+v", c)
	}
	if c.Confidence != 0.45 {
		t.Errorf("chained confidence = %v, want 0.45", c.Confidence)
	}
}

func TestComposeMismatch(t *testing.T) {
	ab := NewMapping("A", "B", Equivalence, Manual, nil)
	cd := NewMapping("C", "D", Equivalence, Manual, nil)
	if _, err := ab.Compose(cd); err == nil {
		t.Error("composing non-adjacent mappings should fail")
	}
}

func TestComposeTypePropagation(t *testing.T) {
	eq := NewMapping("A", "B", Equivalence, Manual, []Correspondence{{SourceAttr: "x", TargetAttr: "y", Confidence: 1}})
	sub := NewMapping("B", "C", Subsumption, Manual, []Correspondence{{SourceAttr: "y", TargetAttr: "z", Confidence: 1}})
	out, err := eq.Compose(sub)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != Subsumption {
		t.Errorf("eq∘sub type = %v, want subsumption", out.Type)
	}
	out2, err := eq.Compose(NewMapping("B", "C", Equivalence, Automatic, []Correspondence{{SourceAttr: "y", TargetAttr: "z", Confidence: 1}}))
	if err != nil {
		t.Fatal(err)
	}
	if out2.Type != Equivalence {
		t.Errorf("eq∘eq type = %v", out2.Type)
	}
	if out2.Origin != Automatic {
		t.Errorf("manual∘automatic origin = %v, want automatic", out2.Origin)
	}
}

func TestStringMethods(t *testing.T) {
	if Equivalence.String() != "equivalence" || Subsumption.String() != "subsumption" || MappingType(9).String() != "unknown" {
		t.Error("MappingType strings")
	}
	if Manual.String() != "manual" || Automatic.String() != "automatic" {
		t.Error("Origin strings")
	}
	m := NewMapping("A", "B", Equivalence, Manual, nil)
	if !strings.Contains(m.String(), "A → B") {
		t.Errorf("String = %q", m.String())
	}
	m.Bidirectional = true
	m.Deprecated = true
	s := m.String()
	if !strings.Contains(s, "↔") || !strings.Contains(s, "[deprecated]") {
		t.Errorf("String = %q", s)
	}
}

// benchReversible is a bidirectional mapping of the size the bioinformatics
// corpus publishes: eight correspondences whose reverse is not in source
// order, so Reverse pays its sort.
func benchReversible() Mapping {
	corrs := make([]Correspondence, 8)
	for i := range corrs {
		corrs[i] = Correspondence{SourceAttr: fmt.Sprintf("attr%d", i), TargetAttr: fmt.Sprintf("field%d", 7-i), Confidence: 0.9}
	}
	m := NewMapping("EMBL", "SwissProt", Equivalence, Automatic, corrs)
	m.Bidirectional = true
	return m
}

var reverseSink Mapping

// BenchmarkMappingReverse times what MappingsFrom pays for every
// bidirectional mapping it serves from the target side.
func BenchmarkMappingReverse(b *testing.B) {
	m := benchReversible()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rev, err := m.Reverse()
		if err != nil {
			b.Fatal(err)
		}
		reverseSink = rev
	}
}

// referenceMappingID is the fmt-based identifier the repository shipped
// with; stored mappings, closure paths and BENCH snapshots carry its output,
// so mappingID must keep producing it byte for byte.
func referenceMappingID(m Mapping) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s>%s|%d", m.Source, m.Target, m.Type)
	for _, c := range m.Correspondences {
		fmt.Fprintf(&b, "|%s=%s", c.SourceAttr, c.TargetAttr)
	}
	sum := sha1.Sum([]byte(b.String()))
	return "map-" + hex.EncodeToString(sum[:8])
}

// TestMappingIDGolden pins mapping identifiers: literal IDs recorded before
// mappingID dropped fmt and NewMapping started skipping the sort of ordered
// input, and the reference formula over random mappings — unsorted, with
// duplicate source attributes, reversed and composed.
func TestMappingIDGolden(t *testing.T) {
	m := NewMapping("EMBL", "EMP", Equivalence, Automatic, []Correspondence{
		{SourceAttr: "Organism", TargetAttr: "SystematicName", Confidence: 0.8},
		{SourceAttr: "Length", TargetAttr: "SeqLength", Confidence: 0.6},
	})
	m.Bidirectional = true
	rev, err := m.Reverse()
	if err != nil {
		t.Fatal(err)
	}
	comp, err := m.Compose(NewMapping("EMP", "C", Equivalence, Manual, []Correspondence{{SourceAttr: "SystematicName", TargetAttr: "name"}}))
	if err != nil {
		t.Fatal(err)
	}
	dup := NewMapping("A", "B", Equivalence, Manual, []Correspondence{
		{SourceAttr: "x", TargetAttr: "y2"}, {SourceAttr: "x", TargetAttr: "y1"}, {SourceAttr: "a", TargetAttr: "b"}})
	for _, c := range []struct {
		name string
		m    Mapping
		want string
	}{
		{"forward", m, "map-3e6acb3ad992989e"},
		{"reverse", rev, "map-1701828a35c9dba8"},
		{"no correspondences", NewMapping("A", "B", Subsumption, Manual, nil), "map-eac208aada987553"},
		{"duplicate source attr", dup, "map-201b117179d09500"},
		{"composed", comp, "map-203775e94750cd35"},
	} {
		if c.m.ID != c.want {
			t.Errorf("%s: ID %s, want %s", c.name, c.m.ID, c.want)
		}
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		corrs := make([]Correspondence, rng.Intn(14))
		for j := range corrs {
			corrs[j] = Correspondence{SourceAttr: fmt.Sprintf("s%d", rng.Intn(6)), TargetAttr: fmt.Sprintf("t%d", rng.Intn(20)), Confidence: 1}
		}
		if rng.Intn(2) == 0 {
			sort.SliceStable(corrs, func(a, b int) bool { return corrs[a].SourceAttr < corrs[b].SourceAttr })
		}
		input := append([]Correspondence{}, corrs...)
		sort.Slice(input, func(a, b int) bool { return input[a].SourceAttr < input[b].SourceAttr })
		got := NewMapping("S", "T", MappingType(rng.Intn(2)), Manual, corrs)
		want := Mapping{Source: "S", Target: "T", Type: got.Type, Correspondences: input}
		if !reflect.DeepEqual(got.Correspondences, input) || got.ID != referenceMappingID(want) {
			t.Fatalf("mapping %d: correspondences %v, ID %s; the sort.Slice order is %v with ID %s",
				i, got.Correspondences, got.ID, input, referenceMappingID(want))
		}
	}
}
