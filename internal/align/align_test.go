package align

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"organism", "organism", 0},
		{"Organism", "organism", 0}, // case-insensitive
		{"length", "lengths", 1},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Properties: symmetry, identity, triangle inequality.
func TestLevenshteinProperties(t *testing.T) {
	f := func(a, b, c string) bool {
		if len(a) > 30 || len(b) > 30 || len(c) > 30 {
			a, b, c = clip(a, 30), clip(b, 30), clip(c, 30)
		}
		dab := Levenshtein(a, b)
		dba := Levenshtein(b, a)
		dac := Levenshtein(a, c)
		dcb := Levenshtein(c, b)
		return dab == dba && Levenshtein(a, a) == 0 && dab <= dac+dcb
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func clip(s string, n int) string {
	if len(s) > n {
		return s[:n]
	}
	return s
}

func TestNormalizedLevenshtein(t *testing.T) {
	if got := NormalizedLevenshtein("", ""); got != 1 {
		t.Errorf("empty = %v", got)
	}
	if got := NormalizedLevenshtein("abc", "abc"); got != 1 {
		t.Errorf("identical = %v", got)
	}
	if got := NormalizedLevenshtein("abc", "xyz"); got != 0 {
		t.Errorf("disjoint = %v", got)
	}
	got := NormalizedLevenshtein("length", "lengths")
	if math.Abs(got-6.0/7.0) > 1e-9 {
		t.Errorf("near-match = %v", got)
	}
}

func TestNGramDice(t *testing.T) {
	if got := NGramDice("", "", 2); got != 1 {
		t.Errorf("empty = %v", got)
	}
	if got := NGramDice("ab", "", 2); got != 0 {
		t.Errorf("one empty = %v", got)
	}
	if got := NGramDice("night", "nacht", 2); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("night/nacht = %v, want 0.25", got)
	}
	if got := NGramDice("organism", "organism", 2); got != 1 {
		t.Errorf("identical = %v", got)
	}
	// n defaulting.
	if NGramDice("abc", "abc", 0) != 1 {
		t.Error("n=0 should default to bigrams")
	}
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"SystematicName", []string{"systematic", "name"}},
		{"seq_length", []string{"seq", "length"}},
		{"DNASeq", []string{"dna", "seq"}},
		{"organism", []string{"organism"}},
		{"EMBL#Organism", []string{"embl", "organism"}},
		{"mol-weight2", []string{"mol", "weight", "2"}},
		{"", nil},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) != len(c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestTokenJaccard(t *testing.T) {
	if got := TokenJaccard("SeqLength", "seq_length"); got != 1 {
		t.Errorf("SeqLength/seq_length = %v", got)
	}
	if got := TokenJaccard("OrganismName", "SystematicName"); math.Abs(got-1.0/3.0) > 1e-9 {
		t.Errorf("shared token = %v, want 1/3", got)
	}
	if got := TokenJaccard("abc", "xyz"); got != 0 {
		t.Errorf("disjoint = %v", got)
	}
}

func TestJaccard(t *testing.T) {
	if got := Jaccard(nil, nil); got != 1 {
		t.Errorf("both empty = %v", got)
	}
	if got := Jaccard([]string{"a"}, nil); got != 0 {
		t.Errorf("one empty = %v", got)
	}
	if got := Jaccard([]string{"a", "b"}, []string{"b", "c"}); math.Abs(got-1.0/3.0) > 1e-9 {
		t.Errorf("= %v, want 1/3", got)
	}
	// Duplicates collapse.
	if got := Jaccard([]string{"a", "a"}, []string{"a"}); got != 1 {
		t.Errorf("dup = %v", got)
	}
}

func TestSetSimilarityNormalizes(t *testing.T) {
	a := []string{"Aspergillus niger", " homo sapiens "}
	b := []string{"aspergillus niger", "HOMO SAPIENS"}
	if got := SetSimilarity(a, b); got != 1 {
		t.Errorf("normalized sets = %v", got)
	}
}

func TestLexicalSimilarityTakesMax(t *testing.T) {
	// Token match dominates for compound identifiers.
	if got := LexicalSimilarity("SeqLength", "seq_length"); got != 1 {
		t.Errorf("= %v", got)
	}
	// Edit similarity dominates for near-identical names.
	if got := LexicalSimilarity("organism", "organisms"); got < 0.85 {
		t.Errorf("= %v", got)
	}
	if got := LexicalSimilarity("xx", "yy"); got > 0.2 {
		t.Errorf("dissimilar = %v", got)
	}
}

func TestScorePairsOrdering(t *testing.T) {
	source := []AttrData{{Name: "Organism", Values: []string{"a", "b"}}}
	target := []AttrData{
		{Name: "OrganismName", Values: []string{"a", "b"}},
		{Name: "Length", Values: []string{"1", "2"}},
	}
	scores := ScorePairs(source, target, MatcherConfig{})
	if len(scores) != 2 {
		t.Fatalf("scores = %d", len(scores))
	}
	if scores[0].TargetAttr != "OrganismName" {
		t.Errorf("best pair = %+v", scores[0])
	}
	if scores[0].Combined <= scores[1].Combined {
		t.Error("not sorted by combined score")
	}
}

func TestScorePairsNoValuesDiscounted(t *testing.T) {
	src := []AttrData{{Name: "Organism"}}
	tgt := []AttrData{{Name: "Organism"}}
	scores := ScorePairs(src, tgt, MatcherConfig{LexWeight: 0.4, SetWeight: 0.6})
	if len(scores) != 1 {
		t.Fatal("expected one pair")
	}
	// Identical names but no value evidence: score = 1.0 * 0.4.
	if math.Abs(scores[0].Combined-0.4) > 1e-9 {
		t.Errorf("discounted score = %v, want 0.4", scores[0].Combined)
	}
}

func TestAlignValueEvidenceBeatsNames(t *testing.T) {
	// The paper's motivating case: EMBL#Organism ↔ EMP#SystematicName have
	// dissimilar names but identical value sets on shared instances.
	orgValues := []string{"Aspergillus nidulans", "Aspergillus niger", "Homo sapiens", "Mus musculus"}
	source := []AttrData{
		{Name: "Organism", Values: orgValues},
		{Name: "Length", Values: []string{"1422", "980", "2210", "1554"}},
	}
	target := []AttrData{
		{Name: "SystematicName", Values: orgValues},
		{Name: "SeqLength", Values: []string{"1422", "980", "2210", "1554"}},
	}
	corrs := Align(source, target, MatcherConfig{})
	if len(corrs) != 2 {
		t.Fatalf("correspondences = %v", corrs)
	}
	bysrc := map[string]string{}
	for _, c := range corrs {
		bysrc[c.SourceAttr] = c.TargetAttr
	}
	if bysrc["Organism"] != "SystematicName" {
		t.Errorf("Organism aligned to %q", bysrc["Organism"])
	}
	if bysrc["Length"] != "SeqLength" {
		t.Errorf("Length aligned to %q", bysrc["Length"])
	}
}

func TestAlignOneToOne(t *testing.T) {
	vals := []string{"x", "y", "z"}
	source := []AttrData{
		{Name: "name", Values: vals},
		{Name: "name2", Values: vals}, // same values: competes for the target
	}
	target := []AttrData{{Name: "name", Values: vals}}
	corrs := Align(source, target, MatcherConfig{})
	if len(corrs) != 1 {
		t.Fatalf("one-to-one violated: %v", corrs)
	}
	if corrs[0].SourceAttr != "name" {
		t.Errorf("greedy pick = %v", corrs[0])
	}
}

func TestAlignThresholdFilters(t *testing.T) {
	source := []AttrData{{Name: "abc", Values: []string{"1"}}}
	target := []AttrData{{Name: "xyz", Values: []string{"2"}}}
	if corrs := Align(source, target, MatcherConfig{}); len(corrs) != 0 {
		t.Errorf("below-threshold pair emitted: %v", corrs)
	}
}

func TestAlignFalseFriend(t *testing.T) {
	// A lexically identical attribute with different values: with value
	// evidence weighted higher, the matcher must prefer the value match.
	source := []AttrData{{Name: "Name", Values: []string{"P12345", "Q99999"}}}
	target := []AttrData{
		{Name: "Name", Values: []string{"protein kinase", "transferase"}}, // false friend
		{Name: "Accession", Values: []string{"P12345", "Q99999"}},
	}
	corrs := Align(source, target, MatcherConfig{})
	if len(corrs) != 1 {
		t.Fatalf("corrs = %v", corrs)
	}
	if corrs[0].TargetAttr != "Accession" {
		t.Errorf("matcher fooled by false friend: %v", corrs[0])
	}
}
