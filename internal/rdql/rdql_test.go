package rdql

import (
	"reflect"
	"strings"
	"testing"

	"gridvine/internal/triple"
)

func TestParseSimpleQuery(t *testing.T) {
	q, err := Parse(`SELECT ?x WHERE (?x, <EMBL#Organism>, "%Aspergillus%")`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Select) != 1 || q.Select[0] != "x" {
		t.Errorf("Select = %v", q.Select)
	}
	if len(q.Patterns) != 1 {
		t.Fatalf("Patterns = %d", len(q.Patterns))
	}
	p := q.Patterns[0]
	if p.S.Kind != triple.Variable || p.S.Value != "x" {
		t.Errorf("S = %+v", p.S)
	}
	if p.P.Kind != triple.Constant || p.P.Value != "EMBL#Organism" {
		t.Errorf("P = %+v", p.P)
	}
	if p.O.Kind != triple.Like || p.O.Value != "%Aspergillus%" {
		t.Errorf("O = %+v", p.O)
	}
}

func TestParseConjunction(t *testing.T) {
	q, err := Parse(`SELECT ?x, ?len
		WHERE (?x, <EMBL#Organism>, "Homo sapiens"),
		      (?x, <EMBL#Length>, ?len)`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Select) != 2 || q.Select[1] != "len" {
		t.Errorf("Select = %v", q.Select)
	}
	if len(q.Patterns) != 2 {
		t.Fatalf("Patterns = %d", len(q.Patterns))
	}
	if q.Patterns[0].O.Kind != triple.Constant {
		t.Errorf("quoted literal without %% should be constant: %+v", q.Patterns[0].O)
	}
}

func TestParseANDSeparator(t *testing.T) {
	q, err := Parse(`SELECT ?x WHERE (?x <A#p> ?y) AND (?y <B#q> "v")`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Patterns) != 2 {
		t.Errorf("Patterns = %d", len(q.Patterns))
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	if _, err := Parse(`select ?x where (?x <A#p> "v")`); err != nil {
		t.Errorf("lowercase keywords: %v", err)
	}
}

func TestParseBareWordConstant(t *testing.T) {
	q, err := Parse(`SELECT ?x WHERE (?x EMBL#Organism aspergillus)`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Patterns[0].P.Value != "EMBL#Organism" || q.Patterns[0].O.Value != "aspergillus" {
		t.Errorf("pattern = %+v", q.Patterns[0])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`WHERE (?x <p> "v")`,                      // missing SELECT
		`SELECT WHERE (?x <p> "v")`,               // no variables
		`SELECT ?x`,                               // missing WHERE
		`SELECT ?x WHERE`,                         // no patterns
		`SELECT ?x WHERE (?x <p>)`,                // short pattern
		`SELECT ?x WHERE (?x <p> "v"`,             // unterminated
		`SELECT ?x WHERE (?x <p "v")`,             // unterminated URI
		`SELECT ?x WHERE (?x <p> "v) `,            // unterminated literal
		`SELECT ?z WHERE (?x <p> "v")`,            // unbound selected var
		`SELECT ? WHERE (?x <p> "v")`,             // empty variable
		`SELECT ?x WHERE (?x <p> "v") trailing ?`, // trailing junk
	}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("Parse(%q) should fail", c)
		}
	}
}

func TestValidate(t *testing.T) {
	q := Query{Select: []string{"x"}}
	if err := q.Validate(); err == nil {
		t.Error("no patterns should fail validation")
	}
	q.Patterns = []triple.Pattern{{S: triple.Var("y"), P: triple.Const("p"), O: triple.Const("o")}}
	if err := q.Validate(); err == nil {
		t.Error("unbound selected variable should fail validation")
	}
	q.Select = []string{"y"}
	if err := q.Validate(); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
}

func TestVariables(t *testing.T) {
	q, _ := Parse(`SELECT ?x WHERE (?x <p> ?y) (?y <q> ?z)`)
	vars := q.Variables()
	if len(vars) != 3 || vars[0] != "x" || vars[1] != "y" || vars[2] != "z" {
		t.Errorf("Variables = %v", vars)
	}
}

func TestStringRoundtrip(t *testing.T) {
	src := `SELECT ?x, ?len WHERE (?x, <EMBL#Organism>, "%Asp%"), (?x, <EMBL#Length>, ?len)`
	q1, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	rendered := q1.String()
	q2, err := Parse(rendered)
	if err != nil {
		t.Fatalf("Parse(rendered %q): %v", rendered, err)
	}
	if q2.String() != rendered {
		t.Errorf("String not stable:\n%s\n%s", rendered, q2.String())
	}
	if len(q2.Patterns) != 2 || q2.Patterns[0].O.Kind != triple.Like {
		t.Errorf("roundtrip lost structure: %+v", q2.Patterns)
	}
}

func TestStringQuotesBareLiterals(t *testing.T) {
	q, _ := Parse(`SELECT ?x WHERE (?x <A#p> plain)`)
	if !strings.Contains(q.String(), `"plain"`) {
		t.Errorf("String = %q", q.String())
	}
}

func TestLexEscapedQuotes(t *testing.T) {
	q, err := Parse(`SELECT ?x WHERE (?x <A#p> "say \"hi\", \\slash\\, tab\t end")`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := "say \"hi\", \\slash\\, tab\t end"
	if got := q.Patterns[0].O.Value; got != want {
		t.Errorf("literal = %q, want %q", got, want)
	}
}

func TestLexEscapeErrors(t *testing.T) {
	for _, src := range []string{
		`SELECT ?x WHERE (?x <A#p> "bad \q escape")`, // unknown escape
		`SELECT ?x WHERE (?x <A#p> "trailing \`,      // backslash at EOF
		`SELECT ?x WHERE (?x <A#p> "escaped end \")`, // escaped closing quote
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// TestStringParseRoundtrips pins String()→Parse() round-tripping for the
// term shapes the grammar supports: URIs, LIKE terms, plain and bare-word
// literals, and literals holding quotes, backslashes, and tabs.
func TestStringParseRoundtrips(t *testing.T) {
	queries := []string{
		`SELECT ?x WHERE (?x, <EMBL#Organism>, "%Aspergillus%")`,
		`SELECT ?x, ?len WHERE (?x, <EMBL#Organism>, "Homo sapiens"), (?x, <EMBL#Length>, ?len)`,
		`SELECT ?x WHERE (?x <A#p> bareword)`,
		`SELECT ?x WHERE (?x <A#p> "with \"quotes\" inside")`,
		`SELECT ?x WHERE (?x <A#p> "back\\slash and\ttab")`,
		`SELECT ?x, ?y, ?z WHERE (?x <A#p> ?y) AND (?y <B#q> ?z) (?z <C#r> "%like\"quoted%")`,
	}
	for _, src := range queries {
		q1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		rendered := q1.String()
		q2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("Parse(String() = %q): %v", rendered, err)
		}
		if q2.String() != rendered {
			t.Errorf("String not stable for %q:\n%s\n%s", src, rendered, q2.String())
		}
		if len(q2.Patterns) != len(q1.Patterns) {
			t.Fatalf("roundtrip of %q lost patterns", src)
		}
		for i := range q1.Patterns {
			if q1.Patterns[i] != q2.Patterns[i] {
				t.Errorf("roundtrip of %q: pattern %d %+v != %+v", src, i, q1.Patterns[i], q2.Patterns[i])
			}
		}
	}
}

// TestStringRoundtripControlChars: String() must emit only escapes the
// lexer understands — raw control bytes pass through verbatim rather than
// becoming Go-style \v or \xNN escapes the grammar rejects.
func TestStringRoundtripControlChars(t *testing.T) {
	lit := "a\vb\x01c"
	q := Query{
		Select:   []string{"x"},
		Patterns: []triple.Pattern{{S: triple.Var("x"), P: triple.Const("A#p"), O: triple.Const(lit)}},
	}
	rendered := q.String()
	q2, err := Parse(rendered)
	if err != nil {
		t.Fatalf("Parse(String() = %q): %v", rendered, err)
	}
	if got := q2.Patterns[0].O.Value; got != lit {
		t.Errorf("roundtrip literal = %q, want %q", got, lit)
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := lex(`SELECT ?x`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].pos != 0 || toks[1].pos != 7 {
		t.Errorf("positions = %d %d", toks[0].pos, toks[1].pos)
	}
}

func TestParseLimit(t *testing.T) {
	q, err := Parse(`SELECT ?x WHERE (?x, <A#p>, "v") LIMIT 7`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Limit != 7 {
		t.Errorf("Limit = %d, want 7", q.Limit)
	}
	q, err = Parse(`SELECT ?x WHERE (?x, <A#p>, "v")`)
	if err != nil {
		t.Fatalf("Parse without LIMIT: %v", err)
	}
	if q.Limit != 0 {
		t.Errorf("absent LIMIT = %d, want 0", q.Limit)
	}
	// Case-insensitive, like every keyword.
	q, err = Parse(`select ?x where (?x, <A#p>, "v") limit 3`)
	if err != nil || q.Limit != 3 {
		t.Errorf("lowercase limit: q.Limit=%d err=%v", q.Limit, err)
	}
}

func TestParseLimitErrors(t *testing.T) {
	for _, bad := range []string{
		`SELECT ?x WHERE (?x, <A#p>, "v") LIMIT`,
		`SELECT ?x WHERE (?x, <A#p>, "v") LIMIT zero`,
		`SELECT ?x WHERE (?x, <A#p>, "v") LIMIT 0`,
		`SELECT ?x WHERE (?x, <A#p>, "v") LIMIT -2`,
		`SELECT ?x WHERE (?x, <A#p>, "v") LIMIT 3 4`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestStringRoundtripLimit(t *testing.T) {
	q, err := Parse(`SELECT ?x, ?len WHERE (?x, <A#org>, "%asp%"), (?x, <A#len>, ?len) LIMIT 12`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	s := q.String()
	if !strings.HasSuffix(s, " LIMIT 12") {
		t.Errorf("String() = %q, want LIMIT suffix", s)
	}
	q2, err := Parse(s)
	if err != nil {
		t.Fatalf("reparse %q: %v", s, err)
	}
	if !reflect.DeepEqual(q, q2) {
		t.Errorf("round-trip diverged:\n%+v\n%+v", q, q2)
	}
}
