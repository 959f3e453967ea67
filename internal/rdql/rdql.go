// Package rdql implements a small RDQL-style query language for GridVine
// (the paper's query interface is RDQL, Seaborne 2004 — reference [8]).
// The supported grammar covers what the mediation layer executes: selection
// of distinguished variables over a conjunction of triple patterns.
//
//	SELECT ?x, ?len
//	WHERE  (?x, <EMBL#Organism>, "%Aspergillus%"),
//	       (?x, <EMBL#Length>, ?len)
//
// Terms: ?name is a variable, <uri> a URI constant, "literal" a string
// literal ("%…%" literals are LIKE patterns), bare words are plain
// constants. Keywords are case-insensitive; the comma between patterns is
// optional.
package rdql

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"gridvine/internal/triple"
)

// Query is a parsed RDQL query: distinguished variables, the conjunctive
// pattern list, and an optional result limit.
type Query struct {
	// Select lists the distinguished variables in declaration order,
	// without the leading '?'.
	Select []string
	// Patterns is the WHERE conjunction.
	Patterns []triple.Pattern
	// Limit is the LIMIT clause's row cap; 0 when the clause is absent
	// (no limit).
	Limit int
}

// Variables returns every variable appearing in the WHERE clause, sorted.
func (q Query) Variables() []string {
	set := map[string]bool{}
	for _, p := range q.Patterns {
		for _, v := range p.Variables() {
			set[v] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Validate checks the query's static semantics: at least one pattern, and
// every selected variable bound somewhere in the WHERE clause.
func (q Query) Validate() error {
	if len(q.Patterns) == 0 {
		return fmt.Errorf("rdql: query has no WHERE patterns")
	}
	if len(q.Select) == 0 {
		return fmt.Errorf("rdql: query selects no variables")
	}
	bound := map[string]bool{}
	for _, v := range q.Variables() {
		bound[v] = true
	}
	for _, v := range q.Select {
		if !bound[v] {
			return fmt.Errorf("rdql: selected variable ?%s is not bound by any pattern", v)
		}
	}
	return nil
}

// Row is one result row: values of the distinguished variables, in the
// SELECT order of the query.
type Row []string

// token kinds produced by the lexer.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokKeyword
	tokVariable // ?name
	tokURI      // <...>
	tokLiteral  // "..."
	tokWord     // bare word
	tokLParen
	tokRParen
	tokComma
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

// lex splits the input into tokens.
func lex(input string) ([]token, error) {
	var out []token
	i := 0
	for i < len(input) {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '(':
			out = append(out, token{tokLParen, "(", i})
			i++
		case c == ')':
			out = append(out, token{tokRParen, ")", i})
			i++
		case c == ',':
			out = append(out, token{tokComma, ",", i})
			i++
		case c == '?':
			j := i + 1
			for j < len(input) && isIdent(input[j]) {
				j++
			}
			if j == i+1 {
				return nil, fmt.Errorf("rdql: empty variable name at position %d", i)
			}
			out = append(out, token{tokVariable, input[i+1 : j], i})
			i = j
		case c == '<':
			j := strings.IndexByte(input[i:], '>')
			if j < 0 {
				return nil, fmt.Errorf("rdql: unterminated URI at position %d", i)
			}
			out = append(out, token{tokURI, input[i+1 : i+j], i})
			i += j + 1
		case c == '"':
			text, end, err := lexLiteral(input, i)
			if err != nil {
				return nil, err
			}
			out = append(out, token{tokLiteral, text, i})
			i = end
		default:
			j := i
			for j < len(input) && isWord(input[j]) {
				j++
			}
			if j == i {
				return nil, fmt.Errorf("rdql: unexpected character %q at position %d", c, i)
			}
			word := input[i:j]
			kind := tokWord
			switch strings.ToUpper(word) {
			case "SELECT", "WHERE", "AND", "LIMIT":
				kind = tokKeyword
			}
			out = append(out, token{kind, word, i})
			i = j
		}
	}
	out = append(out, token{tokEOF, "", len(input)})
	return out, nil
}

// lexLiteral scans a double-quoted string literal starting at the opening
// quote, handling backslash escapes (\" \\ \n \t \r), and returns the
// decoded text plus the index just past the closing quote. The common
// escape-free case is returned as a slice of the input, allocation-free.
func lexLiteral(input string, start int) (string, int, error) {
	j := start + 1
	for j < len(input) && input[j] != '"' && input[j] != '\\' {
		j++
	}
	if j < len(input) && input[j] == '"' {
		return input[start+1 : j], j + 1, nil
	}
	var sb strings.Builder
	sb.WriteString(input[start+1 : j])
	for j < len(input) {
		switch input[j] {
		case '"':
			return sb.String(), j + 1, nil
		case '\\':
			if j+1 >= len(input) {
				return "", 0, fmt.Errorf("rdql: unterminated literal at position %d", start)
			}
			switch e := input[j+1]; e {
			case '"', '\\':
				sb.WriteByte(e)
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case 'r':
				sb.WriteByte('\r')
			default:
				return "", 0, fmt.Errorf("rdql: unknown escape \\%c at position %d", e, j)
			}
			j += 2
		default:
			sb.WriteByte(input[j])
			j++
		}
	}
	return "", 0, fmt.Errorf("rdql: unterminated literal at position %d", start)
}

func isIdent(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}

func isWord(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\r', '(', ')', ',', '?', '<', '"':
		return false
	}
	return true
}

// parser holds the token stream.
type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

// Parse parses an RDQL query and validates it.
func Parse(input string) (Query, error) {
	toks, err := lex(input)
	if err != nil {
		return Query{}, err
	}
	p := &parser{toks: toks}
	var q Query

	if err := p.expectKeyword("SELECT"); err != nil {
		return Query{}, err
	}
	for {
		t := p.peek()
		if t.kind == tokVariable {
			p.next()
			q.Select = append(q.Select, t.text)
			if p.peek().kind == tokComma {
				p.next()
			}
			continue
		}
		break
	}
	if len(q.Select) == 0 {
		return Query{}, fmt.Errorf("rdql: SELECT needs at least one ?variable")
	}

	if err := p.expectKeyword("WHERE"); err != nil {
		return Query{}, err
	}
	for {
		if p.peek().kind != tokLParen {
			break
		}
		pattern, err := p.parsePattern()
		if err != nil {
			return Query{}, err
		}
		q.Patterns = append(q.Patterns, pattern)
		// Optional separators between patterns.
		for {
			t := p.peek()
			if t.kind == tokComma || (t.kind == tokKeyword && strings.EqualFold(t.text, "AND")) {
				p.next()
				continue
			}
			break
		}
	}
	// Optional LIMIT n clause: cap the number of result rows. The engine
	// propagates it into the planner, which stops issuing lookups once
	// enough joined rows exist.
	if t := p.peek(); t.kind == tokKeyword && strings.EqualFold(t.text, "LIMIT") {
		p.next()
		nt := p.next()
		n, err := strconv.Atoi(nt.text)
		if nt.kind != tokWord || err != nil || n <= 0 {
			return Query{}, fmt.Errorf("rdql: LIMIT wants a positive integer, got %q at position %d", nt.text, nt.pos)
		}
		q.Limit = n
	}
	if !p.atEOF() {
		t := p.peek()
		return Query{}, fmt.Errorf("rdql: unexpected %q at position %d", t.text, t.pos)
	}
	if err := q.Validate(); err != nil {
		return Query{}, err
	}
	return q, nil
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokKeyword || !strings.EqualFold(t.text, kw) {
		return fmt.Errorf("rdql: expected %s at position %d, got %q", kw, t.pos, t.text)
	}
	return nil
}

// parsePattern parses "( term , term , term )" (commas optional).
func (p *parser) parsePattern() (triple.Pattern, error) {
	if t := p.next(); t.kind != tokLParen {
		return triple.Pattern{}, fmt.Errorf("rdql: expected '(' at position %d", t.pos)
	}
	terms := make([]triple.Term, 0, 3)
	for len(terms) < 3 {
		t := p.next()
		switch t.kind {
		case tokVariable:
			terms = append(terms, triple.Var(t.text))
		case tokURI, tokWord:
			terms = append(terms, triple.Const(t.text))
		case tokLiteral:
			if strings.Contains(t.text, "%") {
				terms = append(terms, triple.LikeTerm(t.text))
			} else {
				terms = append(terms, triple.Const(t.text))
			}
		case tokComma:
			continue
		default:
			return triple.Pattern{}, fmt.Errorf("rdql: unexpected %q in pattern at position %d", t.text, t.pos)
		}
	}
	if t := p.next(); t.kind != tokRParen {
		return triple.Pattern{}, fmt.Errorf("rdql: expected ')' at position %d, got %q", t.pos, t.text)
	}
	return triple.Pattern{S: terms[0], P: terms[1], O: terms[2]}, nil
}

// quoteLiteral renders a string literal using exactly the escapes the lexer
// understands (\" \\ \n \t \r); every other byte — including control
// characters — passes through raw, which the lexer also accepts, so
// String()→Parse() round-trips for any literal. Go's %q is deliberately not
// used: it emits escapes (\v, \xNN, \uNNNN, …) the grammar rejects.
func quoteLiteral(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 2)
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case '\r':
			b.WriteString(`\r`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// renderConst renders a constant term so it re-lexes as a constant with
// the same value. The three surface forms cover different value shapes:
// <uri> admits anything but '>', "literal" admits anything but turns
// %-containing values into LIKE patterns, and a bare word admits anything
// the word lexer accepts. Every constant the parser can produce fits at
// least one form; preference order keeps the common outputs idiomatic.
func renderConst(v string) string {
	hasGT := strings.Contains(v, ">")
	switch {
	case !hasGT && (strings.Contains(v, "#") || strings.Contains(v, ":")):
		return "<" + v + ">"
	case !strings.Contains(v, "%"):
		return quoteLiteral(v)
	case isBareWord(v):
		return v
	case !hasGT:
		return "<" + v + ">"
	default:
		// Unreachable for parser-produced constants: a value with both
		// '%' and '>' can only come from the word lexer, so it is a bare
		// word. Fall back to a literal (the value survives; the kind
		// becomes Like).
		return quoteLiteral(v)
	}
}

// isBareWord reports whether v re-lexes as a single non-keyword word.
func isBareWord(v string) bool {
	if v == "" {
		return false
	}
	for i := 0; i < len(v); i++ {
		if !isWord(v[i]) {
			return false
		}
	}
	switch strings.ToUpper(v) {
	case "SELECT", "WHERE", "AND", "LIMIT":
		return false
	}
	return true
}

// String renders the query back in canonical RDQL form.
func (q Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, v := range q.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("?" + v)
	}
	b.WriteString(" WHERE ")
	for i, p := range q.Patterns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(")
		for j, term := range []triple.Term{p.S, p.P, p.O} {
			if j > 0 {
				b.WriteString(", ")
			}
			switch term.Kind {
			case triple.Variable:
				b.WriteString("?" + term.Value)
			case triple.Like:
				b.WriteString(quoteLiteral(term.Value))
			default:
				b.WriteString(renderConst(term.Value))
			}
		}
		b.WriteString(")")
	}
	if q.Limit > 0 {
		b.WriteString(" LIMIT ")
		b.WriteString(strconv.Itoa(q.Limit))
	}
	return b.String()
}
