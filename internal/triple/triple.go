// Package triple implements GridVine's data model at the mediation layer
// (paper §2.2): ternary relations t = {subject, predicate, object} — the
// natural encoding of RDF statements and of arbitrary relational structures
// in distributed environments — together with the triple patterns of the
// query language and the local relational database each peer maintains,
// supporting projection π, selection σ and self-join ⋈.
package triple

import (
	"encoding/gob"
	"fmt"
	"slices"
	"strings"
)

// Triple is one statement: Subject is the resource the statement is about,
// Predicate the property, Object the value (resource or literal).
type Triple struct {
	Subject   string
	Predicate string
	Object    string
}

// String renders the triple in a compact N-Triples-like form.
func (t Triple) String() string {
	return fmt.Sprintf("(%s, %s, %s)", t.Subject, t.Predicate, t.Object)
}

// Position identifies a component of a triple — the pos(term) function of
// the paper (§2.3).
type Position int

// Triple component positions.
const (
	Subject Position = iota
	Predicate
	Object
)

func (p Position) String() string {
	switch p {
	case Subject:
		return "subject"
	case Predicate:
		return "predicate"
	case Object:
		return "object"
	default:
		return "invalid"
	}
}

// Component returns the triple's component at position p.
func (t Triple) Component(p Position) string {
	switch p {
	case Subject:
		return t.Subject
	case Predicate:
		return t.Predicate
	case Object:
		return t.Object
	default:
		panic(fmt.Sprintf("triple: invalid position %d", p))
	}
}

// TermKind discriminates pattern terms.
type TermKind int

// Pattern term kinds: a constant URI/literal, a named variable, or a
// SQL-LIKE pattern with % wildcards (the paper's %Aspergillus% constraint).
const (
	Constant TermKind = iota
	Variable
	Like
)

// Term is one slot of a triple pattern.
type Term struct {
	Kind  TermKind
	Value string // constant value, variable name, or LIKE pattern
}

// Const builds a constant term.
func Const(v string) Term { return Term{Kind: Constant, Value: v} }

// Var builds a variable term; names conventionally end in '?' in the paper
// but any non-empty name works.
func Var(name string) Term { return Term{Kind: Variable, Value: name} }

// LikeTerm builds a LIKE term; % matches any (possibly empty) substring.
func LikeTerm(pattern string) Term { return Term{Kind: Like, Value: pattern} }

// Matches reports whether a concrete value satisfies the term. Variables
// match anything; LIKE comparison is case-insensitive, as is GridVine's
// order-preserving hash normalization.
func (t Term) Matches(value string) bool {
	switch t.Kind {
	case Constant:
		return t.Value == value
	case Variable:
		return true
	case Like:
		return MatchLike(t.Value, value)
	default:
		return false
	}
}

func (t Term) String() string {
	switch t.Kind {
	case Variable:
		return t.Value + "?"
	case Like:
		return "LIKE " + t.Value
	default:
		return t.Value
	}
}

// MatchLike implements case-insensitive SQL-LIKE matching with % wildcards.
func MatchLike(pattern, value string) bool {
	p := strings.ToLower(pattern)
	v := strings.ToLower(value)
	parts := strings.Split(p, "%")
	if len(parts) == 1 {
		return p == v
	}
	// Anchored prefix.
	if parts[0] != "" {
		if !strings.HasPrefix(v, parts[0]) {
			return false
		}
		v = v[len(parts[0]):]
	}
	// Anchored suffix.
	last := parts[len(parts)-1]
	if last != "" {
		if !strings.HasSuffix(v, last) {
			return false
		}
		v = v[:len(v)-len(last)]
	}
	// Middle fragments in order.
	for _, frag := range parts[1 : len(parts)-1] {
		if frag == "" {
			continue
		}
		idx := strings.Index(v, frag)
		if idx < 0 {
			return false
		}
		v = v[idx+len(frag):]
	}
	return true
}

// Pattern is a triple pattern (s, p, o): an expression whose bound terms
// constrain matching triples and whose variables capture bindings.
type Pattern struct {
	S, P, O Term
}

// Term returns the pattern term at the given position.
func (q Pattern) Term(pos Position) Term {
	switch pos {
	case Subject:
		return q.S
	case Predicate:
		return q.P
	case Object:
		return q.O
	default:
		panic(fmt.Sprintf("triple: invalid position %d", pos))
	}
}

// WithTerm returns a copy of the pattern with the term at pos replaced.
func (q Pattern) WithTerm(pos Position, t Term) Pattern {
	switch pos {
	case Subject:
		q.S = t
	case Predicate:
		q.P = t
	case Object:
		q.O = t
	}
	return q
}

// Matches reports whether the triple satisfies every term of the pattern.
func (q Pattern) Matches(t Triple) bool {
	return q.S.Matches(t.Subject) && q.P.Matches(t.Predicate) && q.O.Matches(t.Object)
}

// Bindings maps variable names to the values they captured.
type Bindings map[string]string

// Bind extracts the variable bindings of the pattern against a matching
// triple. If the same variable occurs at several positions, the triple must
// carry equal values there; ok=false otherwise (also if the triple does not
// match at all).
func (q Pattern) Bind(t Triple) (Bindings, bool) {
	if !q.Matches(t) {
		return nil, false
	}
	b := Bindings{}
	for _, pos := range []Position{Subject, Predicate, Object} {
		term := q.Term(pos)
		if term.Kind != Variable {
			continue
		}
		val := t.Component(pos)
		if prev, seen := b[term.Value]; seen && prev != val {
			return nil, false
		}
		b[term.Value] = val
	}
	return b, true
}

// Variables returns the distinct variable names of the pattern in
// subject→predicate→object order.
func (q Pattern) Variables() []string {
	var out []string
	for _, t := range [3]Term{q.S, q.P, q.O} {
		if t.Kind == Variable && !slices.Contains(out, t.Value) {
			out = append(out, t.Value)
		}
	}
	return out
}

// MostSpecificConstant returns the position whose term should drive overlay
// routing, following the paper's rule: when several constant terms appear,
// the most specific one is used. Specificity order: subject (a single
// resource) > object (a literal value) > predicate (shared by all triples
// of an attribute). LIKE terms are not routable. ok=false when no constant
// exists (the pattern requires a broadcast or a secondary index).
func (q Pattern) MostSpecificConstant() (Position, string, bool) {
	for _, pos := range []Position{Subject, Object, Predicate} {
		t := q.Term(pos)
		if t.Kind == Constant {
			return pos, t.Value, true
		}
	}
	return 0, "", false
}

func (q Pattern) String() string {
	return fmt.Sprintf("(%s, %s, %s)", q.S, q.P, q.O)
}

func init() {
	gob.Register(Triple{})
	gob.Register(Pattern{})
	gob.Register([]Triple(nil))
}
