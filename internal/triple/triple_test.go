package triple

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTripleComponentAndString(t *testing.T) {
	tr := Triple{"s1", "p1", "o1"}
	if tr.Component(Subject) != "s1" || tr.Component(Predicate) != "p1" || tr.Component(Object) != "o1" {
		t.Error("Component mismatch")
	}
	if tr.String() != "(s1, p1, o1)" {
		t.Errorf("String = %q", tr.String())
	}
}

func TestComponentPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid position should panic")
		}
	}()
	Triple{}.Component(Position(9))
}

func TestPositionString(t *testing.T) {
	cases := map[Position]string{Subject: "subject", Predicate: "predicate", Object: "object", Position(9): "invalid"}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("Position(%d).String() = %q", p, p.String())
		}
	}
}

func TestTermMatches(t *testing.T) {
	if !Const("abc").Matches("abc") || Const("abc").Matches("abd") {
		t.Error("Constant matching broken")
	}
	if !Var("x").Matches("anything") {
		t.Error("Variable should match anything")
	}
	if !LikeTerm("%sper%").Matches("Aspergillus") {
		t.Error("LIKE substring failed")
	}
	if (Term{Kind: TermKind(9)}).Matches("x") {
		t.Error("invalid kind should not match")
	}
}

func TestTermIsBoundAndString(t *testing.T) {
	if Var("x").String() != "x?" {
		t.Errorf("Var string = %q", Var("x").String())
	}
	if LikeTerm("%a%").String() != "LIKE %a%" {
		t.Errorf("Like string = %q", LikeTerm("%a%").String())
	}
	if Const("v").String() != "v" {
		t.Errorf("Const string = %q", Const("v").String())
	}
}

func TestMatchLike(t *testing.T) {
	cases := []struct {
		pattern, value string
		want           bool
	}{
		{"abc", "abc", true},
		{"abc", "ab", false},
		{"ABC", "abc", true}, // case-insensitive
		{"%asp%", "Aspergillus niger", true},
		{"%asp%", "penicillium", false},
		{"asp%", "aspergillus", true},
		{"asp%", "xaspergillus", false},
		{"%lus", "aspergillus", true},
		{"%lus", "aspergillusx", false},
		{"a%c%e", "abcde", true},
		{"a%c%e", "acbde", true},   // a + ε + c + bd + e
		{"%ab%cd%", "cdab", false}, // fragments out of order
		{"%", "anything", true},
		{"%", "", true},
		{"%%", "x", true},
		{"a%%b", "ab", true},
	}
	for _, c := range cases {
		if got := MatchLike(c.pattern, c.value); got != c.want {
			t.Errorf("MatchLike(%q,%q) = %v, want %v", c.pattern, c.value, got, c.want)
		}
	}
}

func TestPatternMatches(t *testing.T) {
	q := Pattern{S: Var("x"), P: Const("EMBL#Organism"), O: LikeTerm("%Aspergillus%")}
	if !q.Matches(Triple{"seq1", "EMBL#Organism", "Aspergillus nidulans"}) {
		t.Error("pattern should match")
	}
	if q.Matches(Triple{"seq1", "EMBL#Length", "Aspergillus nidulans"}) {
		t.Error("wrong predicate should not match")
	}
	if q.Matches(Triple{"seq1", "EMBL#Organism", "Penicillium"}) {
		t.Error("wrong object should not match")
	}
}

func TestPatternBind(t *testing.T) {
	q := Pattern{S: Var("x"), P: Const("p"), O: Var("y")}
	b, ok := q.Bind(Triple{"s", "p", "o"})
	if !ok || b["x"] != "s" || b["y"] != "o" {
		t.Errorf("Bind = %v ok=%v", b, ok)
	}
	if _, ok := q.Bind(Triple{"s", "q", "o"}); ok {
		t.Error("Bind should fail on non-match")
	}
}

func TestPatternBindRepeatedVariable(t *testing.T) {
	q := Pattern{S: Var("x"), P: Const("sameAs"), O: Var("x")}
	if _, ok := q.Bind(Triple{"a", "sameAs", "b"}); ok {
		t.Error("repeated variable with different values should fail")
	}
	b, ok := q.Bind(Triple{"a", "sameAs", "a"})
	if !ok || b["x"] != "a" {
		t.Errorf("repeated variable bind = %v ok=%v", b, ok)
	}
}

func TestPatternVariables(t *testing.T) {
	q := Pattern{S: Var("x"), P: Var("y"), O: Var("x")}
	vars := q.Variables()
	if len(vars) != 2 || vars[0] != "x" || vars[1] != "y" {
		t.Errorf("Variables = %v", vars)
	}
}

func TestMostSpecificConstant(t *testing.T) {
	// Subject beats object beats predicate.
	q := Pattern{S: Const("s"), P: Const("p"), O: Const("o")}
	if pos, v, ok := q.MostSpecificConstant(); !ok || pos != Subject || v != "s" {
		t.Errorf("got %v %q %v", pos, v, ok)
	}
	q = Pattern{S: Var("x"), P: Const("p"), O: Const("o")}
	if pos, v, ok := q.MostSpecificConstant(); !ok || pos != Object || v != "o" {
		t.Errorf("got %v %q %v", pos, v, ok)
	}
	// The paper's example: predicate constant, object LIKE → predicate.
	q = Pattern{S: Var("x"), P: Const("EMBL#Organism"), O: LikeTerm("%Aspergillus%")}
	if pos, v, ok := q.MostSpecificConstant(); !ok || pos != Predicate || v != "EMBL#Organism" {
		t.Errorf("got %v %q %v", pos, v, ok)
	}
	q = Pattern{S: Var("x"), P: Var("y"), O: LikeTerm("%z%")}
	if _, _, ok := q.MostSpecificConstant(); ok {
		t.Error("no constant should return ok=false")
	}
}

func TestWithTermAndTerm(t *testing.T) {
	q := Pattern{S: Var("x"), P: Const("p"), O: Var("y")}
	q2 := q.WithTerm(Predicate, Const("p2"))
	if q2.P.Value != "p2" || q.P.Value != "p" {
		t.Error("WithTerm should copy")
	}
	if q.Term(Subject).Value != "x" || q.Term(Object).Value != "y" {
		t.Error("Term accessor broken")
	}
}

// Property: Bind succeeds exactly when Matches, for variable-only patterns.
func TestBindMatchesConsistency(t *testing.T) {
	f := func(s, p, o string) bool {
		q := Pattern{S: Var("a"), P: Var("b"), O: Var("c")}
		tr := Triple{s, p, o}
		b, ok := q.Bind(tr)
		return ok == q.Matches(tr) && (!ok || (b["a"] == s && b["b"] == p && b["c"] == o))
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
