package triple

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func sampleDB() *DB {
	db := NewDB()
	db.Insert(Triple{"seq1", "EMBL#Organism", "Aspergillus nidulans"})
	db.Insert(Triple{"seq1", "EMBL#Length", "1422"})
	db.Insert(Triple{"seq2", "EMBL#Organism", "Aspergillus niger"})
	db.Insert(Triple{"seq3", "EMBL#Organism", "Penicillium chrysogenum"})
	db.Insert(Triple{"seq3", "EMBL#Length", "980"})
	return db
}

func TestInsertIdempotent(t *testing.T) {
	db := NewDB()
	tr := Triple{"s", "p", "o"}
	if !db.Insert(tr) {
		t.Error("first insert should report new")
	}
	if db.Insert(tr) {
		t.Error("second insert should report existing")
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d", db.Len())
	}
}

func TestDelete(t *testing.T) {
	db := sampleDB()
	tr := Triple{"seq1", "EMBL#Length", "1422"}
	if !db.Delete(tr) {
		t.Error("delete should report present")
	}
	if db.Delete(tr) {
		t.Error("second delete should report absent")
	}
	if db.Has(tr) {
		t.Error("triple still present after delete")
	}
	// Index cleanup: selecting by the deleted subject must not return it.
	got := db.Select(Pattern{S: Const("seq1"), P: Var("p"), O: Var("o")})
	if len(got) != 1 {
		t.Errorf("seq1 triples = %v", got)
	}
}

func TestSelectBySubject(t *testing.T) {
	db := sampleDB()
	got := db.Select(Pattern{S: Const("seq1"), P: Var("p"), O: Var("o")})
	if len(got) != 2 {
		t.Errorf("got %d triples", len(got))
	}
}

func TestSelectByPredicate(t *testing.T) {
	db := sampleDB()
	got := db.Select(Pattern{S: Var("x"), P: Const("EMBL#Organism"), O: Var("o")})
	if len(got) != 3 {
		t.Errorf("got %d triples", len(got))
	}
}

func TestSelectByObject(t *testing.T) {
	db := sampleDB()
	got := db.Select(Pattern{S: Var("x"), P: Var("p"), O: Const("1422")})
	if len(got) != 1 || got[0].Subject != "seq1" {
		t.Errorf("got %v", got)
	}
}

func TestSelectWithLike(t *testing.T) {
	db := sampleDB()
	// The paper's example query: organisms containing "Aspergillus".
	q := Pattern{S: Var("x"), P: Const("EMBL#Organism"), O: LikeTerm("%Aspergillus%")}
	got := db.Select(q)
	if len(got) != 2 {
		t.Fatalf("got %d triples, want 2", len(got))
	}
	for _, tr := range got {
		if tr.Subject != "seq1" && tr.Subject != "seq2" {
			t.Errorf("unexpected subject %q", tr.Subject)
		}
	}
}

func TestSelectFullScan(t *testing.T) {
	db := sampleDB()
	got := db.Select(Pattern{S: Var("x"), P: Var("p"), O: LikeTerm("%asp%")})
	if len(got) != 2 {
		t.Errorf("full-scan LIKE got %d", len(got))
	}
}

func TestSelectSortedDeterministic(t *testing.T) {
	db := sampleDB()
	a := db.SelectSorted(Pattern{S: Var("x"), P: Var("p"), O: Var("o")})
	b := db.SelectSorted(Pattern{S: Var("x"), P: Var("p"), O: Var("o")})
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("lens %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("SelectSorted not deterministic")
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].Subject > a[i].Subject {
			t.Fatal("SelectSorted not ordered by subject")
		}
	}
}

func TestAll(t *testing.T) {
	db := sampleDB()
	if got := db.All(); len(got) != 5 {
		t.Errorf("All = %d", len(got))
	}
}

func TestProject(t *testing.T) {
	db := sampleDB()
	ts := db.Select(Pattern{S: Var("x"), P: Const("EMBL#Organism"), O: LikeTerm("%Aspergillus%")})
	rows := Project(ts, Subject)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		if len(r) != 1 {
			t.Errorf("row width = %d", len(r))
		}
	}
	rows2 := Project(ts, Subject, Object)
	if len(rows2[0]) != 2 {
		t.Errorf("row2 width = %d", len(rows2[0]))
	}
}

func TestSelectBindings(t *testing.T) {
	db := sampleDB()
	bs := db.SelectBindings(Pattern{S: Var("x"), P: Const("EMBL#Organism"), O: Var("org")})
	if len(bs) != 3 {
		t.Fatalf("bindings = %v", bs)
	}
	for _, b := range bs {
		if b["x"] == "" || b["org"] == "" {
			t.Errorf("incomplete binding %v", b)
		}
	}
}

func TestJoinBindings(t *testing.T) {
	db := sampleDB()
	// Conjunctive query: x? with Organism LIKE %Aspergillus% AND Length y?.
	left := db.SelectBindings(Pattern{S: Var("x"), P: Const("EMBL#Organism"), O: LikeTerm("%Aspergillus%")})
	right := db.SelectBindings(Pattern{S: Var("x"), P: Const("EMBL#Length"), O: Var("len")})
	joined := JoinBindings(left, right)
	// Only seq1 has both an Aspergillus organism and a length.
	if len(joined) != 1 {
		t.Fatalf("joined = %v", joined)
	}
	if joined[0]["x"] != "seq1" || joined[0]["len"] != "1422" {
		t.Errorf("joined binding = %v", joined[0])
	}
}

func TestJoinBindingsNilLeft(t *testing.T) {
	right := []Bindings{{"x": "a"}}
	if got := JoinBindings(nil, right); len(got) != 1 {
		t.Errorf("nil-left join = %v", got)
	}
}

func TestJoinBindingsDisjointVars(t *testing.T) {
	left := []Bindings{{"x": "1"}, {"x": "2"}}
	right := []Bindings{{"y": "a"}}
	got := JoinBindings(left, right)
	if len(got) != 2 {
		t.Fatalf("cross join size = %d", len(got))
	}
	if got[0]["x"] == "" || got[0]["y"] == "" {
		t.Error("merged binding incomplete")
	}
}

func TestJoinBindingsConflict(t *testing.T) {
	left := []Bindings{{"x": "1"}}
	right := []Bindings{{"x": "2"}}
	if got := JoinBindings(left, right); len(got) != 0 {
		t.Errorf("conflicting join = %v", got)
	}
}

func TestDistinctValues(t *testing.T) {
	db := sampleDB()
	vals := db.DistinctValues("EMBL#Organism", Object)
	if len(vals) != 3 {
		t.Fatalf("vals = %v", vals)
	}
	if vals[0] != "Aspergillus nidulans" {
		t.Errorf("not sorted: %v", vals)
	}
	subs := db.DistinctValues("EMBL#Organism", Subject)
	if len(subs) != 3 {
		t.Errorf("subjects = %v", subs)
	}
	if got := db.DistinctValues("missing#pred", Object); len(got) != 0 {
		t.Errorf("missing predicate = %v", got)
	}
}

func TestPredicates(t *testing.T) {
	db := sampleDB()
	ps := db.Predicates()
	if len(ps) != 2 || ps[0] != "EMBL#Length" || ps[1] != "EMBL#Organism" {
		t.Errorf("Predicates = %v", ps)
	}
}

// Property: insert-then-select by any position finds the triple; delete
// removes it from all indexes.
func TestIndexRoundtripProperty(t *testing.T) {
	f := func(s, p, o string) bool {
		db := NewDB()
		tr := Triple{s, p, o}
		db.Insert(tr)
		bySubj := db.Select(Pattern{S: Const(s), P: Var("p"), O: Var("o")})
		byPred := db.Select(Pattern{S: Var("s"), P: Const(p), O: Var("o")})
		byObj := db.Select(Pattern{S: Var("s"), P: Var("p"), O: Const(o)})
		if len(bySubj) != 1 || len(byPred) != 1 || len(byObj) != 1 {
			return false
		}
		db.Delete(tr)
		return db.Len() == 0 &&
			len(db.Select(Pattern{S: Const(s), P: Var("p"), O: Var("o")})) == 0
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: JoinBindings is commutative up to reordering for conflict-free
// inputs on a shared variable.
func TestJoinCommutativeProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		left := make([]Bindings, 0, len(vals))
		right := make([]Bindings, 0, len(vals))
		for i, v := range vals {
			b := Bindings{"x": fmt.Sprint(v % 4)}
			if i%2 == 0 {
				left = append(left, b)
			} else {
				right = append(right, b)
			}
		}
		ab := JoinBindings(left, right)
		ba := JoinBindings(right, left)
		return len(ab) == len(ba)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(6))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkSelectByPredicate(b *testing.B) {
	db := NewDB()
	for i := 0; i < 10000; i++ {
		db.Insert(Triple{fmt.Sprintf("s%d", i), fmt.Sprintf("p%d", i%50), fmt.Sprintf("o%d", i%100)})
	}
	q := Pattern{S: Var("x"), P: Const("p7"), O: Var("o")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Select(q)
	}
}

// The seed's map-per-row operators, kept for the tests above: the engine
// binds and joins flattened BindingSets (bindingset.go) and projects in rdql.

// Project implements the projection operator π: it extracts the values at
// the given positions from each triple.
func Project(ts []Triple, positions ...Position) [][]string {
	out := make([][]string, len(ts))
	for i, t := range ts {
		row := make([]string, len(positions))
		for j, p := range positions {
			row[j] = t.Component(p)
		}
		out[i] = row
	}
	return out
}

// SelectBindings evaluates a pattern and returns the variable bindings of
// every matching triple, in sorted triple order.
func (db *DB) SelectBindings(q Pattern) []Bindings {
	var out []Bindings
	for _, t := range db.SelectSorted(q) {
		if b, ok := q.Bind(t); ok {
			out = append(out, b)
		}
	}
	return out
}

// JoinBindings is the natural join on binding maps: a hash join through the
// flattened representation when both sides are uniform, the nested-loop
// merge for heterogeneous rows, which have no single join key.
func JoinBindings(left, right []Bindings) []Bindings {
	if left == nil {
		return right
	}
	l, lok := NewBindingSetFromBindings(left)
	if lok {
		if r, rok := NewBindingSetFromBindings(right); rok {
			return HashJoin(l, r).ToBindings()
		}
	}
	return JoinBindingsNestedLoop(left, right)
}
