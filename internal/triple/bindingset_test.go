package triple

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestBindTriplesFlattens(t *testing.T) {
	q := Pattern{S: Var("x"), P: Const("A#org"), O: Var("o")}
	bs := BindTriplesMatched(q, []Triple{
		{Subject: "s1", Predicate: "A#org", Object: "v1"},
		{Subject: "s2", Predicate: "A#org", Object: "v2"},
	}, true)
	if !reflect.DeepEqual(bs.Vars, []string{"x", "o"}) {
		t.Fatalf("Vars = %v", bs.Vars)
	}
	if bs.Len() != 2 || bs.Rows[0][0] != "s1" || bs.Rows[1][1] != "v2" {
		t.Errorf("Rows = %v", bs.Rows)
	}
}

func TestBindTriplesRepeatedVariable(t *testing.T) {
	q := Pattern{S: Var("x"), P: Const("p"), O: Var("x")}
	bs := BindTriplesMatched(q, []Triple{
		{Subject: "a", Predicate: "p", Object: "a"}, // consistent
		{Subject: "a", Predicate: "p", Object: "b"}, // inconsistent: dropped
	}, true)
	if bs.Len() != 1 || bs.Rows[0][0] != "a" {
		t.Errorf("Rows = %v", bs.Rows)
	}
	if len(bs.Vars) != 1 {
		t.Errorf("Vars = %v", bs.Vars)
	}
}

func TestBindTriplesDeduplicates(t *testing.T) {
	// The LIKE position is not a variable, so two triples differing only
	// there collapse into one binding row.
	q := Pattern{S: Var("x"), P: Const("p"), O: LikeTerm("%asp%")}
	// distinct or not: a LIKE term always keeps the dedupe map.
	bs := BindTriplesMatched(q, []Triple{
		{Subject: "s", Predicate: "p", Object: "asp-1"},
		{Subject: "s", Predicate: "p", Object: "asp-2"},
	}, true)
	if bs.Len() != 1 {
		t.Errorf("Rows = %v", bs.Rows)
	}
}

func TestHashJoinSharedVariable(t *testing.T) {
	left := &BindingSet{Vars: []string{"x", "a"}, Rows: [][]string{
		{"s1", "1"}, {"s2", "2"},
	}}
	right := &BindingSet{Vars: []string{"x", "b"}, Rows: [][]string{
		{"s1", "10"}, {"s3", "30"},
	}}
	out := HashJoin(left, right)
	if !reflect.DeepEqual(out.Vars, []string{"x", "a", "b"}) {
		t.Fatalf("Vars = %v", out.Vars)
	}
	if out.Len() != 1 || !reflect.DeepEqual(out.Rows[0], []string{"s1", "1", "10"}) {
		t.Errorf("Rows = %v", out.Rows)
	}
}

func TestHashJoinCartesian(t *testing.T) {
	left := &BindingSet{Vars: []string{"a"}, Rows: [][]string{{"1"}, {"2"}}}
	right := &BindingSet{Vars: []string{"b"}, Rows: [][]string{{"x"}, {"y"}}}
	out := HashJoin(left, right)
	if out.Len() != 4 {
		t.Errorf("cartesian rows = %v", out.Rows)
	}
}

func TestHashJoinMatchesNestedLoop(t *testing.T) {
	// Property: on uniform binding sets, HashJoin and the nested-loop merge
	// agree exactly (same rows, same order).
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		left := make([]Bindings, rng.Intn(8))
		for i := range left {
			left[i] = Bindings{"x": fmt.Sprint(rng.Intn(4)), "a": fmt.Sprint(rng.Intn(3))}
		}
		right := make([]Bindings, rng.Intn(8))
		for i := range right {
			right[i] = Bindings{"x": fmt.Sprint(rng.Intn(4)), "b": fmt.Sprint(rng.Intn(3))}
		}
		nested := JoinBindingsNestedLoop(left, right)
		l, _ := NewBindingSetFromBindings(left)
		r, _ := NewBindingSetFromBindings(right)
		hashed := HashJoin(l, r).ToBindings()
		if len(nested) == 0 && len(hashed) == 0 {
			continue
		}
		if !reflect.DeepEqual(nested, hashed) {
			t.Fatalf("trial %d:\nnested = %v\nhashed = %v", trial, nested, hashed)
		}
	}
}

func TestJoinBindingsHeterogeneousFallback(t *testing.T) {
	left := []Bindings{{"x": "1"}, {"x": "1", "y": "2"}} // heterogeneous
	right := []Bindings{{"x": "1", "z": "3"}}
	out := JoinBindings(left, right)
	if len(out) != 2 {
		t.Fatalf("out = %v", out)
	}
	for _, b := range out {
		if b["x"] != "1" || b["z"] != "3" {
			t.Errorf("row = %v", b)
		}
	}
}

func TestBindingSetConverters(t *testing.T) {
	bindings := []Bindings{
		{"x": "s1", "len": "100"},
		{"x": "s2", "len": "200"},
	}
	bs, ok := NewBindingSetFromBindings(bindings)
	if !ok {
		t.Fatal("uniform bindings should flatten")
	}
	if !reflect.DeepEqual(bs.Vars, []string{"len", "x"}) {
		t.Fatalf("Vars = %v", bs.Vars)
	}
	back := bs.ToBindings()
	if !reflect.DeepEqual(back, bindings) {
		t.Errorf("roundtrip = %v", back)
	}
	if _, ok := NewBindingSetFromBindings([]Bindings{{"x": "1"}, {"y": "2"}}); ok {
		t.Error("heterogeneous bindings should not flatten")
	}
}

func TestDistinctValuesSorted(t *testing.T) {
	bs := &BindingSet{Vars: []string{"x"}, Rows: [][]string{{"b"}, {"a"}, {"b"}, {"c"}}}
	got := bs.DistinctValues("x")
	if !sort.StringsAreSorted(got) || len(got) != 3 {
		t.Errorf("DistinctValues = %v", got)
	}
	if bs.DistinctValues("missing") != nil {
		t.Error("missing column should return nil")
	}
}

func TestAddConstColumn(t *testing.T) {
	bs := &BindingSet{Vars: []string{"a"}, Rows: [][]string{{"1"}, {"2"}}}
	bs.AddConstColumn("x", "v")
	if bs.VarIndex("x") != 1 || bs.Rows[0][1] != "v" || bs.Rows[1][1] != "v" {
		t.Errorf("set = %+v", bs)
	}
}

func TestSortRows(t *testing.T) {
	bs := &BindingSet{Vars: []string{"a", "b"}, Rows: [][]string{
		{"2", "x"}, {"1", "z"}, {"1", "a"},
	}}
	bs.SortRows()
	want := [][]string{{"1", "a"}, {"1", "z"}, {"2", "x"}}
	if !reflect.DeepEqual(bs.Rows, want) {
		t.Errorf("Rows = %v", bs.Rows)
	}
}
