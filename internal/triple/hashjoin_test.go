package triple

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// joinInputs builds a big/small binding-set pair sharing variable x with
// `matches` joinable rows.
func joinInputs(big, small, matches int) (*BindingSet, *BindingSet) {
	b := &BindingSet{Vars: []string{"x", "a"}}
	for i := 0; i < big; i++ {
		b.Rows = append(b.Rows, []string{fmt.Sprintf("x%06d", i), fmt.Sprintf("a%d", i)})
	}
	s := &BindingSet{Vars: []string{"x", "b"}}
	for i := 0; i < small; i++ {
		x := fmt.Sprintf("x%06d", i)
		if i >= matches {
			x = fmt.Sprintf("miss%d", i)
		}
		s.Rows = append(s.Rows, []string{x, fmt.Sprintf("b%d", i)})
	}
	return b, s
}

// TestHashJoinBuildSideEquivalence pins that building on the smaller side
// changes neither the result set nor the canonical left-major output order.
func TestHashJoinBuildSideEquivalence(t *testing.T) {
	big, small := joinInputs(50, 7, 5)
	// Duplicate join keys on both sides to exercise multi-match buckets.
	big.Rows = append(big.Rows, []string{"x000001", "adup"})
	small.Rows = append(small.Rows, []string{"x000002", "bdup"})

	for _, tc := range []struct {
		name        string
		left, right *BindingSet
	}{
		{"small-build-right", big, small},
		{"small-build-left", small, big},
	} {
		got := HashJoin(tc.left, tc.right)
		want := JoinBindingsNestedLoop(tc.left.ToBindings(), tc.right.ToBindings())
		if got.Len() != len(want) {
			t.Fatalf("%s: %d rows, nested loop %d", tc.name, got.Len(), len(want))
		}
		// Nested loop emits left-major too: orders must agree row by row.
		for i, w := range want {
			for j, v := range got.Vars {
				if got.Rows[i][j] != w[v] {
					t.Fatalf("%s: row %d = %v, want %v", tc.name, i, got.Rows[i], w)
				}
			}
		}
	}
}

// TestHashJoinAllocsBoundedByBuildSide is the allocation-count assertion of
// the build-side optimization: probing a large side against a small build
// table must not allocate per probe row. Before the optimization the table
// was always built on one fixed side, so a 20k-row probe side as the build
// input cost ≥20k allocations; now the 8-row side is built and the join
// stays well under 1k allocations regardless of input order.
func TestHashJoinAllocsBoundedByBuildSide(t *testing.T) {
	big, small := joinInputs(20000, 8, 4)
	for _, tc := range []struct {
		name        string
		left, right *BindingSet
	}{
		{"big-left", big, small},
		{"big-right", small, big},
	} {
		allocs := testing.AllocsPerRun(3, func() {
			HashJoin(tc.left, tc.right)
		})
		if allocs > 1000 {
			t.Errorf("%s: %.0f allocs for an 8-row build side — table built on the probe side?", tc.name, allocs)
		}
	}
}

// sortedSide builds n rows over vars whose key column ascends: keys drawn
// from keys[prefix+"00" .. prefix+"<span-1>"] with repeats, every other
// column a distinct value.
func sortedSide(rng *rand.Rand, vars []string, key string, n, span int, prefix string) *BindingSet {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s%02d", prefix, rng.Intn(span))
	}
	sort.Strings(keys)
	bs := &BindingSet{Vars: vars}
	for i, k := range keys {
		row := make([]string, len(vars))
		for j, v := range vars {
			if v == key {
				row[j] = k
			} else {
				row[j] = fmt.Sprintf("%s%d", v, i)
			}
		}
		bs.Rows = append(bs.Rows, row)
	}
	return bs
}

// equalJoins reports the first row where two join results differ, order
// included.
func equalJoins(t *testing.T, name string, got, want *BindingSet) {
	t.Helper()
	if !slices.Equal(got.Vars, want.Vars) || got.Len() != want.Len() {
		t.Fatalf("%s: %v with %d rows, want %v with %d", name, got.Vars, got.Len(), want.Vars, want.Len())
	}
	for i := range want.Rows {
		if !slices.Equal(got.Rows[i], want.Rows[i]) {
			t.Fatalf("%s: row %d = %v, want %v", name, i, got.Rows[i], want.Rows[i])
		}
	}
}

// Property: over inputs that ascend in their one shared variable — repeated
// keys on both sides, empty sides, sides that share no key — the merge path
// emits exactly the hash path's rows in the hash path's order, and both
// equal the nested loop's left-major answer.
func TestMergeJoinMatchesHashJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	merged := 0
	for trial := 0; trial < 400; trial++ {
		leftVars := []string{"x", "a"}
		if rng.Intn(2) == 0 {
			leftVars = []string{"a", "x"}
		}
		rightPrefix := "k"
		if trial%10 == 0 {
			rightPrefix = "m" // every key misses
		}
		left := sortedSide(rng, leftVars, "x", rng.Intn(30), 1+rng.Intn(12), "k")
		right := sortedSide(rng, []string{"b", "x"}, "x", rng.Intn(30), 1+rng.Intn(12), rightPrefix)
		for _, pair := range [][2]*BindingSet{{left, right}, {right, left}} {
			l, r := pair[0], pair[1]
			if !bothAscend(l.Rows, r.Rows, l.VarIndex("x"), r.VarIndex("x")) {
				t.Fatalf("trial %d: fixture does not ascend", trial)
			}
			got := HashJoin(l, r)
			equalJoins(t, fmt.Sprintf("trial %d: merge vs hash", trial), got, join(l, r, false))
			nested := JoinBindingsNestedLoop(l.ToBindings(), r.ToBindings())
			if got.Len() != len(nested) {
				t.Fatalf("trial %d: %d rows, nested loop %d", trial, got.Len(), len(nested))
			}
			for i, w := range nested {
				for j, v := range got.Vars {
					if got.Rows[i][j] != w[v] {
						t.Fatalf("trial %d: row %d = %v, nested loop %v", trial, i, got.Rows[i], w)
					}
				}
			}
			if got.Len() > 0 {
				merged++
			}
		}
	}
	if merged < 200 {
		t.Fatalf("only %d of 800 joins produced rows", merged)
	}
}

// A column that ascends is deduped by neighbours; shuffled, the same rows
// go through the map and the sort. Both give the model's sorted distinct
// values.
func TestDistinctValuesOrderedMatchesUnordered(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		bs := sortedSide(rng, []string{"a", "x"}, "x", rng.Intn(40), 1+rng.Intn(15), "k")
		set := map[string]bool{}
		for _, row := range bs.Rows {
			set[row[1]] = true
		}
		want := make([]string, 0, len(set))
		for v := range set {
			want = append(want, v)
		}
		sort.Strings(want)
		if got := bs.DistinctValues("x"); !slices.Equal(got, want) {
			t.Fatalf("trial %d: ascending column: %v, want %v", trial, got, want)
		}
		if len(want) < 2 {
			continue
		}
		for bs.Ascending(1) {
			rng.Shuffle(len(bs.Rows), func(i, j int) { bs.Rows[i], bs.Rows[j] = bs.Rows[j], bs.Rows[i] })
		}
		if got := bs.DistinctValues("x"); !slices.Equal(got, want) {
			t.Fatalf("trial %d: shuffled column: %v, want %v", trial, got, want)
		}
	}
}

// BenchmarkHashJoin reports time and allocations for a skewed join in both
// input orders — the build-on-smaller-side rule makes them symmetric — and
// for the benchmark's join: 256 rows a side, every one finding its partner.
// sorted-256 joins the two σ answers as they come, in order, and merges;
// equal-256 hashes the same inputs.
func BenchmarkHashJoin(b *testing.B) {
	big, small := joinInputs(20000, 16, 8)
	db, first, second := joinShape(256)
	l := BindTriplesMatched(first, db.SelectSorted(first), true)
	r := BindTriplesMatched(second, db.SelectSorted(second), true)
	b.Run("equal-256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			join(l, r, false)
		}
	})
	b.Run("sorted-256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			HashJoin(l, r)
		}
	})
	b.Run("small-right", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			HashJoin(big, small)
		}
	})
	b.Run("small-left", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			HashJoin(small, big)
		}
	})
}
