package triple

import (
	"fmt"
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

// BenchmarkHashJoin reports time and allocations for a skewed join in both
// input orders — the build-on-smaller-side rule makes them symmetric — and
// for the benchmark's join: 256 rows a side, every one finding its partner.
func BenchmarkHashJoin(b *testing.B) {
	big, small := joinInputs(20000, 16, 8)
	b.Run("equal-256", func(b *testing.B) {
		db, first, second := joinShape(256)
		l := BindTriplesMatched(first, db.SelectSorted(first), true)
		r := BindTriplesMatched(second, db.SelectSorted(second), true)
		b.ReportAllocs()
		b.ResetTimer()
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
