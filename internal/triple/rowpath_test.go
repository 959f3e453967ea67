package triple

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

// The path of a joined row through this package — σ over row pointers, the
// bind into a flat BindingSet, the hash join — and the row key all three
// dedupe and join by.

// Values may hold any byte, NUL included: ("a\x00","b") and ("a","\x00b")
// are different rows, and a key that only separated values with NUL made
// them one.
func TestRowKeysAreInjective(t *testing.T) {
	a, b := []string{"a\x00", "b"}, []string{"a", "\x00b"}
	if string(AppendRowKey(nil, a)) == string(AppendRowKey(nil, b)) {
		t.Fatalf("rows %q and %q share a key", a, b)
	}

	left := &BindingSet{Vars: []string{"x", "y"}, Rows: [][]string{a}}
	right := &BindingSet{Vars: []string{"x", "y", "z"}, Rows: [][]string{{"a", "\x00b", "other"}, {"a\x00", "b", "mine"}}}
	for _, tc := range []struct{ l, r *BindingSet }{{left, right}, {right, left}} {
		if out := HashJoin(tc.l, tc.r); out.Len() != 1 || out.Rows[0][out.VarIndex("z")] != "mine" {
			t.Errorf("HashJoin joined rows that disagree on both shared columns: %q", out.Rows)
		}
	}

	q := Pattern{S: Var("x"), P: Const("p"), O: Var("y")}
	ts := []Triple{{"a\x00", "p", "b"}, {"a", "p", "\x00b"}}
	if bs := BindTriplesMatched(q, ts, false); bs.Len() != 2 {
		t.Errorf("bind dropped one of two distinct triples: %q", bs.Rows)
	}

	bs := &BindingSet{Vars: []string{"x", "y"}, Rows: [][]string{a, b, a}}
	if got := bs.DistinctTuples([]string{"x", "y"}); !reflect.DeepEqual(got, [][]string{b, a}) {
		t.Errorf("DistinctTuples = %q, want both rows once", got)
	}
}

// randomStore fills a store with triples over a small vocabulary, so
// patterns with repeated variables, two constants and LIKE terms all match
// something.
func randomStore(rng *rand.Rand, n int) *DB {
	db := NewDB()
	for i := 0; i < n; i++ {
		db.Insert(Triple{
			Subject:   fmt.Sprintf("v%d", rng.Intn(12)),
			Predicate: fmt.Sprintf("P#a%d", rng.Intn(4)),
			Object:    fmt.Sprintf("v%d", rng.Intn(12)),
		})
	}
	return db
}

func randomTerm(rng *rand.Rand, value string) Term {
	switch rng.Intn(6) {
	case 0:
		return Const(value)
	case 1:
		return LikeTerm("%" + value[len(value)-1:])
	default:
		return Var([]string{"x", "y"}[rng.Intn(2)])
	}
}

// Property: for one store's answer to q itself the dedupe-free bind returns
// exactly what the bind with the seen map returns, whatever q repeats or
// leaves unbound — and a LIKE term still collapses the rows it must.
func TestBindDistinctMatchesDedupe(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	likeCollapsed := false
	for trial := 0; trial < 400; trial++ {
		db := randomStore(rng, 80)
		some := db.All()[0]
		q := Pattern{S: randomTerm(rng, some.Subject), P: randomTerm(rng, some.Predicate), O: randomTerm(rng, some.Object)}
		ts := db.SelectSorted(q)
		fast, slow := BindTriplesMatched(q, ts, true), BindTriplesMatched(q, ts, false)
		if !reflect.DeepEqual(fast.Vars, slow.Vars) || !slices.EqualFunc(fast.Rows, slow.Rows, slices.Equal[[]string]) {
			t.Fatalf("trial %d: %v over %d triples\ndistinct: %q\n  dedupe: %q", trial, q, len(ts), fast.Rows, slow.Rows)
		}
		keys := map[string]bool{}
		for _, row := range fast.Rows {
			k := string(AppendRowKey(nil, row))
			if keys[k] {
				t.Fatalf("trial %d: %v binds row %q twice", trial, q, row)
			}
			keys[k] = true
		}
		hasLike, variables := false, 0
		for _, term := range [3]Term{q.S, q.P, q.O} {
			hasLike = hasLike || term.Kind == Like
			if term.Kind == Variable {
				variables++
			}
		}
		if !hasLike && variables == len(q.Variables()) && fast.Len() != len(ts) {
			t.Fatalf("trial %d: %v lost rows without a LIKE term or a repeated variable: %d of %d", trial, q, fast.Len(), len(ts))
		}
		likeCollapsed = likeCollapsed || (hasLike && fast.Len() < len(ts))
	}
	if !likeCollapsed {
		t.Error("no trial had a LIKE term collapse two triples into one row")
	}
}

// A reformulated answer is not one store's answer to q: the same row can
// come back under two predicates, and only the seen map makes it one.
func TestBindReformulatedVariantsCollapse(t *testing.T) {
	q := Pattern{S: Var("x"), P: Const("A#org"), O: Var("o")}
	ts := []Triple{{"s1", "A#org", "v"}, {"s1", "B#name", "v"}, {"s2", "B#name", "v"}}
	bs := BindTriplesMatched(q, ts, false)
	if want := [][]string{{"s1", "v"}, {"s2", "v"}}; !reflect.DeepEqual(bs.Rows, want) {
		t.Errorf("Rows = %q, want %q", bs.Rows, want)
	}
}

// SelectSorted is SortTriples over Select, also while writers add and remove
// other triples: rows are read through pointers after the database lock is
// released, which is only sound because a stored row is never written.
func TestSelectSortedUnderConcurrentWrites(t *testing.T) {
	db := NewDB()
	var stable []Triple
	for i := 0; i < 300; i++ {
		stable = append(stable, Triple{fmt.Sprintf("s%03d", i), fmt.Sprintf("P#a%d", i%3), fmt.Sprintf("o%d", i%7)})
	}
	db.InsertBatch(stable)
	isStable := func(t Triple) bool { return t.Subject[0] == 's' }

	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				tr := Triple{fmt.Sprintf("churn%d-%d", w, rng.Intn(40)), fmt.Sprintf("P#a%d", rng.Intn(3)), fmt.Sprintf("o%d", rng.Intn(7))}
				if rng.Intn(2) == 0 {
					db.Insert(tr)
				} else {
					db.Delete(tr)
				}
			}
		}(w)
	}

	patterns := []Pattern{
		{S: Var("x"), P: Const("P#a1"), O: Var("o")},
		{S: Var("x"), P: Const("P#a2"), O: Const("o3")},
		{S: Var("x"), P: Var("p"), O: LikeTerm("o%")},
	}
	for round := 0; round < 200; round++ {
		q := patterns[round%len(patterns)]
		sorted := db.SelectSorted(q)
		if !slices.IsSortedFunc(sorted, func(a, b Triple) int { return compareRows(&a, &b) }) {
			t.Fatalf("round %d: SelectSorted(%v) is out of order", round, q)
		}
		unsorted := db.Select(q)
		SortTriples(unsorted)
		var want []Triple
		for _, tr := range stable {
			if q.Matches(tr) {
				want = append(want, tr)
			}
		}
		SortTriples(want)
		for name, got := range map[string][]Triple{"SelectSorted": sorted, "SortTriples(Select)": unsorted} {
			kept := got[:0:0]
			for _, tr := range got {
				if !q.Matches(tr) {
					t.Fatalf("round %d: %s(%v) returned %v", round, name, q, tr)
				}
				if isStable(tr) {
					kept = append(kept, tr)
				}
			}
			if !slices.Equal(kept, want) {
				t.Fatalf("round %d: %s(%v) holds %d of the %d untouched triples", round, name, q, len(kept), len(want))
			}
		}
	}
	close(stop)
	writers.Wait()
}

// joinShape is the benchmark's join as this package sees it: rows subjects
// carrying two attributes each, among as many triples again under other
// predicates.
func joinShape(rows int) (db *DB, first, second Pattern) {
	db = NewDB()
	for i := 0; i < rows; i++ {
		s := fmt.Sprintf("acc:%05d", i)
		db.Insert(Triple{s, "S#organism", fmt.Sprintf("species-%d", i%17)})
		db.Insert(Triple{s, "S#length", fmt.Sprint(1000 + i)})
		db.Insert(Triple{s, fmt.Sprintf("S#other%d", i%5), "x"})
		db.Insert(Triple{"ref:" + s, "T#cites", s})
	}
	return db,
		Pattern{S: Var("x"), P: Const("S#organism"), O: Var("a")},
		Pattern{S: Var("x"), P: Const("S#length"), O: Var("b")}
}

// subjectShape is a subject lookup's store: one subject carrying rows
// attributes, filed in shuffled order, among subjects of four attributes
// each up to total rows.
func subjectShape(total, rows int) (db *DB, lookup Pattern) {
	db = NewDB()
	for _, i := range rand.New(rand.NewSource(1)).Perm(rows) {
		db.Insert(Triple{"acc:hot", fmt.Sprintf("S%d#attr%d", i%3, i), fmt.Sprint("value-", i)})
	}
	for i := rows; i < total; i++ {
		db.Insert(Triple{fmt.Sprintf("acc:%06d", i/4), fmt.Sprintf("S%d#attr%d", i%3, i%4), fmt.Sprint("value-", i)})
	}
	return db, Pattern{S: Const("acc:hot"), P: Var("p"), O: Var("o")}
}

// Allocation budgets, in allocations per input row: each stage of a joined
// row's life allocates per answer, not per row. They gate in the un-raced
// test job.
func TestRowPathAllocationBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime inflates testing.AllocsPerRun")
	}
	const rows = 256
	db, first, second := joinShape(rows)
	left := BindTriplesMatched(first, db.SelectSorted(first), true)
	answer := db.SelectSorted(second)
	right := BindTriplesMatched(second, answer, true)
	if left.Len() != rows || right.Len() != rows || HashJoin(left, right).Len() != rows {
		t.Fatalf("fixture: %d ⋈ %d rows", left.Len(), right.Len())
	}
	subjects, lookup := subjectShape(1024, 37)
	if got, _, ordered := subjects.matching(nil, lookup); len(got) != 37 || !ordered {
		t.Fatalf("fixture: subject lookup matched %d rows, in order: %v", len(got), ordered)
	}
	// A predicate posting filed out of order: the first ordered select sorts
	// it, and every later one reads it as it stands.
	shuffled := NewDB()
	for _, i := range rand.New(rand.NewSource(1)).Perm(rows) {
		shuffled.Insert(Triple{fmt.Sprintf("acc:%05d", i), "S#length", fmt.Sprint(1000 + i)})
	}
	if _, _, ordered := shuffled.matching(nil, second); ordered {
		t.Fatal("fixture: a predicate posting filed in shuffled order reads as in order")
	}
	shuffled.SelectSorted(second)
	if got, _, ordered := shuffled.matching(nil, second); len(got) != rows || !ordered {
		t.Fatalf("fixture: after one SelectSorted the predicate posting gave %d rows, in order: %v", len(got), ordered)
	}
	for _, tc := range []struct {
		name   string
		rows   int
		perRow float64
		run    func()
	}{
		// The pointer slice grows once per doubling, then one copy-out.
		{"SelectSorted by predicate", rows, 0.05, func() { db.SelectSorted(second) }},
		// An in-order predicate posting is the answer: the pointer slice and
		// the copy-out, no sort.
		{"in-order predicate select", rows, 0.01, func() { shuffled.SelectSorted(second) }},
		// The subject posting is the answer, in order: the copy-out only.
		{"SelectSorted by subject", 37, 0.03, func() { subjects.SelectSorted(lookup) }},
		// Vars, the row headers and one array of values.
		{"bind", rows, 0.03, func() { BindTriplesMatched(second, answer, true) }},
		// The same plus the dedupe map and its interned keys.
		{"bind with the seen map", rows, 1.2, func() { BindTriplesMatched(second, answer, false) }},
		// Both sides ascend in the shared column, so they merge: no table,
		// and row headers and values one array each, sized by a counting walk.
		{"HashJoin on one shared column", rows, 0.03, func() { HashJoin(left, right) }},
		// The table and its chain, then row headers and values two arrays each.
		{"hash path on one shared column", rows, 0.08, func() { join(left, right, false) }},
	} {
		if got := testing.AllocsPerRun(20, tc.run) / float64(tc.rows); got > tc.perRow {
			t.Errorf("%s: %.3f allocations per row, budget %.3f", tc.name, got, tc.perRow)
		} else {
			t.Logf("%s: %.3f allocations per row", tc.name, got)
		}
	}

	// σ reads only its answer. A reformulated variant (?x, P, "v") whose
	// value is as common under another schema's attribute (645 rows filed
	// under "v", 640 under P) examines the 5 rows of P's range in the object
	// posting: it pays their copy-out and a constant.
	variants := NewDB()
	for i := 0; i < 640; i++ {
		s, v := fmt.Sprintf("acc:%05d", i), fmt.Sprint("other-", i)
		if i%128 == 0 {
			v = "v"
		}
		variants.Insert(Triple{s, "S#organism", v})
		variants.Insert(Triple{s, "T#organism", "v"})
	}
	variant := Pattern{S: Var("x"), P: Const("S#organism"), O: Const("v")}
	matches, examined, ordered := variants.matching(nil, variant)
	if len(matches) != 5 || examined != 5 || !ordered {
		t.Fatalf("fixture: %d matches of %d rows examined, in order: %v", len(matches), examined, ordered)
	}
	const slack = 256
	copyOut := int64(len(matches)) * int64(unsafe.Sizeof(Triple{}))
	bytes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			variants.SelectSorted(variant)
		}
	}).AllocedBytesPerOp()
	if bytes > copyOut+slack {
		t.Errorf("SelectSorted(%v): %d bytes per call, budget %d (the answer's copy-out) + %d", variant, bytes, copyOut, slack)
	} else {
		t.Logf("SelectSorted(%v): %d bytes per call, copy-out %d", variant, bytes, copyOut)
	}
}

// BenchmarkSelectSorted is σ as a peer answering a pattern query pays it:
// bypredicate is one side of the benchmark's join (256 of 1 024 triples),
// twoconstants the (?, P, O) shape of a lookup and of every reformulated
// variant, and variant that shape over a value filed under 64 predicates,
// 8 rows under each, whose predicates each hold 120 rows of other values:
// the 8 rows of the object posting's P-range are the whole scan. subject is
// the (S, ?, ?) select a subject lookup ends in: one 37-row subject among
// 64k rows, whose posting is the answer in order.
func BenchmarkSelectSorted(b *testing.B) {
	db, _, second := joinShape(256)
	variants := NewDB()
	for i := 0; i < 64*128; i++ {
		v := fmt.Sprint("other-", i)
		if i/64%16 == 0 {
			v = "v"
		}
		variants.Insert(Triple{fmt.Sprintf("acc:%05d", i), fmt.Sprintf("S%d#organism", i%64), v})
	}
	subjects, lookup := subjectShape(64<<10, 37)
	for _, bc := range []struct {
		name string
		db   *DB
		q    Pattern
	}{
		{"bypredicate", db, second},
		{"twoconstants", db, Pattern{S: Var("x"), P: Const("S#organism"), O: Const("species-3")}},
		{"variant", variants, Pattern{S: Var("x"), P: Const("S7#organism"), O: Const("v")}},
		{"subject", subjects, lookup},
	} {
		b.Run(bc.name, func(b *testing.B) {
			_, examined, _ := bc.db.matching(nil, bc.q)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.db.SelectSorted(bc.q)
			}
			b.ReportMetric(float64(examined), "rows-examined/op")
		})
	}
}

// BenchmarkBindTriples binds a 256-triple answer into its BindingSet: plain
// is a stored answer to the pattern itself, reformulated one that needs the
// dedupe map.
func BenchmarkBindTriples(b *testing.B) {
	db, _, second := joinShape(256)
	answer := db.SelectSorted(second)
	for name, distinct := range map[string]bool{"plain": true, "reformulated": false} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BindTriplesMatched(second, answer, distinct)
			}
		})
	}
}
