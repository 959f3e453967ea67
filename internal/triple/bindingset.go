package triple

import (
	"encoding/binary"
	"slices"
	"sort"
)

// BindingSet is the flattened representation of a set of variable bindings:
// one shared variable schema (Vars) plus one []string tuple per row. It is
// what the conjunctive query engine joins — compared to []Bindings (a map
// per row), rows are cache-friendly, comparable with one byte append loop,
// and joinable without a map merge per probe. Bindings remains the public
// boundary type; ToBindings/NewBindingSetFromBindings convert cheaply.
//
// Invariant: every row has exactly len(Vars) values, positionally aligned
// with Vars. Vars order is whatever the producer chose (Pattern.Variables
// order for pattern results); consumers address columns by name via
// VarIndex. The rows this package produces are slices of shared backing
// arrays (rowArena), each capped at its width.
type BindingSet struct {
	Vars []string
	Rows [][]string
}

// rowArena carves fixed-width rows out of shared backing arrays, so a set of
// rows costs an allocation per array instead of one per row. A row's
// capacity is its width: appending to one reallocates it instead of running
// into its neighbour.
type rowArena struct {
	width int
	buf   []string
	used  int
}

// next returns the next row, zeroed. When the current array is spent it
// allocates room for more further rows — the caller's estimate of how many
// are still to come.
func (a *rowArena) next(more int) []string {
	if a.used+a.width > len(a.buf) {
		a.buf, a.used = make([]string, a.width*max(more, 1)), 0
	}
	row := a.buf[a.used : a.used+a.width : a.used+a.width]
	a.used += a.width
	return row
}

// drop gives the row next returned last back: the following next reuses it.
func (a *rowArena) drop() { a.used -= a.width }

// Len returns the number of rows.
func (bs *BindingSet) Len() int { return len(bs.Rows) }

// VarIndex returns the column index of a variable, or -1 when absent.
func (bs *BindingSet) VarIndex(name string) int {
	for i, v := range bs.Vars {
		if v == name {
			return i
		}
	}
	return -1
}

// DistinctValues returns the sorted distinct values of a variable's column.
// The conjunctive engine uses it to enumerate bound values for pushdown; the
// sort keeps fan-out order — and with it message accounting — deterministic.
// A column that already ascends is deduped by comparing neighbours: one
// pass counts its distinct values, a second copies them out.
func (bs *BindingSet) DistinctValues(name string) []string {
	idx := bs.VarIndex(name)
	if idx < 0 {
		return nil
	}
	if n, ok := runsOf(bs.Rows, idx); ok {
		out := make([]string, 0, n)
		for i, row := range bs.Rows {
			if i == 0 || row[idx] != bs.Rows[i-1][idx] {
				out = append(out, row[idx])
			}
		}
		return out
	}
	seen := make(map[string]struct{}, len(bs.Rows))
	out := make([]string, 0, len(bs.Rows))
	for _, row := range bs.Rows {
		if _, ok := seen[row[idx]]; ok {
			continue
		}
		seen[row[idx]] = struct{}{}
		out = append(out, row[idx])
	}
	sort.Strings(out)
	return out
}

// runsOf reports whether rows ascend in column c and, if they do, how many
// runs of equal values the column holds. It stops at the first inversion.
func runsOf(rows [][]string, c int) (runs int, ascending bool) {
	for i, row := range rows {
		switch {
		case i == 0 || row[c] > rows[i-1][c]:
			runs++
		case row[c] < rows[i-1][c]:
			return 0, false
		}
	}
	return runs, true
}

// Ascending reports whether the rows ascend, not necessarily strictly, in
// column c.
func (bs *BindingSet) Ascending(c int) bool {
	_, ok := runsOf(bs.Rows, c)
	return ok
}

// DistinctTuples returns the distinct value combinations of the named
// variables across the rows, sorted lexicographically. The conjunctive
// engine uses it for multi-variable pushdown: the joint distinct tuples can
// be far fewer than the product of the per-variable distinct values, and
// each tuple becomes one fully constrained point lookup. nil when any name
// is absent from the schema.
func (bs *BindingSet) DistinctTuples(names []string) [][]string {
	idxs := make([]int, len(names))
	for i, name := range names {
		if idxs[i] = bs.VarIndex(name); idxs[i] < 0 {
			return nil
		}
	}
	seen := make(map[string]struct{}, len(bs.Rows))
	out := make([][]string, 0, len(bs.Rows))
	var key []byte
	arena := rowArena{width: len(names)}
	for n, row := range bs.Rows {
		tuple := arena.next(len(bs.Rows) - n)
		for i, idx := range idxs {
			tuple[i] = row[idx]
		}
		key = AppendRowKey(key[:0], tuple)
		if _, dup := seen[string(key)]; dup {
			arena.drop()
			continue
		}
		seen[string(key)] = struct{}{}
		out = append(out, tuple)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// AddConstColumn appends a column holding the same value in every row. The
// pushdown path uses it to restore the substituted variable: a pattern
// resolved with x:=v binds everything but x, and the column re-attaches it.
func (bs *BindingSet) AddConstColumn(name, value string) {
	bs.Vars = append(bs.Vars, name)
	arena := rowArena{width: len(bs.Vars)}
	for i, row := range bs.Rows {
		wide := arena.next(len(bs.Rows) - i)
		wide[copy(wide, row)] = value
		bs.Rows[i] = wide
	}
}

// ToBindings converts to the public map-per-row representation.
func (bs *BindingSet) ToBindings() []Bindings {
	if bs == nil {
		return nil
	}
	out := make([]Bindings, len(bs.Rows))
	for i, row := range bs.Rows {
		b := make(Bindings, len(bs.Vars))
		for j, v := range bs.Vars {
			b[v] = row[j]
		}
		out[i] = b
	}
	return out
}

// NewBindingSetFromBindings flattens a uniform []Bindings (every map holding
// exactly the same variables) into a BindingSet with sorted schema.
// ok=false when rows are heterogeneous — then no single schema exists and
// callers fall back to map-based processing.
func NewBindingSetFromBindings(bindings []Bindings) (*BindingSet, bool) {
	if len(bindings) == 0 {
		return &BindingSet{}, true
	}
	vars := make([]string, 0, len(bindings[0]))
	for v := range bindings[0] {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	bs := &BindingSet{Vars: vars, Rows: make([][]string, 0, len(bindings))}
	for _, b := range bindings {
		if len(b) != len(vars) {
			return nil, false
		}
		row := make([]string, len(vars))
		for i, v := range vars {
			val, present := b[v]
			if !present {
				return nil, false
			}
			row[i] = val
		}
		bs.Rows = append(bs.Rows, row)
	}
	return bs, true
}

// BindTriplesMatched binds triples against q's variables directly into a
// flattened set — no per-triple map, no per-row allocation. The caller
// guarantees every triple already matched q or a variant of q differing only
// at constant positions (the conjunctive engine's reformulated answers, whose
// predicate was rewritten), so there is no pattern gate; repeated-variable
// consistency is still enforced, since remote selection matches positions
// independently. The schema is q.Variables().
//
// Binding sets carry set semantics: triples differing only where q has no
// variable yield one row. distinct promises that ts is one store's answer to
// q or to one such variant — distinct triples that agree at its constant
// positions. Unless q has a LIKE term (a position that is neither constant
// nor bound), any two of them then differ at a variable position, so their
// rows differ and the dedupe map is skipped.
func BindTriplesMatched(q Pattern, ts []Triple, distinct bool) *BindingSet {
	vars := q.Variables()
	// col[i] is the first position of vars[i]; equal lists the position
	// pairs a repeated variable ties together.
	var col [3]Position
	var equal [][2]Position
	bound := 0
	for _, pos := range [3]Position{Subject, Predicate, Object} {
		t := q.Term(pos)
		if t.Kind != Variable {
			continue
		}
		if i := slices.Index(vars, t.Value); i < bound {
			equal = append(equal, [2]Position{col[i], pos})
		} else {
			col[bound] = pos
			bound++
		}
	}
	bs := &BindingSet{Vars: vars, Rows: make([][]string, 0, len(ts))}
	arena := rowArena{width: len(vars)}
	var seen map[string]struct{}
	if !distinct || q.S.Kind == Like || q.P.Kind == Like || q.O.Kind == Like {
		seen = make(map[string]struct{}, len(ts))
	}
	var key []byte
triples:
	for n := range ts {
		t := &ts[n]
		for _, e := range equal {
			if t.Component(e[0]) != t.Component(e[1]) {
				continue triples
			}
		}
		row := arena.next(len(ts) - n)
		for i := range row {
			row[i] = t.Component(col[i])
		}
		if seen != nil {
			key = AppendRowKey(key[:0], row)
			if _, dup := seen[string(key)]; dup {
				arena.drop()
				continue
			}
			seen[string(key)] = struct{}{}
		}
		bs.Rows = append(bs.Rows, row)
	}
	return bs
}

// AppendRowKey serializes a value row into buf, each value behind its uvarint
// length, so rows that differ have keys that differ whatever bytes their
// values hold — the dedupe and join key builder shared by the binding-set
// operations and the RDQL projection, allocation-free apart from map-key
// interning.
func AppendRowKey(buf []byte, row []string) []byte {
	for _, v := range row {
		buf = appendKeyValue(buf, v)
	}
	return buf
}

func appendKeyValue(buf []byte, v string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(v))), v...)
}

// joinTable chains the build side of a hash join by key through index
// arrays: head maps a key to the first row holding it and next links each
// row to the following one with the same key, both 1-based so that 0 ends a
// chain. A single key column is keyed by its value as is; several go through
// the shared key builder.
type joinTable struct {
	head map[string]int32
	next []int32
	key  []byte
}

func newJoinTable(rows [][]string, cols []int) *joinTable {
	t := &joinTable{head: make(map[string]int32, len(rows)), next: make([]int32, len(rows))}
	// Back to front, so every chain runs in ascending row order.
	for i := len(rows) - 1; i >= 0; i-- {
		k := rows[i][cols[0]]
		if len(cols) > 1 {
			k = string(t.rowKey(rows[i], cols))
		}
		t.next[i], t.head[k] = t.head[k], int32(i+1)
	}
	return t
}

func (t *joinTable) rowKey(row []string, cols []int) []byte {
	t.key = t.key[:0]
	for _, c := range cols {
		t.key = appendKeyValue(t.key, row[c])
	}
	return t.key
}

// first returns the first build row whose key equals that of row at cols
// (the probe side's columns of the shared variables), 0 when none does.
func (t *joinTable) first(row []string, cols []int) int32 {
	if len(cols) == 1 {
		return t.head[row[cols[0]]]
	}
	return t.head[string(t.rowKey(row, cols))]
}

// mergeRuns walks two row sets that ascend in their key columns (lc of
// left, rc of right) and calls visit with each left row that has partners
// and the run of right rows sharing its key: left-major, the run in input
// order.
func mergeRuns(left, right [][]string, lc, rc int, visit func(l []string, run [][]string)) {
	j := 0
	for i := 0; i < len(left) && j < len(right); {
		key := left[i][lc]
		for j < len(right) && right[j][rc] < key {
			j++
		}
		k := j
		for k < len(right) && right[k][rc] == key {
			k++
		}
		for ; i < len(left) && left[i][lc] == key; i++ {
			if k > j {
				visit(left[i], right[j:k])
			}
		}
		j = k
	}
}

// bothAscend reports whether left ascends in column lc and right in rc. It
// scans the smaller side first, so a small side out of order spares the scan
// of a big one.
func bothAscend(left, right [][]string, lc, rc int) bool {
	if len(right) < len(left) {
		left, right, lc, rc = right, left, rc, lc
	}
	_, ok := runsOf(left, lc)
	if ok {
		_, ok = runsOf(right, rc)
	}
	return ok
}

// HashJoin implements the natural join ⋈ on flattened binding sets: rows
// agreeing on every shared variable are merged. The hash table is built on
// whichever side has fewer rows and probed with the other — O(|L|+|R|+|out|)
// against the nested loop's O(|L|·|R|), with table memory bounded by the
// smaller input — and with no shared variables it degenerates to the
// cartesian product, as the natural join does. When the sides share one
// variable and both ascend in it (σ answers come out in (S, P, O) order),
// they merge instead: one walk counts the output, a second fills arrays of
// exactly that size, and no table is built. Output schema is left.Vars
// followed by right-only vars; row order follows the left side (then right
// order within a key) whatever the build side or path, so the join is
// deterministic for deterministic inputs. Neither the table nor the output
// allocates per row: keys are the shared column's values themselves (or go
// through one reused buffer), chains are index arrays, and output rows are
// carved from shared arrays.
func HashJoin(left, right *BindingSet) *BindingSet {
	return join(left, right, true)
}

// join is HashJoin; with mergeSorted false it hashes sorted inputs too.
func join(left, right *BindingSet, mergeSorted bool) *BindingSet {
	// Shared variables, in left-schema order, with their column indices.
	var sharedL, sharedR []int
	for li, v := range left.Vars {
		if ri := right.VarIndex(v); ri >= 0 {
			sharedL = append(sharedL, li)
			sharedR = append(sharedR, ri)
		}
	}
	// Right-only columns appended to the output schema.
	var extraR []int
	outVars := make([]string, 0, len(left.Vars)+len(right.Vars))
	outVars = append(outVars, left.Vars...)
	for ri, v := range right.Vars {
		if left.VarIndex(v) < 0 {
			extraR = append(extraR, ri)
			outVars = append(outVars, v)
		}
	}
	out := &BindingSet{Vars: outVars}
	arena := rowArena{width: len(outVars)}

	// merge emits l ⋈ r; more estimates the rows still to come after it.
	merge := func(l, r []string, more int) {
		if len(out.Rows) == cap(out.Rows) {
			out.Rows = slices.Grow(out.Rows, more)
		}
		row := arena.next(more)
		n := copy(row, l)
		for i, ri := range extraR {
			row[n+i] = r[ri]
		}
		out.Rows = append(out.Rows, row)
	}

	if len(sharedL) == 0 {
		// Cartesian product.
		total := len(left.Rows) * len(right.Rows)
		for _, l := range left.Rows {
			for _, r := range right.Rows {
				merge(l, r, total)
			}
		}
		return out
	}

	if mergeSorted && len(sharedL) == 1 && bothAscend(left.Rows, right.Rows, sharedL[0], sharedR[0]) {
		total := 0
		mergeRuns(left.Rows, right.Rows, sharedL[0], sharedR[0], func(_ []string, run [][]string) {
			total += len(run)
		})
		if total == 0 {
			return out
		}
		out.Rows = make([][]string, 0, total)
		mergeRuns(left.Rows, right.Rows, sharedL[0], sharedR[0], func(l []string, run [][]string) {
			for _, r := range run {
				merge(l, r, total-len(out.Rows))
			}
		})
		return out
	}

	if len(right.Rows) <= len(left.Rows) {
		// Build on right, probe with left: emission is naturally left-major.
		// A probe row mostly finds one partner, so an output array holds what
		// is left of the probe side — as long as the rows found so far bear
		// that out.
		table := newJoinTable(right.Rows, sharedR)
		for i, l := range left.Rows {
			for ri := table.first(l, sharedL); ri > 0; ri = table.next[ri-1] {
				merge(l, right.Rows[ri-1], min(len(left.Rows)-i, 2*len(out.Rows)+64))
			}
		}
		return out
	}

	// Build on the smaller left side, probe with right. Matches are chained
	// per left row in probe order (ascending right index) and emitted
	// left-major afterwards, preserving the canonical output order.
	table := newJoinTable(left.Rows, sharedL)
	type match struct{ right, next int32 } // next is 1-based into matches
	var matches []match
	firstOf := make([]int32, len(left.Rows))
	lastOf := make([]int32, len(left.Rows))
	for ri, r := range right.Rows {
		for li := table.first(r, sharedR); li > 0; li = table.next[li-1] {
			matches = append(matches, match{right: int32(ri)})
			id := int32(len(matches))
			if last := lastOf[li-1]; last == 0 {
				firstOf[li-1] = id
			} else {
				matches[last-1].next = id
			}
			lastOf[li-1] = id
		}
	}
	for li, l := range left.Rows {
		for id := firstOf[li]; id > 0; id = matches[id-1].next {
			merge(l, right.Rows[matches[id-1].right], len(matches))
		}
	}
	return out
}

// SortRows orders rows lexicographically in place — the canonical
// deterministic order the conjunctive engine returns.
func (bs *BindingSet) SortRows() {
	sort.Slice(bs.Rows, func(i, j int) bool {
		a, b := bs.Rows[i], bs.Rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}
