package triple

import (
	"slices"
	"strings"
)

// postingFit is the length up to which a full posting grows to fit rather
// than by append's doubling: most keys file a handful of triples, and
// doubling would leave a five-row posting holding room for eight.
const postingFit = 8

// A stored triple is one row; the postings filed under its three keys are
// row slices holding pointers to it, so a predicate's extension does not
// store a second copy of every triple. The subject posting (DB.bySubject)
// is the database's membership set and the only posting that answers "is
// this triple stored?". Two postings are kept in order, so a lookup by
// value and σ on a key's predicate both binary-search them:
//   - a subject posting by (predicate, object), the SPO order (spoSlot);
//   - an object posting by (predicate, subject), the OPS order (opsSlot).
//
// Insert and delete binary-search the row's slot and move the tail. A
// predicate posting is the PSO vector, (subject, object) order, kept
// lazily (predicatePosting): insert appends, and a row that sorts before
// the posting's last marks the posting out of order. The first ordered
// select that scans it sorts it in place. Delete binary-searches an
// in-order posting and moves the tail; it swaps the row out of an
// out-of-order one (linear in the posting). Nothing asks a predicate
// posting about membership.

// spoSlot binary-searches a subject posting — the subject is fixed within
// it, so the order is total — for t's slot, and reports whether t is there.
// It compares by value, so the probe stays on the caller's stack.
func spoSlot(rows []*Triple, t Triple) (int, bool) {
	return slices.BinarySearchFunc(rows, t, func(held *Triple, t Triple) int {
		if c := strings.Compare(held.Predicate, t.Predicate); c != 0 {
			return c
		}
		return strings.Compare(held.Object, t.Object)
	})
}

// opsSlot binary-searches an object posting for row's slot, as spoSlot
// does a subject posting; row is already on the heap.
func opsSlot(rows []*Triple, row *Triple) (int, bool) {
	return slices.BinarySearchFunc(rows, row, func(held, row *Triple) int {
		if c := strings.Compare(held.Predicate, row.Predicate); c != 0 {
			return c
		}
		return strings.Compare(held.Subject, row.Subject)
	})
}

// comparePSO orders the rows of one predicate posting: by subject, then
// object, the predicate being fixed within it.
func comparePSO(a, b *Triple) int {
	if c := strings.Compare(a.Subject, b.Subject); c != 0 {
		return c
	}
	return strings.Compare(a.Object, b.Object)
}

// predicatePosting is the posting filed under a predicate. unsorted marks
// rows that are not in (subject, object) order.
type predicatePosting struct {
	rows     []*Triple
	unsorted bool
}

// add appends row, marking the posting if row sorts before the last row.
func (p predicatePosting) add(row *Triple) predicatePosting {
	if n := len(p.rows); n > 0 && comparePSO(row, p.rows[n-1]) < 0 {
		p.unsorted = true
	}
	p.rows = append(p.rows, row)
	return p
}

// drop takes row out: in order, by binary search, from an in-order
// posting; by swapping the last row in from an out-of-order one.
func (p predicatePosting) drop(row *Triple) predicatePosting {
	if !p.unsorted {
		if i, found := slices.BinarySearchFunc(p.rows, row, comparePSO); found {
			p.rows = slices.Delete(p.rows, i, i+1)
		}
		return p
	}
	if i := indexRow(p.rows, row); i >= 0 {
		last := len(p.rows) - 1
		p.rows[i], p.rows[last] = p.rows[last], nil
		p.rows = p.rows[:last]
	}
	return p
}

// fileAt inserts row into an ordered posting at slot i. A full posting of
// under postingFit rows grows to fit; a longer one by append's doubling, so
// a hot key's insert pays a memmove of the tail but amortised O(1)
// allocations.
func fileAt(rows []*Triple, i int, row *Triple) []*Triple {
	if len(rows) == cap(rows) && len(rows) < postingFit {
		rows = append(make([]*Triple, 0, len(rows)+1), rows...)
	}
	return slices.Insert(rows, i, row)
}

// dropAt takes slot i out of rows, the ordered posting filed under key,
// keeping the rest in order; an emptied posting leaves the index.
func dropAt(idx map[string][]*Triple, key string, rows []*Triple, i int) {
	if rest := slices.Delete(rows, i, i+1); len(rest) == 0 {
		delete(idx, key)
	} else {
		idx[key] = rest
	}
}

// indexRow is slices.Index over a posting, four rows a step: the search is
// the whole cost of a delete from a long out-of-order posting, and a loop
// testing one row a step runs at half speed wherever it straddles an
// instruction-fetch boundary.
func indexRow(rows []*Triple, row *Triple) int {
	i := 0
	for rest := rows; len(rest) >= 4; rest = rest[4:] {
		if rest[0] == row || rest[1] == row || rest[2] == row || rest[3] == row {
			break
		}
		i += 4
	}
	for ; i < len(rows); i++ {
		if rows[i] == row {
			return i
		}
	}
	return -1
}

// predicateRange returns the rows of an ordered posting filed under
// predicate: one contiguous run, in the order of the component the posting's
// key leaves free after it.
func predicateRange(rows []*Triple, predicate string) []*Triple {
	lo, _ := slices.BinarySearchFunc(rows, predicate, func(row *Triple, p string) int {
		return strings.Compare(row.Predicate, p)
	})
	hi := lo
	for hi < len(rows) && rows[hi].Predicate == predicate {
		hi++
	}
	return rows[lo:hi]
}

// appendMatches appends the rows whose triple satisfies q. Rows are never
// written after insert, so the pointers stay readable once the database lock
// is released.
func appendMatches(out, rows []*Triple, q Pattern) []*Triple {
	for _, row := range rows {
		if q.Matches(*row) {
			out = append(out, row)
		}
	}
	return out
}
