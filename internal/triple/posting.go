package triple

import (
	"slices"
	"strings"
)

// postingPromote is the largest subject posting kept as a slice. Most
// subjects carry a handful of attributes and a Go map costs several hundred
// bytes before its first entry; a slice of up to postingPromote rows costs
// what it holds. A larger subject posting (a hot subject) is a map, so
// membership stays O(1).
const postingPromote = 8

// A stored triple is one row; the postings filed under its three keys hold
// pointers to it. members, the subject posting, is the database's membership
// set and the only posting that answers "is this triple stored?": a slice
// while it holds up to postingPromote rows and a map from the triple's value
// to its row once it outgrew that — never both. The predicate and object
// postings are plain row slices holding the pointer the subject posting
// handed out, so a predicate's extension does not store a second copy of
// every triple, and σ walks a slice several times faster than it walks a
// map. Nothing asks them about membership. A predicate posting is in
// insertion order: insert appends, delete swaps the row out (linear in the
// posting, paid only on delete). An object posting is ordered by (predicate,
// subject), the OPS order: insert and delete binary-search the row's slot
// and move the tail, and σ on (?, P, O) reads only P's range (see
// objectRange). The zero value of members is the empty posting; add and
// remove leave membership to the caller, who asked find first.
type members struct {
	few  []*Triple
	many map[Triple]*Triple
}

func (p members) len() int { return len(p.few) + len(p.many) }

// find returns the row holding t, nil when t is not stored.
func (p members) find(t Triple) *Triple {
	if p.many != nil {
		return p.many[t]
	}
	for _, row := range p.few {
		if *row == t {
			return row
		}
	}
	return nil
}

// each calls fn for every triple, in unspecified order.
func (p members) each(fn func(Triple)) {
	for _, row := range p.few {
		fn(*row)
	}
	for _, row := range p.many {
		fn(*row)
	}
}

func (p members) appendMatches(out []*Triple, q Pattern) []*Triple {
	out = appendMatches(out, p.few, q)
	for _, row := range p.many {
		if q.Matches(*row) {
			out = append(out, row)
		}
	}
	return out
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

func (p *members) add(row *Triple) {
	switch {
	case p.many != nil:
		p.many[*row] = row
	case len(p.few) < postingPromote:
		p.few = appendFit(p.few, row)
	default:
		p.many = make(map[Triple]*Triple)
		for _, old := range append(p.few, row) {
			p.many[*old] = old
		}
		p.few = nil
	}
}

// remove drops row. A map that shrank to half of postingPromote goes back to
// a slice; the gap to the promotion size keeps a posting that hovers around
// either from converting on every write.
func (p *members) remove(row *Triple) {
	if p.many == nil {
		p.few = swapOut(p.few, row)
	} else if delete(p.many, *row); len(p.many) <= postingPromote/2 {
		p.few = make([]*Triple, 0, len(p.many))
		for _, old := range p.many {
			p.few = append(p.few, old)
		}
		p.many = nil
	}
}

// appendFit grows a full slice by one: append's doubling would leave a
// five-row posting holding room for eight.
func appendFit(few []*Triple, row *Triple) []*Triple {
	if len(few) == cap(few) {
		few = append(make([]*Triple, 0, len(few)+1), few...)
	}
	return append(few, row)
}

func swapOut(few []*Triple, row *Triple) []*Triple {
	i := slices.Index(few, row)
	if i < 0 {
		return few
	}
	last := len(few) - 1
	few[i], few[last] = few[last], nil
	return few[:last]
}

func dropRow(idx map[string][]*Triple, key string, row *Triple) {
	if rest := swapOut(idx[key], row); len(rest) == 0 {
		delete(idx, key)
	} else {
		idx[key] = rest
	}
}

// opsSlot binary-searches an object posting, ordered by (predicate,
// subject) — the object is fixed within it, so the order is total — for
// row's slot, and reports whether row is there.
func opsSlot(rows []*Triple, row *Triple) (int, bool) {
	return slices.BinarySearchFunc(rows, row, func(held, row *Triple) int {
		if c := strings.Compare(held.Predicate, row.Predicate); c != 0 {
			return c
		}
		return strings.Compare(held.Subject, row.Subject)
	})
}

// fileObjectRow inserts row into its object posting at its slot. A full
// posting of under postingPromote rows grows to fit, as appendFit does; a
// longer one by append's doubling, so a hot object's insert pays a memmove
// of the tail but amortised O(1) allocations.
func fileObjectRow(rows []*Triple, row *Triple) []*Triple {
	i, _ := opsSlot(rows, row)
	if len(rows) == cap(rows) && len(rows) < postingPromote {
		rows = append(make([]*Triple, 0, len(rows)+1), rows...)
	}
	return slices.Insert(rows, i, row)
}

// dropObjectRow takes row out of its object posting, found in O(log k),
// keeping the rest in order.
func dropObjectRow(idx map[string][]*Triple, row *Triple) {
	rows := idx[row.Object]
	i, found := opsSlot(rows, row)
	if !found {
		return
	}
	if rest := slices.Delete(rows, i, i+1); len(rest) == 0 {
		delete(idx, row.Object)
	} else {
		idx[row.Object] = rest
	}
}

// objectRange returns the rows of an object posting filed under predicate:
// one contiguous run, in subject order.
func objectRange(rows []*Triple, predicate string) []*Triple {
	lo, _ := slices.BinarySearchFunc(rows, predicate, func(row *Triple, p string) int {
		return strings.Compare(row.Predicate, p)
	})
	hi := lo
	for hi < len(rows) && rows[hi].Predicate == predicate {
		hi++
	}
	return rows[lo:hi]
}
