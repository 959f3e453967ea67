package triple

import "slices"

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
// every triple. Nothing asks them about membership: insert appends, delete
// swaps the row out (linear in the posting, paid only on delete), and σ walks
// a slice several times faster than it walks a map. The zero value of members
// is the empty posting; add and remove leave membership to the caller, who
// asked find first.
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
