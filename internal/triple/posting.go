package triple

import "slices"

// postingPromote is the largest posting kept as a slice. Most index keys
// file a handful of triples (a subject's attributes, a near-unique object
// value) and a Go map costs several hundred bytes before its first entry;
// a slice of up to postingPromote rows costs what it holds. Larger
// postings (a predicate's extension, a hot subject) are maps, so
// membership stays O(1).
const postingPromote = 8

// A stored triple is one row; the postings filed under its three keys hold
// pointers to it, as a slice while few and a map once a posting outgrew
// postingPromote — never both. The two kinds differ in what the map is
// keyed by. members, the subject posting, is the shard's membership set and
// the only one that answers "is this triple stored?": its map goes from the
// triple's value to its row. rows, the predicate and object posting, is
// keyed by the row pointer the subject posting handed out, so a predicate's
// extension does not store a second copy of every triple. The zero value of
// either is the empty posting; add and remove leave membership to the
// caller, who asked find of the subject posting first.
type members struct {
	few  []*Triple
	many map[Triple]*Triple
}

type rows struct {
	few  []*Triple
	many map[*Triple]struct{}
}

func (p members) len() int { return len(p.few) + len(p.many) }
func (p rows) len() int    { return len(p.few) + len(p.many) }

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

func (p rows) each(fn func(Triple)) {
	for _, row := range p.few {
		fn(*row)
	}
	for row := range p.many {
		fn(*row)
	}
}

// appendMatches appends the rows whose triple satisfies q. Rows are never
// written after insert, so the pointers stay readable once the shard lock
// is released.
func (p members) appendMatches(out []*Triple, q Pattern) []*Triple {
	for _, row := range p.few {
		if q.Matches(*row) {
			out = append(out, row)
		}
	}
	for _, row := range p.many {
		if q.Matches(*row) {
			out = append(out, row)
		}
	}
	return out
}

func (p rows) appendMatches(out []*Triple, q Pattern) []*Triple {
	for _, row := range p.few {
		if q.Matches(*row) {
			out = append(out, row)
		}
	}
	for row := range p.many {
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

func (p *rows) add(row *Triple) {
	switch {
	case p.many != nil:
		p.many[row] = struct{}{}
	case len(p.few) < postingPromote:
		p.few = appendFit(p.few, row)
	default:
		p.many = make(map[*Triple]struct{})
		for _, old := range append(p.few, row) {
			p.many[old] = struct{}{}
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

func (p *rows) remove(row *Triple) {
	if p.many == nil {
		p.few = swapOut(p.few, row)
	} else if delete(p.many, row); len(p.many) <= postingPromote/2 {
		p.few = make([]*Triple, 0, len(p.many))
		for old := range p.many {
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

func addRow(idx map[string]rows, key string, row *Triple) {
	p := idx[key]
	p.add(row)
	idx[key] = p
}

func dropRow(idx map[string]rows, key string, row *Triple) {
	p := idx[key]
	if p.remove(row); p.len() == 0 {
		delete(idx, key)
	} else {
		idx[key] = p
	}
}
