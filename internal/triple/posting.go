package triple

import "slices"

// postingPromote is the largest posting kept as a slice. Most index keys
// file a handful of triples (a subject's attributes, a near-unique object
// value) and a Go map costs several hundred bytes before its first entry;
// a slice of up to postingPromote triples costs what it holds. Larger
// postings (a predicate's extension, a hot subject) are maps, so
// membership stays O(1).
const postingPromote = 8

// posting is the set of triples filed under one key of a shard index: few
// while small, many once it outgrew postingPromote — never both. The zero
// value is the empty posting. The slice holds pointers: a stored triple is
// one row that its (up to) three small postings share, 8 bytes each
// instead of the 48 of a copy. Every index read goes through len, has and
// each; add and remove leave membership to the caller, who asked has of
// the subject posting first (the triple is absent, respectively present).
type posting struct {
	few  []*Triple
	many map[Triple]struct{}
}

func (p posting) len() int { return len(p.few) + len(p.many) }

func (p posting) has(t Triple) bool {
	if p.many != nil {
		_, ok := p.many[t]
		return ok
	}
	return p.index(t) >= 0
}

func (p posting) index(t Triple) int {
	return slices.IndexFunc(p.few, func(row *Triple) bool { return *row == t })
}

// each calls fn for every triple, in unspecified order.
func (p posting) each(fn func(Triple)) {
	for _, row := range p.few {
		fn(*row)
	}
	for t := range p.many {
		fn(t)
	}
}

func (p *posting) add(row *Triple) {
	switch {
	case p.many != nil:
		p.many[*row] = struct{}{}
	case len(p.few) < postingPromote:
		if len(p.few) == cap(p.few) {
			// Grown to fit: append's doubling would leave a five-triple
			// posting holding room for eight.
			p.few = append(make([]*Triple, 0, len(p.few)+1), p.few...)
		}
		p.few = append(p.few, row)
	default:
		p.many = make(map[Triple]struct{})
		for _, old := range append(p.few, row) {
			p.many[*old] = struct{}{}
		}
		p.few = nil
	}
}

// remove drops t. A map that shrank to half of postingPromote goes back to
// a slice; the gap to the promotion size keeps a posting that hovers around
// either from converting on every write.
func (p *posting) remove(t Triple) {
	if p.many == nil {
		if i := p.index(t); i >= 0 {
			last := len(p.few) - 1
			p.few[i], p.few[last] = p.few[last], nil
			p.few = p.few[:last]
		}
		return
	}
	if delete(p.many, t); len(p.many) <= postingPromote/2 {
		p.few = make([]*Triple, 0, len(p.many))
		for old := range p.many {
			row := old
			p.few = append(p.few, &row)
		}
		p.many = nil
	}
}

func addIndex(idx map[string]posting, key string, row *Triple) {
	p := idx[key]
	p.add(row)
	idx[key] = p
}

func dropIndex(idx map[string]posting, key string, t Triple) {
	p := idx[key]
	if p.remove(t); p.len() == 0 {
		delete(idx, key)
	} else {
		idx[key] = p
	}
}
