package codec

import (
	"fmt"
	"math"
	"sort"
	"time"

	"gridvine/internal/mediation"
	"gridvine/internal/pgrid"
	"gridvine/internal/simnet"
	"gridvine/internal/triple"
)

// FrameOverlay is the one frame type peers exchange.
const FrameOverlay byte = 1

// Envelope is what an overlay frame carries, in this order: a request names
// its sender, then the message's payload, whose tag is its kind; a response
// carries the handler's error if there was one.
type Envelope struct {
	From simnet.PeerID
	Msg  simnet.Message
	Err  string
}

// EncodeOverlay lays e out as a frame. A payload holding a type without a
// tag is an error here, on the sending side.
func EncodeOverlay(e *Envelope) ([]byte, error) {
	c := Encoder(256)
	c.envelope(e)
	return c.Frame(FrameOverlay)
}

// DecodeOverlay decodes a frame's payload. The envelope's strings point
// into payload, which the caller must not write again — except the keys
// and values of mutations and repairs, which get stored and are copies
// (see keyed).
func DecodeOverlay(payload []byte) (Envelope, error) {
	c := Decoder(payload)
	var e Envelope
	c.envelope(&e)
	return e, c.Finish()
}

func (c *Codec) envelope(e *Envelope) {
	c.Str((*string)(&e.From))
	c.any(&e.Msg.Payload)
	c.Str(&e.Err)
}

// kind is how one type travels in an any field: put writes the tag and the
// value if v is of the type, get reads a value of it.
type kind struct {
	put func(c *Codec, tag byte, v any) bool
	get func(c *Codec) any
}

func kindOf[T any](walk func(*Codec, *T)) kind {
	return kind{
		put: func(c *Codec, tag byte, v any) bool {
			m, ok := v.(T)
			if ok {
				c.out = append(c.out, tag)
				walk(c, &m)
			}
			return ok
		},
		get: func(c *Codec) any {
			var m T
			walk(c, &m)
			return m
		},
	}
}

// kinds lists, by tag, the types an any field may hold: every overlay
// message, every application query and answer, and every value the overlay
// stores. The set is closed — a type without a tag does not encode — and a
// tag's number is part of the layout; tag 0 is nil. The encoder tries them
// in order, so what every query ships comes first. (Filled in init: the
// walks refer back to the table.)
var kinds [27]kind

func init() {
	kinds = [...]kind{
		1:  kindOf((*Codec).execRequest),
		2:  kindOf((*Codec).execResponse),
		3:  kindOf((*Codec).patternQuery),
		4:  kindOf((*Codec).triples),
		5:  kindOf(func(c *Codec, m *mediation.ConnectivityQuery) { c.Str(&m.Domain) }),
		6:  kindOf((*Codec).connectivityReport),
		7:  kindOf((*Codec).Mapping),
		8:  kindOf((*Codec).Schema),
		9:  kindOf((*Codec).Triple),
		10: kindOf((*Codec).batchEntry),
		11: kindOf(func(c *Codec, m *pgrid.BatchUpdate) { List(c, &m.Entries, 3, c.batchEntry) }),
		12: kindOf(func(c *Codec, m *pgrid.BatchResult) { List(c, &m.Applied, 1, c.Int) }),
		13: kindOf(func(c *Codec, m *pgrid.BatchReplicate) { List(c, &m.Entries, 3, c.batchEntry) }),
		14: kindOf((*Codec).Str),
		15: kindOf((*Codec).Int),
		16: kindOf((*Codec).Bool),
		17: kindOf((*Codec).Float),
		18: kindOf((*Codec).anys),
		19: kindOf((*Codec).domainDegree),
		20: kindOf((*Codec).statsDigest),
		21: kindOf(func(c *Codec, m *pgrid.SubtreeRequest) { c.Str(&m.Prefix) }),
		22: kindOf((*Codec).subtreeResponse),
		23: kindOf((*Codec).digestRequest),
		24: kindOf((*Codec).digestResponse),
		25: kindOf((*Codec).repairRequest),
		26: kindOf((*Codec).repairResponse),
	}
}

// maxDepth bounds how deep any values nest (a routed probe carrying a
// stored list is four deep), so neither a hostile payload nor a cyclic
// value can run the walk off the stack.
const maxDepth = 16

// any is a one-byte tag, then the tagged type's walk.
func (c *Codec) any(v *any) {
	tag := 0
	if c.depth++; c.depth > maxDepth {
		c.fail("values nest too deep")
	} else if c.encoding {
		c.put(*v)
	} else if c.Enum(&tag, len(kinds)-1); tag != 0 {
		*v = kinds[tag].get(c)
	}
	c.depth--
}

func (c *Codec) put(v any) {
	if v == nil {
		c.out = append(c.out, 0)
		return
	}
	for tag := 1; tag < len(kinds); tag++ {
		if kinds[tag].put(c, byte(tag), v) {
			return
		}
	}
	c.fail(fmt.Sprintf("no overlay tag for a %T", v))
}

func (c *Codec) anys(v *[]any) { List(c, v, 1, c.any) }

// triples is the one list that far outgrows the encoder's initial buffer
// (a pattern's answer), so it sizes it once.
func (c *Codec) triples(v *[]triple.Triple) {
	n := 0
	for _, t := range *v {
		n += len(t.Subject) + len(t.Predicate) + len(t.Object) + 3
	}
	c.Grow(n)
	List(c, v, 3, c.Triple)
}

func (c *Codec) peerIDs(v *[]simnet.PeerID) {
	List(c, v, 1, func(p *simnet.PeerID) { c.Str((*string)(p)) })
}

// keyed is a key and a value the overlay stores under it: a repair item or
// a tombstone (batchEntry does the same for a mutation). Whoever decodes
// one keeps it, and a substring kept pins its whole frame — a batch's
// 96-byte keys, its neighbours' values — so these strings are decoded as
// copies; answers, which are read and dropped, stay substrings.
func (c *Codec) keyed(key *string, value *any) {
	c.Owned(func() {
		c.Str(key)
		c.any(value)
	})
}

func (c *Codec) execRequest(m *pgrid.ExecRequest) {
	c.Str(&m.Key)
	c.Enum((*int)(&m.Op), int(pgrid.OpProbe))
	c.any(&m.Payload)
}

func (c *Codec) execResponse(m *pgrid.ExecResponse) {
	c.Bool(&m.Responsible)
	c.peerIDs(&m.NextHops)
	c.anys(&m.Values)
	c.any(&m.AppResult)
	c.Str(&m.Path)
}

func (c *Codec) batchEntry(m *pgrid.BatchEntry) {
	c.Owned(func() {
		c.Str(&m.Key)
		c.Enum((*int)(&m.Op), int(pgrid.OpProbe))
		c.any(&m.Value)
	})
}

func (c *Codec) subtreeItem(m *pgrid.SubtreeItem) { c.keyed(&m.Key, &m.Value) }

func (c *Codec) tombstone(m *pgrid.Tombstone) { c.keyed(&m.Key, &m.Value) }

func (c *Codec) subtreeResponse(m *pgrid.SubtreeResponse) {
	c.Str(&m.Path)
	List(c, &m.Items, 2, c.subtreeItem)
	c.peerIDs(&m.Onward)
	c.peerIDs(&m.Replicas)
}

func (c *Codec) digestRequest(m *pgrid.DigestRequest) {
	c.Str(&m.Path)
	c.Int(&m.BucketBits)
}

// digests is a map as its entries in ascending key order, the one spelling
// of it; an empty map decodes as nil.
func (c *Codec) digests(m *map[string]uint64) {
	pairs := make([]pgrid.ItemDigest, 0, len(*m))
	for k, h := range *m {
		pairs = append(pairs, pgrid.ItemDigest{Key: k, Hash: h})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Key < pairs[j].Key })
	List(c, &pairs, 9, c.itemDigest)
	if c.encoding || len(pairs) == 0 {
		return
	}
	*m = make(map[string]uint64, len(pairs))
	for i, p := range pairs {
		if i > 0 && p.Key <= pairs[i-1].Key {
			c.fail("map keys out of order")
		}
		(*m)[p.Key] = p.Hash
	}
}

func (c *Codec) digestResponse(m *pgrid.DigestResponse) {
	c.digests(&m.Items)
	c.digests(&m.Tombs)
}

func (c *Codec) itemDigest(m *pgrid.ItemDigest) {
	c.Str(&m.Key)
	c.fixed64(&m.Hash)
}

func (c *Codec) repairRequest(m *pgrid.RepairRequest) {
	c.Strs(&m.Prefixes)
	List(c, &m.Have, 9, c.itemDigest)
	List(c, &m.HaveTombs, 9, c.itemDigest)
}

func (c *Codec) repairResponse(m *pgrid.RepairResponse) {
	List(c, &m.Missing, 2, c.subtreeItem)
	List(c, &m.Tombs, 2, c.tombstone)
	List(c, &m.Want, 9, c.itemDigest)
	List(c, &m.WantTombs, 9, c.itemDigest)
}

func (c *Codec) valueFilter(m *triple.ValueFilter) {
	List(c, &m.Bits, 8, c.fixed64)
	c.Int(&m.Hashes)
}

func (c *Codec) varFilter(m *mediation.VarFilter) {
	c.Str(&m.Var)
	c.Strs(&m.Values)
	Ptr(c, &m.Bloom, c.valueFilter)
}

func (c *Codec) varFilters(v *[]mediation.VarFilter) { List(c, v, 3, c.varFilter) }

func (c *Codec) patternQuery(m *mediation.PatternQuery) {
	List(c, &m.Patterns, 6, c.Pattern)
	c.varFilters(&m.Filters)
}

func (c *Codec) connectivityReport(m *mediation.ConnectivityReport) {
	c.Str(&m.Domain)
	c.Int(&m.Schemas)
	c.Float(&m.CI)
}

func (c *Codec) domainDegree(m *mediation.DomainDegree) {
	c.Str(&m.Schema)
	c.Int(&m.InDegree)
	c.Int(&m.OutDegree)
}

// sketch is a HyperLogLog's registers, raw.
func (c *Codec) sketch(h *triple.HLL) {
	if c.encoding {
		c.out = append(c.out, h.Registers[:]...)
	} else if len(c.in)-c.off < len(h.Registers) {
		c.fail("payload ends inside a value")
	} else {
		c.off += copy(h.Registers[:], c.in[c.off:])
	}
}

func (c *Codec) predicateStats(m *triple.PredicateStats) {
	c.Str(&m.Predicate)
	c.Int(&m.Triples)
	c.Int(&m.DistinctSubjects)
	c.Int(&m.DistinctObjects)
	Ptr(c, &m.SubjectSketch, c.sketch)
	Ptr(c, &m.ObjectSketch, c.sketch)
}

// instant is a time as Unix nanoseconds, whose varint is nine bytes for
// every clock from 1971 to 2116: a digest's frame length does not follow the
// time it was published. The zero time, outside UnixNano's range (years
// 1678 to 2262, the times this layout carries), is math.MinInt64. The
// instant survives, the monotonic reading and the location do not (it
// decodes as local time, which is what gob made of a time.Now).
func (c *Codec) instant(t *time.Time) {
	ns := int64(math.MinInt64)
	if !t.IsZero() {
		ns = t.UnixNano()
	}
	c.Int64(&ns)
	switch {
	case c.encoding:
	case ns == math.MinInt64:
		*t = time.Time{}
	default:
		*t = time.Unix(0, ns)
	}
}

func (c *Codec) statsDigest(m *mediation.StatsDigest) {
	c.Str(&m.Origin)
	c.Str(&m.Schema)
	c.instant(&m.Published)
	List(c, &m.Predicates, 6, c.predicateStats)
}
