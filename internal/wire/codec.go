package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"gridvine/internal/mediation"
	"gridvine/internal/schema"
	"gridvine/internal/triple"
)

// codec walks a message's fields in struct order. Encoding, it appends each
// to out; decoding, it reads each from in. One walk per message type serves
// both directions, so writer and reader cannot disagree on the layout.
//
// Decoding is sticky: the first failure is kept in err, every later read
// yields zero, and nothing is allocated for a count the remaining bytes
// cannot hold. Decoded strings are substrings of in.
type codec struct {
	encoding bool
	out      []byte
	in       string
	off      int
	err      error
}

func (c *codec) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrBadFrame, what)
	}
	c.off = len(c.in)
}

// readUvarint accepts only the shortest encoding of a value, so a payload
// that decodes has exactly one spelling.
func (c *codec) readUvarint() uint64 {
	var v uint64
	for shift := uint(0); c.off < len(c.in); shift += 7 {
		b := c.in[c.off]
		c.off++
		if b < 0x80 {
			if (b == 0 && shift > 0) || (shift == 63 && b > 1) {
				c.fail("varint not in shortest form")
				return 0
			}
			return v | uint64(b)<<shift
		}
		if shift == 63 {
			c.fail("varint overflows 64 bits")
			return 0
		}
		v |= uint64(b&0x7f) << shift
	}
	c.fail("payload ends inside a value")
	return 0
}

func (c *codec) uint(v *uint64) {
	if c.encoding {
		c.out = binary.AppendUvarint(c.out, *v)
	} else {
		*v = c.readUvarint()
	}
}

func (c *codec) int64(v *int64) {
	if c.encoding {
		c.out = binary.AppendVarint(c.out, *v)
	} else {
		u := c.readUvarint()
		*v = int64(u>>1) ^ -int64(u&1)
	}
}

func (c *codec) int(v *int) {
	x := int64(*v)
	c.int64(&x)
	if *v = int(x); int64(*v) != x {
		c.fail("integer out of range")
	}
}

// enum is one byte holding a value in 0..max.
func (c *codec) enum(v *int, max int) {
	switch {
	case c.encoding && (*v < 0 || *v > max):
		c.fail(fmt.Sprintf("value %d outside 0..%d", *v, max))
	case c.encoding:
		c.out = append(c.out, byte(*v))
	case c.off >= len(c.in):
		*v = 0
		c.fail("payload ends inside a value")
	default:
		*v = int(c.in[c.off])
		if c.off++; *v > max {
			c.fail(fmt.Sprintf("byte %d outside 0..%d", *v, max))
			*v = 0
		}
	}
}

func (c *codec) bool(v *bool) {
	b := 0
	if *v {
		b = 1
	}
	c.enum(&b, 1)
	*v = b == 1
}

func (c *codec) float(v *float64) {
	if c.encoding {
		c.out = binary.LittleEndian.AppendUint64(c.out, math.Float64bits(*v))
	} else if *v = 0; len(c.in)-c.off < 8 {
		c.fail("payload ends inside a value")
	} else {
		*v = math.Float64frombits(binary.LittleEndian.Uint64([]byte(c.in[c.off : c.off+8])))
		c.off += 8
	}
}

// count writes or reads the length of a string or slice. A length read is
// checked against the bytes left — each element takes at least min of them
// — before anything is allocated for it.
func (c *codec) count(n, min int) int {
	if c.encoding {
		c.out = binary.AppendUvarint(c.out, uint64(n))
		return n
	}
	u := c.readUvarint()
	if u > uint64(len(c.in)-c.off)/uint64(min) {
		c.fail("count runs past the end of the payload")
		return 0
	}
	return int(u)
}

func (c *codec) str(v *string) {
	n := c.count(len(*v), 1)
	if c.encoding {
		c.out = append(c.out, *v...)
	} else {
		*v = c.in[c.off : c.off+n]
		c.off += n
	}
}

// list is a count followed by the elements; an empty slice decodes as nil.
func list[T any](c *codec, v *[]T, min int, elem func(*T)) {
	n := c.count(len(*v), min)
	if !c.encoding && n > 0 {
		*v = make([]T, n)
	}
	for i := range *v {
		elem(&(*v)[i])
	}
}

func (c *codec) strs(v *[]string) { list(c, v, 1, c.str) }

func (c *codec) term(t *triple.Term) {
	c.enum((*int)(&t.Kind), int(triple.Like))
	c.str(&t.Value)
}

func (c *codec) pattern(p *triple.Pattern) {
	c.term(&p.S)
	c.term(&p.P)
	c.term(&p.O)
}

func (c *codec) triple(t *triple.Triple) {
	c.str(&t.Subject)
	c.str(&t.Predicate)
	c.str(&t.Object)
}

func (c *codec) schema(s *schema.Schema) {
	c.str(&s.Name)
	c.str(&s.Domain)
	c.strs(&s.Attributes)
}

func (c *codec) correspondence(p *schema.Correspondence) {
	c.str(&p.SourceAttr)
	c.str(&p.TargetAttr)
	c.float(&p.Confidence)
}

func (c *codec) mapping(m *schema.Mapping) {
	c.str(&m.ID)
	c.str(&m.Source)
	c.str(&m.Target)
	c.enum((*int)(&m.Type), int(schema.Subsumption))
	c.bool(&m.Bidirectional)
	list(c, &m.Correspondences, 10, c.correspondence)
	c.enum((*int)(&m.Origin), int(schema.Automatic))
	c.float(&m.Confidence)
	c.bool(&m.Deprecated)
}

func (c *codec) query(m *Query) {
	c.uint(&m.ID)
	c.str(&m.Peer)
	has := m.Pattern != nil
	if c.bool(&has); has {
		if !c.encoding {
			m.Pattern = new(triple.Pattern)
		}
		c.pattern(m.Pattern)
	}
	list(c, &m.Patterns, 6, c.pattern)
	c.str(&m.RDQL)
	c.bool(&m.Reformulate)
	c.int(&m.Limit)
	o := &m.Options
	c.enum((*int)(&o.Mode), int(mediation.Recursive))
	c.int(&o.MaxDepth)
	c.float(&o.MinConfidence)
	c.int(&o.Parallelism)
	c.int(&o.PushdownLimit)
	c.bool(&o.ComposeMappings)
	c.float(&o.MaxLoss)
	c.int64((*int64)(&o.StatsTTL))
}

func (c *codec) rowChunk(m *RowChunk) {
	if c.encoding {
		// The one frame that far outgrows the initial buffer: size it once.
		n := 64
		for _, row := range m.Rows {
			for _, cell := range row {
				n += len(cell) + 2
			}
		}
		c.out = slices.Grow(c.out, n)
	}
	c.uint(&m.ID)
	c.strs(&m.Columns)
	list(c, &m.Rows, 1, c.strs)
}

func (c *codec) trailer(m *Trailer) {
	c.uint(&m.ID)
	c.str(&m.Err)
	c.strs(&m.Columns)
	c.int(&m.Stats.Rows)
	c.int(&m.Stats.Messages)
	c.int(&m.Stats.Reformulations)
	c.bool(&m.Stats.Degraded)
	c.int64(&m.Stats.FirstRowMicros)
	c.int64(&m.Stats.ElapsedMicros)
}

func (c *codec) write(m *Write) {
	c.uint(&m.ID)
	c.str(&m.Peer)
	list(c, &m.Inserts, 3, c.triple)
	list(c, &m.Deletes, 3, c.triple)
	list(c, &m.Schemas, 3, c.schema)
	list(c, &m.Mappings, 24, c.mapping)
	list(c, &m.ReplaceOld, 24, c.mapping)
	list(c, &m.ReplaceNew, 24, c.mapping)
	c.int(&m.Parallelism)
}

func (c *codec) receipt(m *Receipt) {
	c.uint(&m.ID)
	c.str(&m.Err)
	c.int(&m.Applied)
	c.int(&m.Failed)
	c.int(&m.Skipped)
	c.int(&m.Groups)
	c.int(&m.Messages)
	c.strs(&m.EntryErrs)
}

func (c *codec) cancel(m *Cancel) { c.uint(&m.ID) }

func (c *codec) statsReq(m *StatsReq) { c.uint(&m.ID) }

func (c *codec) daemonStats(m *DaemonStats) {
	c.uint(&m.ID)
	c.int(&m.Daemon)
	c.strs(&m.Peers)
	c.int64(&m.UptimeMillis)
	c.bool(&m.Draining)
	c.int(&m.ActiveConns)
	c.uint(&m.ConnsRejected)
	c.int(&m.ActiveQueries)
	c.int(&m.ActiveWrites)
	c.uint(&m.QueriesServed)
	c.uint(&m.WritesServed)
	c.uint(&m.RowsStreamed)
	c.uint(&m.ComposeHits)
	c.uint(&m.ComposeMisses)
	c.uint(&m.ComposeInvalidations)
	c.int(&m.ComposeEntries)
	c.int(&m.JournalErrs)
	c.int64(&m.Journal.Snapshots)
	c.int64(&m.Journal.SnapshotBytes)
	c.int64(&m.Journal.WALBytes)
	c.uint(&m.Overlay.Sends)
	c.uint(&m.Overlay.LocalDeliveries)
	c.uint(&m.Overlay.PoolDials)
	c.uint(&m.Overlay.PoolReuses)
	c.uint(&m.Overlay.PoolRedials)
	c.uint(&m.Overlay.PoolRetired)
	c.int(&m.Overlay.PoolIdle)
	c.uint(&m.Wire.FramesIn)
	c.uint(&m.Wire.FramesOut)
	c.uint(&m.Wire.BytesIn)
	c.uint(&m.Wire.BytesOut)
	c.uint(&m.Wire.BadFrames)
}

func (c *codec) dumpReq(m *DumpReq) {
	c.uint(&m.ID)
	c.str(&m.Peer)
}

func (c *codec) peerDump(p *PeerDump) {
	c.str(&p.ID)
	c.str(&p.Path)
	c.int(&p.Triples)
	c.uint(&p.Digest)
	c.uint(&p.WALSeq)
	c.str(&p.JournalErr)
}

func (c *codec) dump(m *Dump) {
	c.uint(&m.ID)
	c.str(&m.Err)
	list(c, &m.Peers, 6, c.peerDump)
}

// encode walks msg and reports whether it is the pointer type that frames
// of type t carry. (Two switches rather than a table of walks: called
// directly, the codec stays on the caller's stack.)
func (c *codec) encode(t Type, msg any) bool {
	var is Type
	switch m := msg.(type) {
	case *Query:
		is = TQuery
		c.query(m)
	case *RowChunk:
		is = TRowChunk
		c.rowChunk(m)
	case *Trailer:
		is = TTrailer
		c.trailer(m)
	case *Write:
		is = TWrite
		c.write(m)
	case *Receipt:
		is = TReceipt
		c.receipt(m)
	case *Cancel:
		is = TCancel
		c.cancel(m)
	case *StatsReq:
		is = TStatsReq
		c.statsReq(m)
	case *DaemonStats:
		is = TStats
		c.daemonStats(m)
	case *DumpReq:
		is = TDumpReq
		c.dumpReq(m)
	case *Dump:
		is = TDump
		c.dump(m)
	}
	return is == t
}

func decoded[T any](walk func(*T)) any {
	m := new(T)
	walk(m)
	return m
}

// decode reads the one message of type t that in holds, nothing after it.
func (c *codec) decode(t Type) (any, error) {
	var msg any
	switch t {
	case TQuery:
		msg = decoded(c.query)
	case TRowChunk:
		msg = decoded(c.rowChunk)
	case TTrailer:
		msg = decoded(c.trailer)
	case TWrite:
		msg = decoded(c.write)
	case TReceipt:
		msg = decoded(c.receipt)
	case TCancel:
		msg = decoded(c.cancel)
	case TStatsReq:
		msg = decoded(c.statsReq)
	case TStats:
		msg = decoded(c.daemonStats)
	case TDumpReq:
		msg = decoded(c.dumpReq)
	case TDump:
		msg = decoded(c.dump)
	default:
		return nil, fmt.Errorf("%w: unknown type %d", ErrBadFrame, t)
	}
	if c.err == nil && c.off != len(c.in) {
		c.fail(fmt.Sprintf("%d bytes after the message", len(c.in)-c.off))
	}
	if c.err != nil {
		return nil, c.err
	}
	return msg, nil
}
