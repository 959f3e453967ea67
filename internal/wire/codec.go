package wire

import (
	"fmt"

	"gridvine/internal/codec"
)

// walk is the shared codec walking this package's messages: one method per
// message type, its fields in struct order, serving both directions.
type walk struct{ *codec.Codec }

func (c walk) query(m *Query) {
	c.Uint(&m.ID)
	c.Str(&m.Peer)
	codec.Ptr(c.Codec, &m.Pattern, c.Pattern)
	codec.List(c.Codec, &m.Patterns, 6, c.Pattern)
	c.Str(&m.RDQL)
	c.Bool(&m.Reformulate)
	c.Int(&m.Limit)
	o := &m.Options
	c.Int(&o.MaxDepth)
	c.Float(&o.MinConfidence)
	c.Int(&o.Parallelism)
	c.Int(&o.PushdownLimit)
	c.Bool(&o.ComposeMappings)
	c.Float(&o.MaxLoss)
}

func (c walk) rowChunk(m *RowChunk) {
	// The one frame that far outgrows the initial buffer: size it once.
	n := 64
	for _, row := range m.Rows {
		for _, cell := range row {
			n += len(cell) + 2
		}
	}
	c.Grow(n)
	c.Uint(&m.ID)
	c.Strs(&m.Columns)
	codec.List(c.Codec, &m.Rows, 1, c.Strs)
}

func (c walk) trailer(m *Trailer) {
	c.Uint(&m.ID)
	c.Str(&m.Err)
	c.Strs(&m.Columns)
	c.Int(&m.Stats.Rows)
	c.Int(&m.Stats.Messages)
	c.Int(&m.Stats.Reformulations)
	c.Bool(&m.Stats.Degraded)
	c.Int64(&m.Stats.FirstRowMicros)
	c.Int64(&m.Stats.ElapsedMicros)
}

func (c walk) write(m *Write) {
	c.Uint(&m.ID)
	c.Str(&m.Peer)
	// What a write carries is stored as it is — in-process deliveries hand
	// it over uncopied — so it is decoded as copies, not substrings of the
	// frame.
	c.Owned(func() {
		codec.List(c.Codec, &m.Inserts, 3, c.Triple)
		codec.List(c.Codec, &m.Deletes, 3, c.Triple)
		codec.List(c.Codec, &m.Schemas, 3, c.Schema)
		codec.List(c.Codec, &m.Mappings, 24, c.Mapping)
	})
	c.Int(&m.Parallelism)
}

func (c walk) receipt(m *Receipt) {
	c.Uint(&m.ID)
	c.Str(&m.Err)
	c.Int(&m.Applied)
	c.Int(&m.Failed)
	c.Int(&m.Skipped)
	c.Int(&m.Groups)
	c.Int(&m.Messages)
	c.Strs(&m.EntryErrs)
}

func (c walk) cancel(m *Cancel) { c.Uint(&m.ID) }

func (c walk) statsReq(m *StatsReq) { c.Uint(&m.ID) }

func (c walk) daemonStats(m *DaemonStats) {
	c.Uint(&m.ID)
	c.Int(&m.Daemon)
	c.Strs(&m.Peers)
	c.Int64(&m.UptimeMillis)
	c.Bool(&m.Draining)
	c.Int(&m.ActiveConns)
	c.Uint(&m.ConnsRejected)
	c.Int(&m.ActiveQueries)
	c.Int(&m.ActiveWrites)
	c.Uint(&m.QueriesServed)
	c.Uint(&m.WritesServed)
	c.Uint(&m.RowsStreamed)
	c.Uint(&m.ComposeHits)
	c.Uint(&m.ComposeMisses)
	c.Uint(&m.ComposeInvalidations)
	c.Int(&m.ComposeEntries)
	c.Int(&m.JournalErrs)
	c.Int64(&m.Journal.Snapshots)
	c.Int64(&m.Journal.SnapshotBytes)
	c.Int64(&m.Journal.WALBytes)
	c.Uint(&m.Overlay.Sends)
	c.Uint(&m.Overlay.LocalDeliveries)
	c.Uint(&m.Overlay.PoolDials)
	c.Uint(&m.Overlay.PoolReuses)
	c.Uint(&m.Overlay.PoolRedials)
	c.Int(&m.Overlay.PoolIdle)
	c.Uint(&m.Wire.FramesIn)
	c.Uint(&m.Wire.FramesOut)
	c.Uint(&m.Wire.BytesIn)
	c.Uint(&m.Wire.BytesOut)
	c.Uint(&m.Wire.BadFrames)
}

func (c walk) dumpReq(m *DumpReq) {
	c.Uint(&m.ID)
	c.Str(&m.Peer)
}

func (c walk) peerDump(p *PeerDump) {
	c.Str(&p.ID)
	c.Str(&p.Path)
	c.Int(&p.Triples)
	c.Uint(&p.Digest)
	c.Uint(&p.WALSeq)
	c.Str(&p.JournalErr)
}

func (c walk) dump(m *Dump) {
	c.Uint(&m.ID)
	c.Str(&m.Err)
	codec.List(c.Codec, &m.Peers, 6, c.peerDump)
}

// encode walks msg and reports whether it is the pointer type that frames
// of type t carry. (Two switches rather than a table of walks: called
// directly, the codec stays on the caller's stack.)
func (c walk) encode(t Type, msg any) bool {
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
func (c walk) decode(t Type) (any, error) {
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
	if err := c.Finish(); err != nil {
		return nil, err
	}
	return msg, nil
}
