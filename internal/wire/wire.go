// Package wire is gridvine's client/server protocol: a compact
// length-prefixed, checksummed frame stream over TCP. All query and
// write logic stays server-side (the daemon hosts the mediation
// peers); clients are thin — they frame requests, demultiplex
// responses by request ID, and reassemble streamed row chunks into a
// cursor.
//
// Frame layout (little-endian):
//
//	[1B type][4B payload length][4B CRC32C of payload][payload]
//
// The payload is the frame type's message struct in one explicit layout
// (codec.go): its fields in struct order, nested structs inline, and
// nothing else — no names, tags or type descriptors — so a frame
// decodes in isolation and a corrupt one never poisons its neighbours.
//
//	uint64                       uvarint
//	int, int64, time.Duration    zigzag varint
//	bool                         one byte, 0 or 1
//	TermKind, Mode, MappingType,
//	Origin                       one byte, within the type's range
//	float64                      8 bytes, little-endian IEEE 754
//	string                       byte length (uvarint), then the bytes
//	slice                        element count (uvarint), then the elements
//	*triple.Pattern              presence byte, then the pattern if 1
//
// Field order per type is the order of the struct declarations below
// (and of triple.Term/Pattern/Triple, schema.Schema/Mapping/
// Correspondence, mediation.SearchOptions); DESIGN.md §8 spells it out.
// The layout has no version and tolerates no added or missing field:
// client and daemon must be built from the same commit, and a mismatch
// shows as ErrBadFrame, not as a silently dropped field.
//
// The decoder rejects, as ErrBadFrame: a count or string length the
// remaining bytes cannot hold (checked before anything is allocated for
// it), a varint not in shortest form or past 64 bits, an out-of-range
// bool or enum byte, a payload that ends early, and bytes after the
// message. Decoding is therefore canonical: a payload that decodes
// re-encodes to the same bytes. A decoded message's strings are
// substrings of one copy of its payload, so the strings of all rows of
// a chunk are one allocation (and keeping one keeps the chunk).
//
// Request/response shapes:
//
//   - Query → zero or more RowChunk frames, then exactly one Trailer
//     carrying the terminal error, the output columns, and the
//     execution stats (including the Degraded flag) — the wire image
//     of mediation.Cursor.Stats().
//   - Write → exactly one Receipt.
//   - Cancel (client → server) propagates context cancellation: the
//     server cancels the request's engine context, and the stream
//     still terminates with its Trailer/Receipt.
//   - StatsReq → DaemonStats; DumpReq → Dump (ops surface).
//
// Frames of different requests interleave freely on one connection;
// the ID field pairs them up.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"unsafe"

	"gridvine/internal/mediation"
	"gridvine/internal/schema"
	"gridvine/internal/triple"
)

// Type identifies a frame's payload shape.
type Type uint8

// Frame types. The zero value is invalid so an all-zero header never
// parses as a frame.
const (
	TQuery Type = 1 + iota
	TRowChunk
	TTrailer
	TWrite
	TReceipt
	TCancel
	TStatsReq
	TStats
	TDumpReq
	TDump
	maxType = TDump
)

const (
	// frameHeader is 1 byte type + 4 bytes payload length + 4 bytes
	// CRC32C, all little-endian.
	frameHeader = 9
	// MaxPayload bounds a claimed payload length so a corrupt or
	// hostile header cannot demand an absurd allocation.
	MaxPayload = 1 << 26
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrBadFrame wraps every decoding failure caused by frame content
// (bad type, oversized length, checksum mismatch, a payload that is not
// its type's layout) as opposed to a short read.
var ErrBadFrame = errors.New("wire: bad frame")

// ErrShortFrame reports that data ends mid-frame: not an error on a
// live stream (more bytes may arrive), fatal at end of input.
var ErrShortFrame = errors.New("wire: truncated frame")

// Query asks a daemon to execute one mediation query. Exactly one of
// Pattern, Patterns, RDQL must be set (mediation validates). Peer
// selects a hosted peer by ID; empty lets the server pick.
type Query struct {
	ID          uint64
	Peer        string
	Pattern     *triple.Pattern
	Patterns    []triple.Pattern
	RDQL        string
	Reformulate bool
	Limit       int
	Options     mediation.SearchOptions
}

// RowChunk carries a batch of streamed rows. Columns rides the first
// chunk (and the trailer) once the engine knows the output schema.
type RowChunk struct {
	ID      uint64
	Columns []string
	Rows    [][]string
}

// Stats is the wire image of mediation.QueryStats — the fields a thin
// client needs, with durations flattened to microseconds.
type Stats struct {
	Rows           int
	Messages       int
	Reformulations int
	Degraded       bool
	FirstRowMicros int64
	ElapsedMicros  int64
}

// Trailer terminates a query stream: the terminal error (empty = clean
// exhaustion), the final output columns, and the execution stats.
type Trailer struct {
	ID      uint64
	Err     string
	Columns []string
	Stats   Stats
}

// Write asks a daemon to apply one mediation batch. Replacements pair
// old/updated mappings positionally.
type Write struct {
	ID          uint64
	Peer        string
	Inserts     []triple.Triple
	Deletes     []triple.Triple
	Schemas     []schema.Schema
	Mappings    []schema.Mapping
	ReplaceOld  []schema.Mapping
	ReplaceNew  []schema.Mapping
	Parallelism int
}

// Receipt is the wire image of mediation.Receipt. Err reports a
// request-level failure (unknown peer, engine error); EntryErrs
// carries the first few per-entry failure messages.
type Receipt struct {
	ID        uint64
	Err       string
	Applied   int
	Failed    int
	Skipped   int
	Groups    int
	Messages  int
	EntryErrs []string
}

// Cancel propagates a client context cancellation to the server-side
// engine context of request ID.
type Cancel struct {
	ID uint64
}

// StatsReq asks for the daemon's operational counters.
type StatsReq struct {
	ID uint64
}

// DaemonStats is a daemon's operational snapshot.
type DaemonStats struct {
	ID            uint64
	Daemon        int
	Peers         []string
	UptimeMillis  int64
	Draining      bool
	ActiveConns   int
	ConnsRejected uint64
	ActiveQueries int
	ActiveWrites  int
	QueriesServed uint64
	WritesServed  uint64
	RowsStreamed  uint64
	// Composite-closure cache counters, summed over the hosted peers.
	ComposeHits          uint64
	ComposeMisses        uint64
	ComposeInvalidations uint64
	ComposeEntries       int
	// JournalErrs counts hosted peers whose journal has failed (sticky
	// LogErr): they keep serving from memory but no longer make writes
	// durable.
	JournalErrs int
	// Journal sums the hosted peers' journals (store.Stats).
	Journal JournalStats
	// Overlay is where the daemon's overlay messages went; zero when the
	// server was given no source for it.
	Overlay OverlayStats
	// Wire counts the frames and bytes (headers included) this daemon's
	// client connections carried since start.
	Wire WireStats
}

// JournalStats is store.Stats summed over a daemon's peers: snapshots
// taken since start, the bytes the current snapshot files hold, and the
// bytes of WAL written since those snapshots (what a restart replays).
type JournalStats struct {
	Snapshots     int64
	SnapshotBytes int64
	WALBytes      int64
}

// OverlayStats counts a daemon's outgoing overlay messages: Sends crossed
// the TCP transport, LocalDeliveries went straight to the handler of a
// peer the same daemon hosts, and the Pool fields are the transport's
// connection pool (tcpnet.PoolStats) — PoolReuses/(PoolDials+PoolReuses)
// is the share of Sends that paid no dial.
type OverlayStats struct {
	Sends           uint64
	LocalDeliveries uint64
	PoolDials       uint64
	PoolReuses      uint64
	PoolRedials     uint64
	PoolRetired     uint64
	PoolIdle        int
}

// WireStats is a daemon's client-protocol traffic. BadFrames counts
// connections dropped for a frame that failed its checksum or layout.
type WireStats struct {
	FramesIn  uint64
	FramesOut uint64
	BytesIn   uint64
	BytesOut  uint64
	BadFrames uint64
}

// DumpReq asks for per-peer store dumps; Peer narrows to one hosted
// peer, empty dumps all.
type DumpReq struct {
	ID   uint64
	Peer string
}

// PeerDump describes one hosted peer's store: trie path, triple-store
// size, the order-independent content digest (the restart-equivalence
// fingerprint), the WAL's durable sequence number, and the journal's
// sticky error (empty while the peer is durable).
type PeerDump struct {
	ID         string
	Path       string
	Triples    int
	Digest     uint64
	WALSeq     uint64
	JournalErr string
}

// Dump answers a DumpReq.
type Dump struct {
	ID    uint64
	Err   string
	Peers []PeerDump
}

// EncodeFrame lays msg out as the payload of a frame of type t; msg is the
// pointer type that frame type carries (*Query for TQuery, …).
func EncodeFrame(t Type, msg any) ([]byte, error) {
	c := codec{encoding: true, out: make([]byte, frameHeader, 256)}
	if !c.encode(t, msg) {
		return nil, fmt.Errorf("wire: a type %d frame does not carry %T", t, msg)
	}
	if c.err != nil {
		return nil, fmt.Errorf("wire: encode %T: %w", msg, c.err)
	}
	buf := c.out
	payload := buf[frameHeader:]
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("wire: %T payload %d exceeds MaxPayload", msg, len(payload))
	}
	buf[0] = byte(t)
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[5:9], crc32.Checksum(payload, crcTable))
	return buf, nil
}

// DecodeFrame parses one frame from the front of data, returning the
// frame type, its raw payload (a sub-slice of data — no copy, no
// allocation), and the bytes consumed. A frame that cannot be complete
// yet yields ErrShortFrame; corrupt content yields ErrBadFrame.
func DecodeFrame(data []byte) (t Type, payload []byte, n int, err error) {
	if len(data) < frameHeader {
		return 0, nil, 0, ErrShortFrame
	}
	t = Type(data[0])
	if t == 0 || t > maxType {
		return 0, nil, 0, fmt.Errorf("%w: unknown type %d", ErrBadFrame, data[0])
	}
	length := binary.LittleEndian.Uint32(data[1:5])
	if length > MaxPayload {
		return 0, nil, 0, fmt.Errorf("%w: payload length %d exceeds %d", ErrBadFrame, length, MaxPayload)
	}
	total := frameHeader + int(length)
	if len(data) < total {
		return 0, nil, 0, ErrShortFrame
	}
	payload = data[frameHeader:total]
	if crc := crc32.Checksum(payload, crcTable); crc != binary.LittleEndian.Uint32(data[5:9]) {
		return 0, nil, 0, fmt.Errorf("%w: checksum mismatch", ErrBadFrame)
	}
	return t, payload, total, nil
}

// DecodeMessage decodes a frame payload into its message struct, returned
// as the pointer type EncodeFrame takes for t. The message's strings are
// substrings of one copy of payload, which the caller may reuse.
func DecodeMessage(t Type, payload []byte) (any, error) {
	c := codec{in: string(payload)}
	return c.decode(t)
}

// ReadFrame reads one frame from r and decodes its payload. The
// payload buffer grows with the bytes actually read (capped chunks),
// so a hostile length claim cannot force a large allocation up front.
func ReadFrame(r io.Reader) (Type, any, error) {
	t, msg, _, err := readFrame(r)
	return t, msg, err
}

// readFrame is ReadFrame that also reports the frame's size on the wire.
func readFrame(r io.Reader) (Type, any, int, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, 0, ErrShortFrame
		}
		return 0, nil, 0, err
	}
	t := Type(hdr[0])
	if t == 0 || t > maxType {
		return 0, nil, 0, fmt.Errorf("%w: unknown type %d", ErrBadFrame, hdr[0])
	}
	length := binary.LittleEndian.Uint32(hdr[1:5])
	if length > MaxPayload {
		return 0, nil, 0, fmt.Errorf("%w: payload length %d exceeds %d", ErrBadFrame, length, MaxPayload)
	}
	payload, err := readPayload(r, int(length))
	if err != nil {
		return 0, nil, 0, err
	}
	if crc := crc32.Checksum(payload, crcTable); crc != binary.LittleEndian.Uint32(hdr[5:9]) {
		return 0, nil, 0, fmt.Errorf("%w: checksum mismatch", ErrBadFrame)
	}
	// The buffer is this call's alone and is not written again, so the
	// message's strings can point into it: no second copy of the payload.
	c := codec{in: unsafe.String(unsafe.SliceData(payload), len(payload))}
	msg, err := c.decode(t)
	if err != nil {
		return 0, nil, 0, err
	}
	return t, msg, frameHeader + len(payload), nil
}

// readPayload reads exactly n bytes, growing the buffer in bounded
// chunks so allocation tracks data actually received.
func readPayload(r io.Reader, n int) ([]byte, error) {
	const chunk = 1 << 20
	buf := make([]byte, 0, min(n, chunk))
	for len(buf) < n {
		m := min(n-len(buf), chunk)
		off := len(buf)
		buf = append(buf, make([]byte, m)...)
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
				return nil, ErrShortFrame
			}
			return nil, err
		}
	}
	return buf, nil
}

// MessageID extracts the request ID every wire message carries.
func MessageID(msg any) uint64 {
	switch m := msg.(type) {
	case *Query:
		return m.ID
	case *RowChunk:
		return m.ID
	case *Trailer:
		return m.ID
	case *Write:
		return m.ID
	case *Receipt:
		return m.ID
	case *Cancel:
		return m.ID
	case *StatsReq:
		return m.ID
	case *DaemonStats:
		return m.ID
	case *DumpReq:
		return m.ID
	case *Dump:
		return m.ID
	}
	return 0
}
