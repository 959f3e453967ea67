// Package wire is gridvine's client/server protocol: a compact
// length-prefixed, checksummed frame stream over TCP. All query and
// write logic stays server-side (the daemon hosts the mediation
// peers); clients are thin — they frame requests, demultiplex
// responses by request ID, and reassemble streamed row chunks into a
// cursor.
//
// The frame — [1B type][4B payload length][4B CRC32C of payload][payload],
// little-endian — and the primitives a payload is written in are
// internal/codec's, shared with the overlay; its package comment says what
// the decoder refuses as ErrBadFrame. The payload is the frame type's
// message struct in one explicit layout (codec.go): its fields in struct
// order (DESIGN.md §8 spells it out), nested structs inline, nothing else,
// so a frame decodes in isolation and a corrupt one never poisons its
// neighbours. The layout has no version and tolerates no added or missing
// field: client and daemon must be built from the same commit, and a
// mismatch shows as ErrBadFrame, not as a silently dropped field. A
// decoded message's strings are substrings of one copy of its payload, so
// the strings of all rows of a chunk are one allocation (and keeping one
// keeps the chunk).
//
// Request/response shapes:
//
//   - Query → zero or more RowChunk frames, then exactly one Trailer
//     carrying the terminal error, the output columns, and the
//     execution stats (including the Degraded flag) — the wire image
//     of the mediation.QueryStats Peer.Run returns. The server runs the
//     engine on the request's handler goroutine, one RowChunk per
//     hand-over.
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
	"fmt"
	"io"
	"slices"

	"gridvine/internal/codec"
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

// ErrBadFrame and ErrShortFrame classify a decoding failure: frame content
// that is not a frame or not its type's layout, and data that ends
// mid-frame (fatal only at end of input).
var (
	ErrBadFrame   = codec.ErrBadFrame
	ErrShortFrame = codec.ErrShortFrame
)

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

// Write asks a daemon to apply one mediation batch. A mapping replaces
// the version stored under its ID.
type Write struct {
	ID          uint64
	Peer        string
	Inserts     []triple.Triple
	Deletes     []triple.Triple
	Schemas     []schema.Schema
	Mappings    []schema.Mapping
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
	c := codec.Encoder(256)
	if !(walk{&c}).encode(t, msg) {
		return nil, fmt.Errorf("wire: a type %d frame does not carry %T", t, msg)
	}
	buf, err := c.Frame(byte(t))
	if err != nil {
		return nil, fmt.Errorf("wire: encode %T: %w", msg, err)
	}
	return buf, nil
}

// DecodeFrame parses one frame from the front of data, returning the
// frame type, its raw payload (a sub-slice of data — no copy, no
// allocation), and the bytes consumed. A frame that cannot be complete
// yet yields ErrShortFrame; corrupt content yields ErrBadFrame.
func DecodeFrame(data []byte) (Type, []byte, int, error) {
	t, payload, n, err := codec.ParseFrame(data, byte(maxType))
	return Type(t), payload, n, err
}

// DecodeMessage decodes a frame payload into its message struct, returned
// as the pointer type EncodeFrame takes for t. The message's strings are
// substrings of one copy of payload, which the caller may reuse.
func DecodeMessage(t Type, payload []byte) (any, error) {
	c := codec.Decoder(slices.Clone(payload))
	return walk{&c}.decode(t)
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
	t, payload, err := codec.ReadFrame(r, byte(maxType))
	if err != nil {
		return 0, nil, 0, err
	}
	// The buffer is this call's alone and is not written again, so the
	// message's strings can point into it: no second copy of the payload.
	c := codec.Decoder(payload)
	msg, err := walk{&c}.decode(Type(t))
	if err != nil {
		return 0, nil, 0, err
	}
	return Type(t), msg, codec.FrameHeader + len(payload), nil
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
