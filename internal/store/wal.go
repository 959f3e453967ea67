package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Op says what a logged Entry did to the store.
type Op uint8

const (
	// OpInsert adds a value (idempotent set insert).
	OpInsert Op = 1
	// OpDelete removes a value (idempotent; deletes of absent values
	// are no-ops on replay).
	OpDelete Op = 2
)

// Entry is one logged mutation. Key is the overlay key the value lives
// under, except in a triple's snapshot entry, which has no key: the node
// files a triple under every key of it its path covers, so a snapshot
// lists each triple once (see pgrid.Node.VisitState). Value must have an
// overlay tag (internal/codec's kinds table), as every value the overlay
// stores does: the journal writes it the way an overlay frame carries it.
type Entry struct {
	Op    Op
	Key   string
	Value any
}

// Record is one WAL record: a batch of entries applied atomically, at
// exactly the granularity the mediation layer writes (one store hook
// invocation). Seq is
// assigned monotonically by the Log; a snapshot remembers the last Seq
// it covers so replay skips records the snapshot already absorbed.
type Record struct {
	Seq     uint64
	Entries []Entry
}

// Codec lays a record's payload out and reads it back. Package
// internal/codec registers the one the product journals with at init:
// it imports this package (through mediation), so this package cannot
// import it. Open refuses to run with none registered.
type Codec interface {
	// AppendRecord appends rec's payload to dst.
	AppendRecord(dst []byte, rec *Record) ([]byte, error)
	// DecodeRecord decodes one payload into a record that shares no
	// bytes with it: a replayed value lives as long as the process, and
	// a substring would pin the whole file it was read from.
	DecodeRecord(payload []byte) (Record, error)
}

var recordCodec Codec

// RegisterCodec sets the codec every Log writes and reads its records
// with. Call it from an init function.
func RegisterCodec(c Codec) { recordCodec = c }

var errNoCodec = errors.New("store: no record codec registered (import gridvine/internal/codec)")

// A journal file — the WAL and the snapshot alike — is fileHeader, then
// records. A record is a fixed 8-byte header — little-endian payload
// length then CRC32C (Castagnoli) of the payload — followed by the
// payload, one Record as the registered Codec lays it out. Every record
// decodes without the ones before it, so a corrupt record never poisons
// its predecessors.
const (
	// fileHeader's little-endian value, 0x314A5647, exceeds
	// maxRecordSize, so no record header can start a file this way —
	// in particular none of the gob-encoded layout that preceded it:
	// such a file is refused, not mistaken for a torn tail.
	fileHeader  = "GVJ1"
	frameHeader = 8
	// maxRecordSize bounds a claimed payload length so a corrupt
	// header can't drive a giant allocation. It is the journal's own,
	// above the socket's codec.MaxPayload: a large store's snapshot is
	// one record.
	maxRecordSize = 1 << 28
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errBadRecord tags any damaged tail condition — truncated header,
// truncated payload or checksum mismatch — as a crash mid-append leaves
// one. Recovery treats them all the same way: truncate the log at the last
// good record.
var errBadRecord = errors.New("store: bad WAL record")

// errUndecodable reports a whole, checksum-valid record whose payload does
// not decode: no torn write produces one, and the records after it were
// acked, so recovery refuses the file and leaves its bytes as they are.
var errUndecodable = errors.New("store: undecodable WAL record")

// errNotJournal reports a file that does not start with fileHeader.
// Recovery refuses it and leaves its bytes as they are.
var errNotJournal = errors.New("store: no journal header: the file predates this format or is not a journal")

// encodeRecord appends one framed record to dst and returns the extended
// slice (dst itself, unextended, on error). The payload is encoded straight
// behind its reserved header, which is then filled in place, so a caller
// that sizes dst's capacity — the snapshot does, from the previous
// snapshot's length — pays no copy at all.
func encodeRecord(dst []byte, rec Record) ([]byte, error) {
	start := len(dst)
	buf, err := recordCodec.AppendRecord(append(dst, make([]byte, frameHeader)...), &rec)
	if err != nil {
		return dst, fmt.Errorf("store: encode WAL record: %w", err)
	}
	payload := buf[start+frameHeader:]
	if len(payload) > maxRecordSize {
		return dst, fmt.Errorf("store: WAL record too large (%d bytes)", len(payload))
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return buf, nil
}

// DecodeRecords decodes a journal file: its header, then as many whole,
// checksum-valid records as data holds. It returns them along with
// goodLen, the byte offset of the first undecodable position — recovery
// truncates the log there. err is nil on a clean end (an empty file is
// one), errBadRecord-wrapped when trailing bytes had to be discarded,
// errUndecodable-wrapped when a checksum-valid record does not decode, and
// errNotJournal-wrapped, with goodLen 0, when data does not start with
// the file header; the returned records are valid either way. Every
// returned record passed its CRC32C check, and no input — truncated,
// bit-flipped, or arbitrary — can cause a panic or an unbounded
// allocation.
func DecodeRecords(data []byte) (recs []Record, goodLen int, err error) {
	switch {
	case recordCodec == nil:
		return nil, 0, errNoCodec
	case len(data) == 0:
		return nil, 0, nil
	case len(data) < len(fileHeader) && string(data) == fileHeader[:len(data)]:
		return nil, 0, fmt.Errorf("%w: file ends inside its header", errBadRecord)
	case len(data) < len(fileHeader) || string(data[:len(fileHeader)]) != fileHeader:
		return nil, 0, errNotJournal
	}
	off := len(fileHeader)
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return recs, off, nil
		}
		if len(rest) < frameHeader {
			return recs, off, fmt.Errorf("%w: truncated header at offset %d", errBadRecord, off)
		}
		n := int(binary.LittleEndian.Uint32(rest[0:4]))
		if n > maxRecordSize {
			return recs, off, fmt.Errorf("%w: implausible length %d at offset %d", errBadRecord, n, off)
		}
		if len(rest) < frameHeader+n {
			return recs, off, fmt.Errorf("%w: truncated payload at offset %d", errBadRecord, off)
		}
		payload := rest[frameHeader : frameHeader+n]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(rest[4:8]) {
			return recs, off, fmt.Errorf("%w: checksum mismatch at offset %d", errBadRecord, off)
		}
		rec, err := recordCodec.DecodeRecord(payload)
		if err != nil {
			return recs, off, fmt.Errorf("%w at offset %d: %v", errUndecodable, off, err)
		}
		recs = append(recs, rec)
		off += frameHeader + n
	}
}
