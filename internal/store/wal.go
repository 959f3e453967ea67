package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
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
// under. Value must be gob-encodable with its concrete type registered,
// which every type shipped over the simnet wire already is.
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

// Record framing: a fixed 8-byte header — little-endian payload length
// then CRC32C (Castagnoli) of the payload — followed by the payload, a
// self-contained gob stream of one Record. Self-contained means a
// fresh encoder per record: any record can be decoded without the ones
// before it, so a corrupt record never poisons its predecessors.
const (
	frameHeader = 8
	// maxRecordSize bounds a claimed payload length so a corrupt
	// header can't drive a giant allocation.
	maxRecordSize = 1 << 28
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errBadRecord tags any undecodable tail condition — truncated header,
// truncated payload, checksum mismatch, or gob garbage. Recovery
// treats them all the same way: truncate the log at the last good
// record.
var errBadRecord = errors.New("store: bad WAL record")

// encodeRecord appends one framed record to dst and returns the extended
// slice (dst itself, unextended, on error). The payload is encoded straight
// behind its reserved header, which is then filled in place, so a caller
// that sizes dst's capacity — the snapshot does, from the previous
// snapshot's length — pays no copy at all.
func encodeRecord(dst []byte, rec Record) ([]byte, error) {
	start := len(dst)
	w := bytes.NewBuffer(append(dst, make([]byte, frameHeader)...))
	if err := gob.NewEncoder(w).Encode(rec); err != nil {
		return dst, fmt.Errorf("store: encode WAL record: %w", err)
	}
	buf := w.Bytes()
	payload := buf[start+frameHeader:]
	if len(payload) > maxRecordSize {
		return dst, fmt.Errorf("store: WAL record too large (%d bytes)", len(payload))
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return buf, nil
}

// DecodeRecords decodes as many whole, checksum-valid records as data
// holds. It returns them along with goodLen, the byte offset of the
// first undecodable position — recovery truncates the log there. err
// is nil on a clean end and errBadRecord-wrapped when trailing bytes
// had to be discarded; the returned records are valid either way.
// Every returned record passed its CRC32C check, and no input —
// truncated, bit-flipped, or arbitrary — can cause a panic or an
// unbounded allocation.
func DecodeRecords(data []byte) (recs []Record, goodLen int, err error) {
	off := 0
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
		var rec Record
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
			return recs, off, fmt.Errorf("%w: gob decode at offset %d: %v", errBadRecord, off, err)
		}
		recs = append(recs, rec)
		off += frameHeader + n
	}
}
