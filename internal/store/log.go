package store

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync"
)

// Log file layout inside a log directory. The snapshot keeps the name
// it had when it was gob-encoded, so a directory a gob-era build wrote is
// refused on its snapshot rather than started without it.
const (
	walFile  = "wal.log"
	snapFile = "snapshot.gob"
	tmpFile  = "snapshot.tmp"
)

// Options tunes a Log.
type Options struct {
	// SnapshotEvery, when positive, is the exact number of appended
	// records after which MaybeSnapshot takes a snapshot and truncates
	// the WAL; negative disables automatic snapshots; 0 selects the
	// size-proportional default (see defaultSnapshotEvery).
	SnapshotEvery int
}

// defaultSnapshotEvery is the record floor of the default trigger, which
// fires once the WAL holds that many records and is at least as long as
// the snapshot it would replace. Below the floor a snapshot is not worth
// its fsyncs and rename; above it each snapshot is paid for by at least
// its predecessor's length in WAL bytes, so snapshot bytes written stay
// within a constant factor of WAL bytes written, and recovery replays
// about one snapshot's worth of log.
const defaultSnapshotEvery = 256

// Recovery is what Open found on disk: the last snapshot's state plus
// every WAL record appended after it, already checksum-verified and
// sequence-validated. The caller replays SnapshotItems/SnapshotTombs
// first, then WAL in order; replay is idempotent (set-semantic inserts
// and deletes), so a record the snapshot already absorbed would be
// harmless — but Seq bookkeeping skips those outright.
type Recovery struct {
	SnapshotItems  []Entry // live items from the snapshot (OpInsert)
	SnapshotTombs  []Entry // tombstones from the snapshot (OpDelete)
	WAL            []Entry // post-snapshot mutations in append order
	Records        int     // WAL records replayed
	TruncatedBytes int     // corrupt/torn tail bytes cut from the WAL
	LastSeq        uint64  // highest record sequence recovered
}

// snapshotRecord is the snapshot file's payload: the full store state
// as of record sequence Seq, framed and checksummed exactly like a WAL
// record.
type snapshotRecord struct {
	Seq   uint64
	Items []Entry
	Tombs []Entry
}

// Log is a write-ahead log with periodic snapshots. Append durably
// logs one checksummed record and is the ack boundary: a batch whose
// Append returned nil survives any crash; a batch whose Append failed
// may or may not have landed, and recovery reports what it actually
// found.
//
// Concurrent appends group-commit: each caller stages its encoded
// record in a pending buffer, one caller becomes the flush leader and
// writes + fsyncs the whole buffer as a single group outside the lock,
// and every caller whose record the group covered returns once the
// fsync lands. Serial callers degenerate to exactly one write + one
// fsync per record, so the crash-matrix fault schedule is unchanged.
//
// Errors are sticky: after any append/snapshot failure the Log refuses
// further writes and Err returns the cause — a store that can no
// longer guarantee durability must stop acking, not limp on.
//
// Callers must invoke MaybeSnapshot/Snapshot only at points where the
// snapshot source reflects every record appended so far (the
// apply-then-snapshot discipline), otherwise a snapshot could claim a
// Seq whose data it doesn't contain. The mediation hook satisfies this
// (mutations apply to the store before Append), which is also why a
// snapshot may absorb still-pending records: their data is already in
// the snapshot source, so the snapshot itself is their durability.
type Log struct {
	mu          sync.Mutex
	cond        *sync.Cond // signals flush/snapshot completion and errors
	fs          FS
	dir         string
	wal         File
	seq         uint64 // last staged sequence (may be ahead of flushedSeq)
	flushedSeq  uint64 // last sequence made durable (fsync or snapshot)
	pending     []byte // encoded records staged since the last flush
	pendingRecs int
	flushing    bool // a leader is writing+fsyncing outside the lock
	syncs       int64
	sinceSnap   int   // records flushed to the WAL since the last snapshot
	stats       Stats // what the default trigger compares; see Stats
	snapEvery   int
	source      func() (items, tombs []Entry)
	err         error
	closed      bool
}

// Open opens (or creates) the log directory, removes any half-written
// snapshot temp file, loads the newest snapshot, replays the WAL tail
// — truncating it at the first record that is short, checksum-corrupt,
// or out of sequence — and leaves the WAL open for appending. A
// snapshot or WAL that does not start with the journal's file header (a
// gob-era file, say), or a WAL holding a checksum-valid record that does
// not decode, is an error naming the file, whose bytes are left as they
// are; a WAL no longer than the header holds no record and is started
// afresh.
func Open(fsys FS, dir string, opts Options) (*Log, *Recovery, error) {
	if recordCodec == nil {
		return nil, nil, errNoCodec
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, nil, fmt.Errorf("store: mkdir %s: %w", dir, err)
	}
	if err := fsys.Remove(filepath.Join(dir, tmpFile)); err != nil && !errors.Is(err, fs.ErrNotExist) && !errors.Is(err, ErrCrashed) {
		return nil, nil, fmt.Errorf("store: clear snapshot temp: %w", err)
	}

	rec := &Recovery{}
	var snapSeq uint64
	var stats Stats
	snapPath := filepath.Join(dir, snapFile)
	if data, err := fsys.ReadFile(snapPath); err == nil {
		stats.SnapshotBytes = int64(len(data))
		snap, derr := decodeSnapshot(data)
		if derr != nil {
			// A crash cannot produce a corrupt snapshot (it is written
			// to a temp file, synced, then atomically renamed), so
			// this is real corruption or a foreign format — surface
			// it, don't guess.
			return nil, nil, fmt.Errorf("store: snapshot %s: %w", snapPath, derr)
		}
		snapSeq = snap.Seq
		rec.SnapshotItems = snap.Items
		rec.SnapshotTombs = snap.Tombs
		rec.LastSeq = snap.Seq
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("store: read snapshot: %w", err)
	}

	walPath := filepath.Join(dir, walFile)
	data, err := fsys.ReadFile(walPath)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("store: read WAL: %w", err)
	}
	if len(data) <= len(fileHeader) && string(data) != fileHeader {
		// Absent, empty, or cut short by a crash while its header was
		// being written (torn, perhaps): no record can be in it.
		if err := resetWAL(fsys, walPath); err != nil {
			return nil, nil, fmt.Errorf("store: reset WAL %s: %w", walPath, err)
		}
		rec.TruncatedBytes = len(data)
		data = []byte(fileHeader)
	}
	recs, goodLen, decErr := DecodeRecords(data)
	if errors.Is(decErr, errNotJournal) || errors.Is(decErr, errUndecodable) {
		return nil, nil, fmt.Errorf("store: WAL %s: %w", walPath, decErr)
	}
	// Walk the records, skipping those the snapshot already covers and
	// cutting at the first sequence violation (which only tampering or
	// undetected corruption could produce — cheap insurance).
	lastSeq := snapSeq
	for i, r := range recs {
		if r.Seq <= snapSeq {
			continue
		}
		if r.Seq != lastSeq+1 {
			goodLen = recordOffset(data, i)
			decErr = fmt.Errorf("%w: sequence gap (%d after %d)", errBadRecord, r.Seq, lastSeq)
			break
		}
		lastSeq = r.Seq
		rec.WAL = append(rec.WAL, r.Entries...)
		rec.Records++
	}
	if goodLen < len(data) {
		rec.TruncatedBytes = len(data) - goodLen
		if err := fsys.Truncate(walPath, int64(goodLen)); err != nil {
			return nil, nil, fmt.Errorf("store: truncate corrupt WAL tail: %w", err)
		}
	} else if decErr != nil {
		return nil, nil, fmt.Errorf("store: WAL %s: %w", walPath, decErr)
	}
	rec.LastSeq = lastSeq
	stats.WALBytes = int64(goodLen - len(fileHeader))

	wal, err := fsys.Append(walPath)
	if err != nil {
		return nil, nil, fmt.Errorf("store: open WAL for append: %w", err)
	}
	l := &Log{
		fs:         fsys,
		dir:        dir,
		wal:        wal,
		seq:        lastSeq,
		flushedSeq: lastSeq,
		sinceSnap:  rec.Records,
		stats:      stats,
		snapEvery:  opts.SnapshotEvery,
	}
	l.cond = sync.NewCond(&l.mu)
	return l, rec, nil
}

// resetWAL makes path an empty WAL: the file header, synced on its own,
// so that no torn write of a later record can reach it.
func resetWAL(fsys FS, path string) error {
	f, err := fsys.Create(path)
	if err != nil {
		return err
	}
	if _, err = f.Write([]byte(fileHeader)); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// recordOffset returns the byte offset of the i-th record in data.
// data is known to decode cleanly through at least i records.
func recordOffset(data []byte, i int) int {
	off := len(fileHeader)
	for ; i > 0; i-- {
		n := int(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		off += frameHeader + n
	}
	return off
}

func decodeSnapshot(data []byte) (snapshotRecord, error) {
	recs, _, err := DecodeRecords(data)
	if err != nil {
		return snapshotRecord{}, err
	}
	if len(recs) != 1 {
		return snapshotRecord{}, fmt.Errorf("%w: snapshot holds %d records, want 1", errBadRecord, len(recs))
	}
	var snap snapshotRecord
	snap.Seq = recs[0].Seq
	for _, e := range recs[0].Entries {
		switch e.Op {
		case OpInsert:
			snap.Items = append(snap.Items, e)
		case OpDelete:
			snap.Tombs = append(snap.Tombs, e)
		}
	}
	return snap, nil
}

// SetSnapshotSource registers the function that produces the full
// store state (live items plus tombstones) for snapshots. It must be
// set before Snapshot/MaybeSnapshot are used; it is called without any
// Log-external locks held by the Log itself. The returned slices become
// the Log's: it encodes append(items, tombs...), which copies nothing
// when the source laid the tombstones out right behind the items.
func (l *Log) SetSnapshotSource(fn func() (items, tombs []Entry)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.source = fn
}

// Append durably logs one batch: Stage, then Wait. A nil return is the
// durability ack: the record reached the disk via a group fsync (possibly
// shared with concurrent appends) or was absorbed by a concurrent snapshot
// whose Seq covers it. On failure the error is sticky and all further
// appends are refused.
func (l *Log) Append(entries []Entry) error {
	seq, err := l.Stage(entries)
	if err != nil {
		return err
	}
	return l.Wait(seq)
}

// Stage encodes one batch as the next record and returns its sequence
// number; it does not wait for the disk. Records reach the WAL in the
// order they were staged, so a caller that must journal changes in the
// order it applied them stages under its own ordering lock and waits
// outside it.
func (l *Log) Stage(entries []Entry) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if l.closed {
		return 0, errors.New("store: log closed")
	}
	var err error
	if l.pending, err = encodeRecord(l.pending, Record{Seq: l.seq + 1, Entries: entries}); err != nil {
		l.err = err
		l.cond.Broadcast()
		return 0, err
	}
	l.seq++
	l.pendingRecs++
	return l.seq, nil
}

// Wait returns once the record staged as seq is durable, leading the
// group flush that makes it so when no flush is in flight. Its result is
// Append's.
func (l *Log) Wait(seq uint64) error {
	l.mu.Lock()
	for {
		if l.err != nil {
			err := l.err
			l.mu.Unlock()
			return err
		}
		if l.flushedSeq >= seq {
			l.mu.Unlock()
			return nil
		}
		if !l.flushing {
			break
		}
		l.cond.Wait()
	}
	return l.flushPendingLocked()
}

// flushPendingLocked writes and fsyncs the staged pending buffer as one
// group. Called with l.mu held and l.flushing false; the lock is
// released for the I/O so new appends can stage behind this flush.
// Unlocks l.mu before returning.
func (l *Log) flushPendingLocked() error {
	l.flushing = true
	group := l.pending
	recs := l.pendingRecs
	target := l.seq
	l.pending = nil
	l.pendingRecs = 0
	l.mu.Unlock()
	var werr error
	if _, err := l.wal.Write(group); err != nil {
		werr = fmt.Errorf("store: WAL write: %w", err)
	} else if err := l.wal.Sync(); err != nil {
		werr = fmt.Errorf("store: WAL fsync: %w", err)
	}
	l.mu.Lock()
	l.flushing = false
	if werr != nil {
		l.err = werr
	} else {
		l.flushedLocked(target, recs, len(group))
		if l.pending == nil && cap(group) <= maxReusedGroup {
			// Nothing staged behind this flush: the next record is
			// encoded into the buffer just written.
			l.pending = group[:0]
		}
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	return werr
}

// maxReusedGroup caps the flushed buffer a Log keeps for its next record.
const maxReusedGroup = 64 << 10

// flushedLocked accounts for one group that reached the disk.
func (l *Log) flushedLocked(target uint64, recs, bytes int) {
	l.flushedSeq = target
	l.sinceSnap += recs
	l.stats.WALBytes += int64(bytes)
	l.syncs++
}

// MaybeSnapshot takes a snapshot if one is due (see
// Options.SnapshotEvery). Call it after applying an appended batch to
// the store, so the snapshot source covers it.
func (l *Log) MaybeSnapshot() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var due bool
	switch {
	case l.snapEvery > 0:
		due = l.sinceSnap >= l.snapEvery
	case l.snapEvery == 0:
		due = l.sinceSnap >= defaultSnapshotEvery && l.stats.WALBytes >= l.stats.SnapshotBytes
	}
	if !due || l.source == nil {
		return l.err
	}
	return l.snapshotLocked()
}

// Snapshot forces a snapshot and WAL truncation now.
func (l *Log) Snapshot() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapshotLocked()
}

// snapshotLocked writes the source state to a temp file, syncs it,
// atomically renames it over the snapshot, syncs the directory, then
// resets the WAL. A crash anywhere in the sequence leaves either the
// old snapshot + full WAL or the new snapshot + a stale WAL (or one cut
// inside its header) — all recover exactly, because stale records are
// skipped by Seq.
//
// Any records still pending when the snapshot lands are absorbed by
// it: the apply-then-append discipline means the snapshot source
// already holds their data, the snapshot's Seq covers them, and their
// waiting appenders are released as durably acked.
func (l *Log) snapshotLocked() error {
	for l.flushing {
		l.cond.Wait()
	}
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return errors.New("store: log closed")
	}
	if l.source == nil {
		return errors.New("store: no snapshot source registered")
	}
	items, tombs := l.source()
	buf := append(make([]byte, 0, l.stats.SnapshotBytes), fileHeader...)
	buf, err := encodeRecord(buf, Record{Seq: l.seq, Entries: append(items, tombs...)})
	if err != nil {
		l.err = err
		l.cond.Broadcast()
		return err
	}
	fail := func(step string, err error) error {
		l.err = fmt.Errorf("store: snapshot %s: %w", step, err)
		l.cond.Broadcast()
		return l.err
	}
	tmpPath := filepath.Join(l.dir, tmpFile)
	tmp, err := l.fs.Create(tmpPath)
	if err != nil {
		return fail("create temp", err)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close() //nolint:errcheck // the write error is the one to report
		return fail("write temp", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close() //nolint:errcheck // the sync error is the one to report
		return fail("sync temp", err)
	}
	if err := tmp.Close(); err != nil {
		return fail("close temp", err)
	}
	if err := l.fs.Rename(tmpPath, filepath.Join(l.dir, snapFile)); err != nil {
		return fail("rename", err)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return fail("sync dir", err)
	}
	// The snapshot is durable; every WAL record is now ≤ its Seq, so
	// the log can be reset. A crash before the reset just leaves
	// records that replay as no-ops (skipped by Seq).
	if err := l.wal.Close(); err != nil {
		return fail("close old WAL", err)
	}
	walPath := filepath.Join(l.dir, walFile)
	if err := resetWAL(l.fs, walPath); err != nil {
		return fail("reset WAL", err)
	}
	wal, err := l.fs.Append(walPath)
	if err != nil {
		return fail("reopen WAL", err)
	}
	l.wal = wal
	l.sinceSnap = 0
	l.stats = Stats{Snapshots: l.stats.Snapshots + 1, SnapshotBytes: int64(len(buf))}
	l.pending = nil
	l.pendingRecs = 0
	l.flushedSeq = l.seq
	l.cond.Broadcast()
	return nil
}

// Err returns the sticky error, if any. A non-nil Err means some
// earlier append or snapshot could not be made durable and the log has
// stopped acking writes.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Seq returns the sequence number of the last durable record — the
// acked watermark. Records staged behind an in-flight group flush are
// not counted until their fsync (or an absorbing snapshot) lands.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushedSeq
}

// StagedSeq returns the sequence number of the last staged record,
// including records whose group flush has not yet completed.
func (l *Log) StagedSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Syncs returns how many WAL fsyncs the log has issued for appends
// (snapshot fsyncs are not counted). With group commit, concurrent
// appends share fsyncs, so Syncs can be far below the record count.
func (l *Log) Syncs() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncs
}

// Stats is the journal's bookkeeping: the two lengths the default
// snapshot trigger compares, and how often a snapshot has been taken.
type Stats struct {
	Snapshots     int64 // snapshots taken since Open
	SnapshotBytes int64 // length of the snapshot file (0: none yet)
	WALBytes      int64 // records flushed to the WAL since that snapshot, in bytes (the file adds its header)
}

// Stats returns the journal's current bookkeeping.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Close flushes any staged records, then closes the WAL handle. The
// log cannot be used afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	for l.flushing {
		l.cond.Wait()
	}
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	if len(l.pending) > 0 && l.err == nil {
		// Appenders are still waiting on this buffer; make it durable
		// so their acks stay truthful, then shut the log.
		group := l.pending
		recs := l.pendingRecs
		target := l.seq
		l.pending = nil
		l.pendingRecs = 0
		if _, err := l.wal.Write(group); err != nil {
			l.err = fmt.Errorf("store: WAL write: %w", err)
		} else if err := l.wal.Sync(); err != nil {
			l.err = fmt.Errorf("store: WAL fsync: %w", err)
		} else {
			l.flushedLocked(target, recs, len(group))
		}
	}
	l.closed = true
	l.cond.Broadcast()
	err := l.wal.Close()
	l.mu.Unlock()
	return err
}
