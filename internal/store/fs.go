// Package store is the durable journal under a peer's overlay store: a
// write-ahead log of checksummed, length-prefixed batch records plus
// periodic snapshots with log truncation. The WAL records exactly the
// passes the mediation layer observes (one pgrid.StoreHook invocation),
// so one acked batch is one durable record.
//
// All file access goes through the small FS interface so recovery can
// be exercised adversarially: FaultFS injects a crash at any
// write/fsync/rename boundary, with torn and bit-flipped tails, and
// the crash-matrix test replays recovery at every such point.
package store

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// ErrCrashed is returned by every FaultFS operation at and after the
// injected crash point — the moment the simulated process dies.
var ErrCrashed = errors.New("store: simulated crash")

// File is the writable-file surface the log needs: append writes, an
// explicit durability barrier, and close.
type File interface {
	io.Writer
	// Sync is the durability barrier: data written before a Sync that
	// returned nil survives a crash; unsynced tails may be lost in
	// part or in full.
	Sync() error
	Close() error
}

// FS is the filesystem surface the log is written against. OsFS is the
// real thing; FaultFS is the deterministic in-memory shim used by
// tests and the crash matrix.
type FS interface {
	MkdirAll(dir string) error
	// Create opens name for writing, truncating any existing content.
	Create(name string) (File, error)
	// Append opens name for appending, creating it if absent.
	Append(name string) (File, error)
	// ReadFile returns the full content of name; a missing file yields
	// an error satisfying errors.Is(err, fs.ErrNotExist).
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	Remove(name string) error
	// Truncate cuts name down to size bytes (used to drop a corrupt
	// WAL tail during recovery).
	Truncate(name string, size int64) error
	// SyncDir flushes directory metadata so a preceding Create/Rename
	// in dir is itself durable.
	SyncDir(dir string) error
}

// OsFS implements FS on the real filesystem.
type OsFS struct{}

func (OsFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (OsFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
}

func (OsFS) Append(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (OsFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (OsFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

func (OsFS) Remove(name string) error { return os.Remove(name) }

func (OsFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (OsFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	syncErr := d.Sync()
	closeErr := d.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// notExist wraps fs.ErrNotExist with the missing name for in-memory
// filesystems.
func notExist(name string) error {
	return &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
}
