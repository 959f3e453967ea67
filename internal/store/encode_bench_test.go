package store_test

import (
	"fmt"
	"testing"

	"gridvine/internal/keyspace"
	"gridvine/internal/store"
	"gridvine/internal/triple"
)

// discardFS keeps the names of an in-memory FS but drops every byte
// written, so the benchmarks below time the journal's own work — mostly
// encoding a record — rather than a file that grows.
type discardFS struct{ store.FS }

type discardFile struct{}

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Sync() error                 { return nil }
func (discardFile) Close() error                { return nil }

func (f discardFS) Create(name string) (store.File, error) {
	if _, err := f.FS.Create(name); err != nil {
		return nil, err
	}
	return discardFile{}, nil
}

func (discardFS) Append(string) (store.File, error) { return discardFile{}, nil }

// writePass is one store-hook pass of a benchmark mixed_rw write: four
// triples of one subject, each under its subject, predicate and object
// keys.
func writePass(seq int) []store.Entry {
	subject := fmt.Sprintf("load:1-3-%d", seq)
	entries := make([]store.Entry, 0, 12)
	for k := 0; k < 4; k++ {
		t := triple.Triple{Subject: subject, Predicate: fmt.Sprintf("Load#a%d", k), Object: fmt.Sprintf("v3-%d-%d", seq, k)}
		for _, s := range []string{t.Subject, t.Predicate, t.Object} {
			entries = append(entries, store.Entry{Op: store.OpInsert, Key: keyspace.HashDefault(s).String(), Value: t})
		}
	}
	return entries
}

func openDiscarding(b *testing.B) *store.Log {
	l, _, err := store.Open(discardFS{store.NewMemFS()}, "d", store.Options{SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	return l
}

// BenchmarkRecordEncode appends one mixed_rw write pass per op to a log
// whose files discard their bytes: a record's encoding and framing.
func BenchmarkRecordEncode(b *testing.B) {
	l := openDiscarding(b)
	passes := make([][]store.Entry, 64)
	for i := range passes {
		passes[i] = writePass(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(passes[i%len(passes)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotEncode snapshots a peer-sized store — 8 000 entries
// under 160-bit keys, one in ten a tombstone — per op, to files that
// discard their bytes: the encoding a snapshot does under the log mutex.
func BenchmarkSnapshotEncode(b *testing.B) {
	l := openDiscarding(b)
	var state []store.Entry
	for i := 0; len(state) < 8000; i++ {
		for _, e := range writePass(i) {
			if len(state)%10 == 9 {
				e.Op = store.OpDelete
			}
			state = append(state, e)
		}
	}
	l.SetSnapshotSource(func() ([]store.Entry, []store.Entry) { return state, nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}
