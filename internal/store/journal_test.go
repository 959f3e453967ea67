package store_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gridvine/internal/mediation"
	"gridvine/internal/schema"
	"gridvine/internal/store"
	"gridvine/internal/triple"
)

// everyKind is one record holding a value of every kind the overlay
// stores, inserted, and a tombstone of each: a triple, a schema, a
// bidirectional and a deprecated mapping, a domain degree and a stats
// digest with its sketches.
func everyKind(i int) []store.Entry {
	n := string(rune('a' + i))
	tr := triple.Triple{Subject: "urn:s" + n, Predicate: "EMBL#Organism", Object: "Aspergillus " + n}
	sc := schema.NewSchema("EMBL"+n, "bio", "Organism", "Length")
	bidi := schema.NewMapping("EMBL"+n, "EMP", schema.Equivalence, schema.Manual,
		[]schema.Correspondence{{SourceAttr: "Organism", TargetAttr: "Species", Confidence: 0.9}})
	bidi.Bidirectional = true
	deprecated := schema.NewMapping("EMP", "SWP"+n, schema.Subsumption, schema.Automatic,
		[]schema.Correspondence{{SourceAttr: "Species", TargetAttr: "Taxon", Confidence: 0.4}})
	deprecated.Deprecated = true
	db := triple.NewDB()
	db.Insert(tr)
	stats := mediation.StatsDigest{Origin: "peer-" + n, Schema: "EMBL" + n,
		Published: time.Unix(1700000000+int64(i), 123456789), Predicates: db.Stats().Predicates}
	values := []any{tr, sc, bidi, deprecated, mediation.DomainDegree{Schema: "EMBL" + n, InDegree: 2, OutDegree: 1}, stats}
	var out []store.Entry
	for k, v := range values {
		out = append(out, store.Entry{Op: store.OpInsert, Key: "0101"[:4-k%4], Value: v})
	}
	gone := []any{
		triple.Triple{Subject: "urn:gone" + n, Predicate: "EMBL#Length", Object: "1422"},
		schema.NewSchema("Gone"+n, "bio", "X"),
		schema.NewMapping("Gone"+n, "EMP", schema.Equivalence, schema.Manual,
			[]schema.Correspondence{{SourceAttr: "X", TargetAttr: "Species", Confidence: 1}}),
		mediation.DomainDegree{Schema: "Gone" + n},
		mediation.StatsDigest{Origin: "gone-" + n, Published: time.Unix(1600000000, 0)},
	}
	for k, v := range gone {
		out = append(out, store.Entry{Op: store.OpDelete, Key: "1010"[:4-k%4], Value: v})
	}
	return out
}

// gobEraFile lays rec out as the journal did before it spoke the overlay
// codec: an 8-byte length+CRC32C header, then a gob stream of the Record.
func gobEraFile(t *testing.T, rec store.Record) []byte {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(rec); err != nil {
		t.Fatal(err)
	}
	out := binary.LittleEndian.AppendUint32(nil, uint32(payload.Len()))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload.Bytes(), crc32.MakeTable(crc32.Castagnoli)))
	return append(out, payload.Bytes()...)
}

func writeFile(t *testing.T, fsys store.FS, name string, data []byte) {
	t.Helper()
	f, err := fsys.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// TestOpenRefusesGobEraFiles: a directory written before the journal
// spoke the overlay codec fails to open, naming the file, and keeps its
// bytes — a gob-era WAL is not a torn tail to truncate, and a gob-era
// snapshot is not skipped.
func TestOpenRefusesGobEraFiles(t *testing.T) {
	for _, name := range []string{"wal.log", "snapshot.gob"} {
		t.Run(name, func(t *testing.T) {
			fs := store.NewMemFS()
			path := filepath.Join("d", name)
			old := gobEraFile(t, store.Record{Seq: 1, Entries: everyKind(0)})
			writeFile(t, fs, path, old)
			if _, _, err := store.Open(fs, "d", store.Options{}); err == nil || !strings.Contains(err.Error(), path) {
				t.Fatalf("Open = %v, want an error naming %s", err, path)
			}
			if got, err := fs.ReadFile(path); err != nil || !bytes.Equal(got, old) {
				t.Fatalf("%s changed by the refused Open (err %v)", path, err)
			}
		})
	}
}

// keepReadsFS hands out, and remembers, the buffers ReadFile returns.
type keepReadsFS struct {
	store.FS
	read [][]byte
}

func (f *keepReadsFS) ReadFile(name string) ([]byte, error) {
	b, err := f.FS.ReadFile(name)
	if err == nil {
		f.read = append(f.read, b)
	}
	return b, err
}

// TestRecoveredValuesOwnTheirBytes: what recovery returns shares no byte
// with the files it read — overwriting those buffers leaves every
// recovered key and value as it was journaled. A replayed value is stored
// for the life of the process; one that pointed into its file would pin
// the whole of it.
func TestRecoveredValuesOwnTheirBytes(t *testing.T) {
	mem := store.NewMemFS()
	l, _, err := store.Open(mem, "d", store.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	snap := everyKind(0)
	l.SetSnapshotSource(func() ([]store.Entry, []store.Entry) { return snap[:6], snap[6:] })
	if err := l.Append(snap); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	tail := everyKind(1)
	if err := l.Append(tail); err != nil {
		t.Fatal(err)
	}
	l.Close()

	fs := &keepReadsFS{FS: mem}
	_, rec, err := store.Open(fs, "d", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.read) != 2 {
		t.Fatalf("recovery read %d files, want the snapshot and the WAL", len(fs.read))
	}
	for _, b := range fs.read {
		for i := range b {
			b[i] = 0xa5
		}
	}
	got := append(append(append([]store.Entry(nil), rec.SnapshotItems...), rec.SnapshotTombs...), rec.WAL...)
	want := append(append([]store.Entry(nil), snap...), tail...)
	if len(got) != len(want) {
		t.Fatalf("recovered %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("entry %d recovered as %#v, journaled as %#v", i, got[i], want[i])
		}
	}
}

type untagged struct{ N int }

// TestAppendRefusesUntaggedValue: a value the overlay codec has no tag for
// fails its Append with an error naming its type, sticky like any other
// durability failure, and nothing of it reaches the WAL.
func TestAppendRefusesUntaggedValue(t *testing.T) {
	fs := store.NewMemFS()
	l, _, err := store.Open(fs, "d", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(everyKind(0)); err != nil {
		t.Fatal(err)
	}
	failed := l.Append([]store.Entry{{Op: store.OpInsert, Key: "01", Value: untagged{1}}})
	if failed == nil || !strings.Contains(failed.Error(), "store_test.untagged") {
		t.Fatalf("Append of an untagged value = %v, want an error naming store_test.untagged", failed)
	}
	if err := l.Append(everyKind(1)); !errors.Is(err, failed) || !errors.Is(l.Err(), failed) {
		t.Fatalf("later Append = %v, Err = %v; want the sticky %v", err, l.Err(), failed)
	}
	l.Close()
	if _, rec, err := store.Open(fs, "d", store.Options{}); err != nil || rec.Records != 1 {
		t.Fatalf("reopen: %v, %+v; want the one good record", err, rec)
	}
}
