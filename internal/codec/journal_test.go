package codec

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"gridvine/internal/keyspace"
	"gridvine/internal/mediation"
	"gridvine/internal/pgrid"
	"gridvine/internal/schema"
	"gridvine/internal/simnet"
	"gridvine/internal/store"
	"gridvine/internal/triple"
)

var updateJournal = flag.Bool("update-journal", false, "rewrite testdata/journal from the current layout")

// journalFixture is the directory of a committed journal: a snapshot and a
// WAL in the on-disk layout, holding every kind of value a peer stores.
const journalFixture = "testdata/journal"

// storedKinds returns one value of every kind a peer's journal holds —
// triple, schema, mapping, degree report, stats digest with both sketches,
// string and int — distinguished by tag, each under its own key. A triple
// is filed under the keys of its three components, as the overlay stores it.
func storedKinds(tag string) []store.Entry {
	var subjects, objects triple.HLL
	subjects.Add("urn:" + tag)
	objects.Add("Aspergillus " + tag)
	t := triple.Triple{Subject: "urn:" + tag, Predicate: "EMBL#Organism", Object: "Aspergillus " + tag}
	values := []any{
		schema.NewSchema("EMBL"+tag, "bio", "Organism"),
		schema.Mapping{
			ID: "EMBL" + tag + "->EMP", Source: "EMBL" + tag, Target: "EMP", Type: schema.Equivalence, Bidirectional: true,
			Correspondences: []schema.Correspondence{{SourceAttr: "Organism", TargetAttr: "Species", Confidence: 0.9}},
			Origin:          schema.Automatic, Confidence: 0.75,
		},
		mediation.DomainDegree{Schema: "EMBL" + tag, InDegree: 1, OutDegree: 2},
		mediation.StatsDigest{Origin: tag, Schema: "EMBL", Published: time.Unix(1_700_000_000, 5), Predicates: []triple.PredicateStats{{
			Predicate: "EMBL#Organism", Triples: 1, DistinctSubjects: 1, DistinctObjects: 1,
			SubjectSketch: &subjects, ObjectSketch: &objects,
		}}},
		"note " + tag,
		len(tag),
	}
	var out []store.Entry
	for _, s := range []string{t.Subject, t.Predicate, t.Object} {
		out = append(out, store.Entry{Op: store.OpInsert, Key: keyspace.HashDefault(s).String(), Value: t})
	}
	for i, v := range values {
		out = append(out, store.Entry{Op: store.OpInsert, Key: keyspace.HashDefault(fmt.Sprint(tag, i)).String(), Value: v})
	}
	return out
}

// writeJournal writes the fixture's journal into dir: a snapshot of the
// "snap" values and a tombstone of the "tomb" string, then a WAL of two
// records, the "wal" values and the delete of the "wal" string.
func writeJournal(t *testing.T, dir string) {
	l, _, err := store.Open(store.OsFS{}, dir, store.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	tomb := storedKinds("tomb")[7]
	tomb.Op = store.OpDelete
	snap := storedKinds("snap")
	l.SetSnapshotSource(func() (items, tombs []store.Entry) { return snap, []store.Entry{tomb} })
	if err := l.Append(snap); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	wal := storedKinds("wal")
	gone := wal[7]
	gone.Op = store.OpDelete
	for _, rec := range [][]store.Entry{wal, {gone}} {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalFixtureRestores opens the committed journal with store.Open,
// restores a peer from it with NewDurablePeer and compares what the peer
// holds with what was written. The journal spells every value through the
// overlay's tags, so a stored kind whose tag number moved decodes as
// another type, or not at all, and fails here; the same values written
// afresh must also come out byte for byte as committed. Rerun with
// -update-journal only when the on-disk layout is meant to change: data
// directories written before it then no longer open.
func TestJournalFixtureRestores(t *testing.T) {
	if *updateJournal {
		for _, f := range []string{"snapshot.gob", "wal.log"} {
			os.Remove(filepath.Join(journalFixture, f))
		}
		writeJournal(t, journalFixture)
	}
	fresh := t.TempDir()
	writeJournal(t, fresh)
	dir := t.TempDir()
	for _, f := range []string{"snapshot.gob", "wal.log"} {
		committed, err := os.ReadFile(filepath.Join(journalFixture, f))
		if err != nil {
			t.Fatal(err)
		}
		if written, err := os.ReadFile(filepath.Join(fresh, f)); err != nil || !bytes.Equal(written, committed) {
			t.Errorf("%s: the values write %d bytes (%v) unlike the %d committed", f, len(written), err, len(committed))
		}
		if err := os.WriteFile(filepath.Join(dir, f), committed, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	l, rec, err := store.Open(store.OsFS{}, dir, store.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if rec.Records != 2 || len(rec.SnapshotItems) != 9 || len(rec.SnapshotTombs) != 1 || rec.TruncatedBytes != 0 {
		t.Fatalf("recovered %d records, %d snapshot items and %d tombstones, cut %d bytes; want 2, 9, 1, 0",
			rec.Records, len(rec.SnapshotItems), len(rec.SnapshotTombs), rec.TruncatedBytes)
	}
	node := pgrid.NewNode("p", keyspace.Key{}, simnet.NewNetwork(), pgrid.Config{})
	if _, err := mediation.NewDurablePeer(node, l, rec); err != nil {
		t.Fatal(err)
	}

	type held struct {
		key   string
		value any
		tomb  bool
	}
	var want []held
	for _, e := range storedKinds("snap") {
		want = append(want, held{e.Key, e.Value, false})
	}
	wal := storedKinds("wal")
	for i, e := range wal {
		want = append(want, held{e.Key, e.Value, i == 7})
	}
	tomb := storedKinds("tomb")[7]
	want = append(want, held{tomb.Key, tomb.Value, true})
	var got []held
	items, tombs := node.DumpState()
	for _, it := range items {
		got = append(got, held{it.Key, it.Value, false})
	}
	for _, tb := range tombs {
		got = append(got, held{tb.Key, tb.Value, true})
	}
	if len(got) != len(want) {
		t.Errorf("restored %d values and tombstones, wrote %d", len(got), len(want))
	}
	for _, w := range want {
		found := false
		for _, g := range got {
			found = found || reflect.DeepEqual(g, w)
		}
		if !found {
			t.Errorf("restored peer lacks %s %T %#v (tombstone %v)", w.key, w.value, w.value, w.tomb)
		}
	}
}
