package mediation

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"gridvine/internal/pgrid"
	"gridvine/internal/schema"
	"gridvine/internal/triple"
)

// writeWorkload builds a mixed mutation sequence: triple inserts, deletes
// of some already-inserted triples, schema publishes and mapping publishes,
// interleaved pseudo-randomly.
type writeWorkload struct {
	steps []writeStep
}

type writeStep struct {
	kind writeKind
	t    triple.Triple
	s    schema.Schema
	m    schema.Mapping
}

func makeWriteWorkload(n int, seed int64) writeWorkload {
	rng := rand.New(rand.NewSource(seed))
	var w writeWorkload
	var inserted []triple.Triple
	for i := 0; i < n; i++ {
		switch r := rng.Intn(10); {
		case r < 6:
			t := triple.Triple{
				Subject:   fmt.Sprintf("acc:%05d", rng.Intn(n)),
				Predicate: fmt.Sprintf("S%d#attr%d", rng.Intn(4), rng.Intn(3)),
				Object:    fmt.Sprintf("val-%d", rng.Intn(25)),
			}
			inserted = append(inserted, t)
			w.steps = append(w.steps, writeStep{kind: writeInsertTriple, t: t})
		case r < 8 && len(inserted) > 0:
			w.steps = append(w.steps, writeStep{kind: writeDeleteTriple, t: inserted[rng.Intn(len(inserted))]})
		case r < 9:
			w.steps = append(w.steps, writeStep{kind: writePublishSchema,
				s: schema.NewSchema(fmt.Sprintf("S%d", rng.Intn(4)), "bio", "attr0", "attr1", "attr2")})
		default:
			w.steps = append(w.steps, writeStep{kind: writePublishMapping,
				m: testMapping(fmt.Sprintf("S%d", rng.Intn(4)), fmt.Sprintf("S%d", rng.Intn(4)+4),
					"attr0", "attr0")})
		}
	}
	return w
}

// applySerial runs the workload through the legacy per-entry methods.
func (w writeWorkload) applySerial(t *testing.T, p *Peer) {
	t.Helper()
	for _, s := range w.steps {
		var err error
		switch s.kind {
		case writeInsertTriple:
			_, err = p.InsertTripleContext(context.Background(), s.t)
		case writeDeleteTriple:
			_, err = p.DeleteTripleContext(context.Background(), s.t)
		case writePublishSchema:
			_, err = p.InsertSchemaContext(context.Background(), s.s)
		case writePublishMapping:
			_, err = p.InsertMappingContext(context.Background(), s.m)
		}
		if err != nil {
			t.Fatalf("serial step: %v", err)
		}
	}
}

// toBatch lifts the workload into one Batch.
func (w writeWorkload) toBatch(parallelism int) *Batch {
	b := &Batch{Parallelism: parallelism}
	for _, s := range w.steps {
		switch s.kind {
		case writeInsertTriple:
			b.InsertTriple(s.t)
		case writeDeleteTriple:
			b.DeleteTriple(s.t)
		case writePublishSchema:
			b.PublishSchema(s.s)
		case writePublishMapping:
			b.PublishMapping(s.m)
		}
	}
	return b
}

// dbSnapshot collects every peer's relational database, in peer order.
func dbSnapshot(peers []*Peer) [][]triple.Triple {
	out := make([][]triple.Triple, len(peers))
	for i, p := range peers {
		out[i] = p.DB().AllSorted()
	}
	return out
}

// TestWriteMatchesSerial is the batch==serial equivalence property: any
// interleaving of inserts, deletes, schema and mapping publishes must
// leave every peer's database byte-identical whether applied through the
// legacy per-entry loop or one Write — at serial and default parallelism.
func TestWriteMatchesSerial(t *testing.T) {
	for _, parallelism := range []int{1, 0} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("parallelism=%d/seed=%d", parallelism, seed), func(t *testing.T) {
				w := makeWriteWorkload(150, seed)

				_, serialPeers := testNetwork(t, 32, 100+seed)
				w.applySerial(t, serialPeers[0])

				_, batchPeers := testNetwork(t, 32, 100+seed)
				rec, err := batchPeers[0].Write(context.Background(), w.toBatch(parallelism))
				if err != nil {
					t.Fatalf("Write: %v", err)
				}
				if rec.Applied != len(w.steps) {
					t.Fatalf("applied %d of %d entries (failed %d, skipped %d): %v",
						rec.Applied, len(w.steps), rec.Failed, rec.Skipped, rec.FirstErr())
				}
				if got, want := dbSnapshot(batchPeers), dbSnapshot(serialPeers); !reflect.DeepEqual(got, want) {
					t.Error("batched and serial peer databases diverged")
				}
			})
		}
	}
}

// TestWriteShipsFewerMessages: the batched path must cost strictly fewer
// transport messages than the per-entry loop for the same workload.
func TestWriteShipsFewerMessages(t *testing.T) {
	w := makeWriteWorkload(200, 9)

	serialNet, serialPeers := testNetwork(t, 32, 200)
	serialNet.ResetStats()
	w.applySerial(t, serialPeers[0])
	serialMsgs := serialNet.Stats().Messages

	batchNet, batchPeers := testNetwork(t, 32, 200)
	batchNet.ResetStats()
	rec, err := batchPeers[0].Write(context.Background(), w.toBatch(1))
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	batchMsgs := batchNet.Stats().Messages

	if batchMsgs >= serialMsgs {
		t.Errorf("batched write cost %d messages, serial loop %d", batchMsgs, serialMsgs)
	}
	if rec.Groups == 0 || rec.Messages() == 0 {
		t.Errorf("receipt accounting empty: %+v", rec)
	}
	t.Logf("serial %d messages, batched %d (%d groups)", serialMsgs, batchMsgs, rec.Groups)
}

// TestWriteReplaceMapping: publishing a new version of a mapping through a
// batch replaces the stored one under its ID at both keys of a
// bidirectional mapping, and of two versions queued in one batch the later
// one stays.
func TestWriteReplaceMapping(t *testing.T) {
	_, peers := testNetwork(t, 16, 42)
	ctx := context.Background()
	m := testMapping("A", "B", "x", "y")
	if _, err := peers[0].InsertMappingContext(ctx, m); err != nil {
		t.Fatalf("InsertMapping: %v", err)
	}
	retuned := m
	retuned.Confidence = 0.5
	deprecated := retuned
	deprecated.Deprecated = true

	b := &Batch{}
	b.PublishMapping(retuned)
	b.PublishMapping(deprecated)
	rec, err := peers[0].Write(ctx, b)
	if err != nil || rec.FirstErr() != nil {
		t.Fatalf("Write: %v / %v", err, rec.FirstErr())
	}
	for _, key := range []string{"A", "B"} {
		stored, err := peers[3].MappingsAt(ctx, key)
		if err != nil {
			t.Fatalf("MappingsAt(%s): %v", key, err)
		}
		if len(stored) != 1 || !sameMapping(&stored[0], &deprecated) {
			t.Errorf("stored at %s = %+v, want the deprecated version only", key, stored)
		}
	}
}

// TestOneVersionPerMappingID: when peers publish versions of one
// bidirectional mapping one after another — two of them a different
// version each, a third the first version again — every holder of the
// source and of the target key stores exactly one value with the mapping's
// ID, the last one written, and the target side serves its reverse.
func TestOneVersionPerMappingID(t *testing.T) {
	_, peers := testNetwork(t, 16, 44)
	ctx := context.Background()
	m := reversible("A", "B")
	v1, v2 := m, m
	v1.Confidence = 0.6
	v2.Confidence = 0.4
	for i, version := range []schema.Mapping{m, v1, v2, m} {
		if _, err := peers[i].InsertMappingContext(ctx, version); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	for _, name := range []string{m.Source, m.Target} {
		key := peers[0].schemaKey(name)
		holders := 0
		for _, p := range peers {
			if !p.Node().Responsible(key) {
				continue
			}
			holders++
			var versions []schema.Mapping
			for _, v := range p.Node().LocalGet(key) {
				if got, ok := v.(schema.Mapping); ok && got.ID == m.ID {
					versions = append(versions, got)
				}
			}
			if len(versions) != 1 || !sameMapping(&versions[0], &m) {
				t.Errorf("%s stores %d versions of %s under %s's key: %+v, want the last one written", p.Node().ID(), len(versions), m.ID, name, versions)
			}
		}
		if holders == 0 {
			t.Fatalf("no peer holds %s's key", name)
		}
	}
	for _, p := range peers[4:7] {
		checkReversed(t, p, m)
	}
}

// TestSegmentWritesKeepsEqualKeysTogether: over sorted keys with runs of
// equal keys, the segments for 1 to 9 workers concatenate to the input,
// number at most the workers, and never split a run between two of them.
func TestSegmentWritesKeepsEqualKeysTogether(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		var writes []keyWrite
		for k, n := 0, 5+rng.Intn(60); len(writes) < n; k++ {
			for run := 1 + rng.Intn(4); run > 0; run-- {
				writes = append(writes, keyWrite{be: pgrid.BatchEntry{Key: fmt.Sprintf("%07b", k)}, entry: len(writes)})
			}
		}
		for workers := 1; workers <= 9; workers++ {
			segments := segmentWrites(writes, workers)
			if len(segments) > workers {
				t.Fatalf("trial %d: %d segments for %d workers", trial, len(segments), workers)
			}
			var joined []keyWrite
			for i, seg := range segments {
				if i > 0 && seg[0].be.Key == joined[len(joined)-1].be.Key {
					t.Fatalf("trial %d, %d workers: key %s spans segments %d and %d", trial, workers, seg[0].be.Key, i-1, i)
				}
				joined = append(joined, seg...)
			}
			if !reflect.DeepEqual(joined, writes) {
				t.Fatalf("trial %d, %d workers: segments do not concatenate to the input", trial, workers)
			}
		}
	}
}

// TestRepublishedSchemaReplacesItsPredecessor: publishing a schema again
// from another peer leaves one version under its key, the new one — every
// peer reads it, the other values stored at the key survive, and a replica
// that missed the push converges to it in anti-entropy.
func TestRepublishedSchemaReplacesItsPredecessor(t *testing.T) {
	ctx := context.Background()
	net, peers := testNetwork(t, 16, 43)
	key := peers[0].schemaKey("EMBL")
	m := testMapping("EMBL", "EMP", "Organism", "SystematicName")
	degree := DomainDegree{Schema: "EMBL", InDegree: 1, OutDegree: 2}
	b := &Batch{Parallelism: 1}
	b.PublishSchema(schema.NewSchema("EMBL", "bio", "Organism", "Length"))
	b.PublishMapping(m)
	if rec, err := peers[0].Write(ctx, b); err != nil || rec.FirstErr() != nil {
		t.Fatalf("Write: %v / %v", err, rec.FirstErr())
	}
	if _, err := peers[0].Node().Update(ctx, key, degree); err != nil {
		t.Fatalf("Update: %v", err)
	}

	var holders []*Peer
	for _, p := range peers {
		if p.Node().Responsible(key) {
			holders = append(holders, p)
		}
	}
	if len(holders) < 2 {
		t.Fatalf("%d peers hold the schema key, want a replica group", len(holders))
	}
	// schemasAt checks what p stores under the key: want as its only
	// schema, beside the mapping and the degree report.
	schemasAt := func(phase string, p *Peer, want schema.Schema) {
		t.Helper()
		var got []schema.Schema
		others := 0
		for _, v := range p.Node().LocalGet(key) {
			switch v := v.(type) {
			case schema.Schema:
				got = append(got, v)
			case schema.Mapping, DomainDegree:
				if reflect.DeepEqual(v, m) || reflect.DeepEqual(v, degree) {
					others++
				}
			}
		}
		if len(got) != 1 || !reflect.DeepEqual(got[0], want) {
			t.Errorf("%s: %s stores schemas %+v, want only %+v", phase, p.Node().ID(), got, want)
		}
		if others != 2 {
			t.Errorf("%s: %s lost the mapping or the degree report stored beside the schema", phase, p.Node().ID())
		}
	}

	v2 := schema.NewSchema("EMBL", "bio", "Organism", "Taxon")
	if _, err := peers[7].InsertSchemaContext(ctx, v2); err != nil {
		t.Fatalf("republish: %v", err)
	}
	for _, p := range peers {
		got, err := p.LookupSchema(ctx, "EMBL")
		if err != nil || !reflect.DeepEqual(got, v2) {
			t.Errorf("%s reads %+v (%v), want %+v", p.Node().ID(), got, err, v2)
		}
	}
	for _, p := range holders {
		schemasAt("republished", p, v2)
	}

	// One replica is down while the schema changes again.
	missed := holders[len(holders)-1]
	net.Fail(missed.Node().ID())
	v3 := schema.NewSchema("EMBL", "bio", "Organism", "Taxon", "Host")
	if _, err := peers[11].InsertSchemaContext(ctx, v3); err != nil {
		t.Fatalf("republish with a replica down: %v", err)
	}
	net.Recover(missed.Node().ID())
	schemasAt("missed the push", missed, v2)
	for round := 0; round < 4; round++ {
		for _, p := range holders {
			p.Node().AntiEntropy(ctx)
		}
	}
	for _, p := range holders {
		schemasAt("after anti-entropy", p, v3)
	}
}

// TestWriteCancellation: cancelling a Write mid-flight returns ctx.Err(),
// a receipt covering every entry (applied + failed + skipped), and leaks
// no goroutine.
func TestWriteCancellation(t *testing.T) {
	baseline := countGoroutines(t)
	net, peers := testNetwork(t, 32, 7)
	// Batched shipping collapses this workload to a handful of routed
	// groups, a few sequential messages each; 5ms of transit per message
	// makes the whole batch take several times the deadline, so it fires
	// mid-batch.
	net.SetSendDelay(5 * time.Millisecond)

	b := &Batch{Parallelism: 4}
	n := 0
	for i := 0; i < 400; i++ {
		b.InsertTriple(triple.Triple{
			Subject:   fmt.Sprintf("subj-%c%04d", 'a'+i%23, i),
			Predicate: fmt.Sprintf("S%d#p", i%7),
			Object:    fmt.Sprintf("obj-%d", i),
		})
		n++
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	rec, err := peers[0].Write(ctx, b)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if rec == nil {
		t.Fatal("cancelled Write returned no receipt")
	}
	if rec.Applied+rec.Failed+rec.Skipped != n {
		t.Errorf("receipt does not cover the batch: %d+%d+%d != %d", rec.Applied, rec.Failed, rec.Skipped, n)
	}
	if rec.Skipped == 0 {
		t.Error("no entry skipped despite mid-batch cancellation")
	}
	if len(rec.Entries) != n {
		t.Errorf("receipt entries = %d, want %d", len(rec.Entries), n)
	}
	waitNoLeak(t, baseline)
}

// TestWriteConcurrentWriters: disjoint concurrent batches from several
// issuers must all land (exercised under -race in CI).
func TestWriteConcurrentWriters(t *testing.T) {
	_, peers := testNetwork(t, 32, 13)
	const writers = 6
	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			b := &Batch{}
			for i := 0; i < 50; i++ {
				b.InsertTriple(triple.Triple{
					Subject:   fmt.Sprintf("w%d:acc-%03d", wr, i),
					Predicate: fmt.Sprintf("S%d#attr", wr),
					Object:    "v",
				})
			}
			rec, err := peers[wr].Write(context.Background(), b)
			if err != nil {
				t.Errorf("writer %d: %v", wr, err)
				return
			}
			if rec.Applied != 50 {
				t.Errorf("writer %d applied %d of 50: %v", wr, rec.Applied, rec.FirstErr())
			}
		}(wr)
	}
	wg.Wait()

	total := 0
	for _, p := range peers {
		total += p.DB().Len()
	}
	if total == 0 {
		t.Fatal("no triples landed")
	}
	for wr := 0; wr < writers; wr++ {
		q := triple.Pattern{S: triple.Var("s"), P: triple.Const(fmt.Sprintf("S%d#attr", wr)), O: triple.Var("o")}
		rs, err := blockingSearchFor(peers[(wr+1)%writers], q)
		if err != nil {
			t.Fatalf("SearchFor: %v", err)
		}
		if got := len(rs.Triples()); got != 50 {
			t.Errorf("writer %d: %d of 50 triples visible", wr, got)
		}
	}
}

// TestWriteEmptyBatch: an empty batch is a no-op with an empty receipt.
func TestWriteEmptyBatch(t *testing.T) {
	_, peers := testNetwork(t, 8, 3)
	rec, err := peers[0].Write(context.Background(), &Batch{})
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if len(rec.Entries) != 0 || rec.Messages() != 0 {
		t.Errorf("empty batch receipt = %+v", rec)
	}
}

// TestWriteAroundAFailedPeerIsDegraded: a write whose probe had to route
// around a failed peer reports Route.Degraded — in the Receipt and in the
// route a one-write helper returns — as a read does. The issuer's first
// write learns the peer that applied it, so once that peer fails, the next
// probe goes to it first and has to route around it.
func TestWriteAroundAFailedPeerIsDegraded(t *testing.T) {
	s := schema.NewSchema("Deg", "bio", "p")
	for name, write := range map[string]func(*Peer) (pgrid.Route, error){
		"Write": func(p *Peer) (pgrid.Route, error) {
			b := &Batch{Parallelism: 1}
			b.PublishSchema(s)
			rec, err := p.Write(context.Background(), b)
			if err != nil {
				return pgrid.Route{}, err
			}
			return rec.Route, rec.FirstErr()
		},
		"InsertSchemaContext": func(p *Peer) (pgrid.Route, error) {
			return p.InsertSchemaContext(context.Background(), s)
		},
	} {
		net, peers := testNetwork(t, 32, 6)
		var issuer *Peer
		for _, p := range peers {
			if !p.Node().Responsible(p.schemaKey(s.Name)) {
				issuer = p
				break
			}
		}
		route, err := write(issuer)
		if err != nil || route.Degraded {
			t.Fatalf("%s: healthy write: route %+v, err %v", name, route, err)
		}
		net.Fail(route.Contacted[len(route.Contacted)-1])
		route, err = write(issuer)
		if err != nil {
			t.Fatalf("%s: write with a replica down: %v", name, err)
		}
		if !route.Degraded || route.Retries != 0 {
			t.Errorf("%s: route around the failed peer = %+v, want Degraded", name, route)
		}
	}
}

// TestContextWriteVariants: the ctx-taking write variants honour
// cancellation up front.
func TestContextWriteVariants(t *testing.T) {
	_, peers := testNetwork(t, 16, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := triple.Triple{Subject: "s", Predicate: "A#p", Object: "o"}
	if _, err := peers[0].InsertTripleContext(ctx, tr); !errors.Is(err, context.Canceled) {
		t.Errorf("InsertTripleContext on cancelled ctx: %v", err)
	}
	if _, err := peers[0].InsertSchemaContext(ctx, schema.NewSchema("A", "bio", "p")); !errors.Is(err, context.Canceled) {
		t.Errorf("InsertSchemaContext on cancelled ctx: %v", err)
	}
	// And succeed under a live one.
	if _, err := peers[0].InsertTripleContext(context.Background(), tr); err != nil {
		t.Errorf("InsertTripleContext: %v", err)
	}
	if _, err := peers[1].DeleteTripleContext(context.Background(), tr); err != nil {
		t.Errorf("DeleteTripleContext: %v", err)
	}
}
