package mediation

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"gridvine/internal/keyspace"
	"gridvine/internal/pgrid"
	"gridvine/internal/schema"
	"gridvine/internal/simnet"
	"gridvine/internal/store"
	"gridvine/internal/triple"
)

// TestConcurrentInsertDeleteKeepsStoreAndDBAgreed races an insert and a
// delete of one triple under its subject key, from both replicas of a
// two-peer network, and after every round requires each peer's overlay
// answer for the key to agree with its triple database. When the database
// was a mirror fed by the store hook outside the store lock, the delete's
// mirror could run before the insert's and leave a row the store no longer
// held.
func TestConcurrentInsertDeleteKeepsStoreAndDBAgreed(t *testing.T) {
	ctx := context.Background()
	_, peers := testNetwork(t, 2, 1)
	tr := triple.Triple{Subject: "urn:raced", Predicate: "Race#p", Object: "o"}
	key := keyspace.HashDefault(tr.Subject)
	for round := 0; round < 2000; round++ {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := peers[0].Node().Update(ctx, key, tr); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := peers[1].Node().Delete(ctx, key, tr); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		for _, p := range peers {
			stored := false
			for _, v := range p.Node().LocalGet(key) {
				stored = stored || v == tr
			}
			if has := p.DB().Has(tr); has != stored {
				t.Fatalf("round %d, %s: overlay holds the triple: %v, database: %v", round, p.Node().ID(), stored, has)
			}
		}
	}
}

// TestJournalKeepsApplyOrder forces a delete to apply and journal while the
// insert it follows has applied but not yet reached the store hook, then
// recovers the peer from its journal. The recovered store must be the live
// one: the journal records passes in the order they applied. The gate gives
// the delete a bounded time to overtake, so the test holds whether or not
// the node lets it.
func TestJournalKeepsApplyOrder(t *testing.T) {
	ctx := context.Background()
	fsys := store.NewMemFS()
	_, peers := durableTestNetwork(t, fsys, 2, 1)
	p := peers[0]
	tr := triple.Triple{Subject: "urn:ordered", Predicate: "Order#p", Object: "o"}
	key := keyspace.HashDefault(tr.Subject)

	inserting, deleted := make(chan struct{}), make(chan struct{})
	var gateInsert, markDelete sync.Once
	p.Node().SetStoreHook(func(changes []store.Entry) func() {
		if changes[0].Op == store.OpInsert {
			gateInsert.Do(func() {
				close(inserting)
				select {
				case <-deleted:
				case <-time.After(200 * time.Millisecond):
				}
			})
		}
		wait := p.hookStore(changes)
		if changes[0].Op == store.OpDelete {
			markDelete.Do(func() { close(deleted) })
		}
		return wait
	})

	done := make(chan error, 1)
	go func() {
		_, err := p.Node().Update(ctx, key, tr)
		done <- err
	}()
	<-inserting
	if _, err := p.Node().Delete(ctx, key, tr); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(p.Node().LocalGet(key)) != 0 {
		t.Fatal("the delete applied before the insert it was issued after")
	}

	l, rec, err := store.Open(fsys, peerDir(p.Node().ID()), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	n := pgrid.NewNode(p.Node().ID(), p.Node().Path(), simnet.NewNetwork(), pgrid.Config{})
	recovered, err := NewDurablePeer(n, l, rec)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(recovered.Node().LocalGet(key)); got != 0 || recovered.Node().ContentDigest() != p.Node().ContentDigest() {
		t.Fatalf("recovered store differs from the live one: %d values under the deleted key", got)
	}
}

// pairModel is the per-key view of a network's content that the node's
// derived pairs must reproduce: key → value representation → value.
type pairModel map[string]map[string]any

func valueRepr(v any) string { return fmt.Sprintf("%T\x00%#v", v, v) }

func (m pairModel) add(key keyspace.Key, v any) {
	k := key.String()
	if m[k] == nil {
		m[k] = map[string]any{}
	}
	m[k][valueRepr(v)] = v
}

func (m pairModel) remove(key keyspace.Key, match func(any) bool) {
	for r, v := range m[key.String()] {
		if match(v) {
			delete(m[key.String()], r)
		}
	}
}

// pairHash is the per-pair hash ContentDigest folds: FNV-1a of the key, then
// the value's type and Go syntax.
func pairHash(key string, v any) uint64 {
	h := fnv.New64a()
	io.WriteString(h, key)                // nolint:errcheck
	fmt.Fprintf(h, "\x00%T\x00%#v", v, v) // nolint:errcheck
	return h.Sum64()
}

// TestStoredPairsMatchPerKeyModel runs seeded random interleavings of
// batched triple inserts and deletes, schema publishes, mapping publishes
// that replace the version stored under their ID, a replica missing writes
// and catching up by anti-entropy, and restarts from snapshot + WAL,
// against a model that keeps a value set per key — the store as it was before triples moved into
// the node's triple database. After every step each live peer's LocalGet of
// every key it covers, its StoreSize and its ContentDigest must be the
// model's.
func TestStoredPairsMatchPerKeyModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { checkPairsAgainstModel(t, seed) })
	}
}

func checkPairsAgainstModel(t *testing.T, seed int64) {
	ctx := context.Background()
	fsys := store.NewMemFS()
	net, peers := durableTestNetwork(t, fsys, 8, seed)
	rng := rand.New(rand.NewSource(seed))
	model := pairModel{}
	word := func(prefix string, n int) string { return fmt.Sprintf("%s%d", prefix, rng.Intn(n)) }
	var known []triple.Triple
	mappings := map[string]schema.Mapping{}
	failed := -1
	// Within anti-entropy a tombstone beats the value it deletes, so a value
	// written back after its delete while a replica is down is deleted again
	// when the replica returns. The model does not follow that rule; the
	// interleaving avoids it: a down replica sees only values never removed.
	removed := map[string]bool{}
	forget := func(key keyspace.Key, match func(any) bool) {
		for r, v := range model[key.String()] {
			if match(v) {
				removed[r] = true
			}
		}
		model.remove(key, match)
	}
	fresh := func(v any) bool { return failed < 0 || !removed[valueRepr(v)] }

	write := func(b *Batch) {
		issuer := peers[rng.Intn(len(peers))]
		for issuer.Node().ID() == peerID(peers, failed) {
			issuer = peers[rng.Intn(len(peers))]
		}
		if rcpt, err := issuer.Write(ctx, b); err != nil || rcpt.Applied != b.Len() {
			t.Fatalf("write: err=%v receipt=%+v", err, rcpt)
		}
	}
	check := func(step int, what string) {
		t.Helper()
		for _, p := range peers {
			n := p.Node()
			if n.ID() == peerID(peers, failed) {
				continue
			}
			size, digest := 0, uint64(0)
			for k, vs := range model {
				key := keyspace.MustParseKey(k)
				if !n.Path().IsPrefixOf(key) {
					continue
				}
				got := map[string]bool{}
				for _, v := range n.LocalGet(key) {
					got[valueRepr(v)] = true
				}
				for r, v := range vs {
					if !got[r] {
						t.Fatalf("step %d (%s), %s: %v missing under %s", step, what, n.ID(), v, k)
					}
					size++
					digest ^= pairHash(k, v)
				}
				if len(got) != len(vs) {
					t.Fatalf("step %d (%s), %s: %d values under %s, model has %d", step, what, n.ID(), len(got), k, len(vs))
				}
			}
			if got := n.StoreSize(); got != size {
				t.Fatalf("step %d (%s), %s: StoreSize %d, model %d", step, what, n.ID(), got, size)
			}
			if got := n.ContentDigest(); got != digest {
				t.Fatalf("step %d (%s), %s: ContentDigest %x, model %x", step, what, n.ID(), got, digest)
			}
		}
	}

	for step := 0; step < 120; step++ {
		var what string
		switch r := rng.Intn(10); {
		case r < 5:
			what = "triples"
			b := &Batch{Parallelism: 1 + rng.Intn(3)}
			seen := map[triple.Triple]bool{}
			for i := 1 + rng.Intn(6); i > 0; i-- {
				tr := triple.Triple{Subject: word("urn:s", 12), Predicate: word("M#p", 3), Object: word("v", 8)}
				if rng.Intn(8) == 0 {
					// Subject and object share a key: one pair, not two.
					tr.Object = strings.ToUpper(tr.Subject)
				}
				if rng.Intn(3) == 0 && len(known) > 0 {
					tr = known[rng.Intn(len(known))]
				}
				if seen[tr] {
					continue
				}
				seen[tr] = true
				keys := peers[0].tripleKeys(tr)
				if rng.Intn(3) == 0 {
					b.DeleteTriple(tr)
					removed[valueRepr(tr)] = true
					for _, k := range keys {
						model.remove(k, func(v any) bool { return v == tr })
					}
					continue
				}
				if !fresh(tr) {
					continue
				}
				b.InsertTriple(tr)
				known = append(known, tr)
				for _, k := range keys {
					model.add(k, tr)
				}
			}
			if b.Len() > 0 {
				write(b)
			}
		case r < 6:
			what = "schema"
			s := schema.Schema{Name: word("S", 3), Domain: "bio", Attributes: []string{word("a", 4)}}
			key := peers[0].schemaKey(s.Name)
			if !fresh(s) {
				continue
			}
			forget(key, func(v any) bool { old, ok := v.(schema.Schema); return ok && old.Name == s.Name })
			model.add(key, s)
			b := &Batch{}
			b.PublishSchema(s)
			write(b)
		case r < 7:
			what = "mapping"
			m := schema.Mapping{ID: word("m", 4), Source: word("S", 3), Target: word("S", 3), Type: schema.Equivalence,
				Bidirectional: rng.Intn(2) == 0, Confidence: float64(rng.Intn(4)) / 4,
				Correspondences: []schema.Correspondence{{SourceAttr: word("a", 4), TargetAttr: word("a", 4), Confidence: 1}}}
			if old, ok := mappings[m.ID]; ok {
				// A mapping's keys are fixed when it is created, as its
				// content-hash ID fixes them.
				m.Source, m.Target, m.Bidirectional = old.Source, old.Target, old.Bidirectional
			}
			keys := []keyspace.Key{peers[0].schemaKey(m.Source)}
			if m.Bidirectional {
				keys = append(keys, peers[0].schemaKey(m.Target))
			}
			if !fresh(m) {
				continue
			}
			mappings[m.ID] = m
			for _, k := range keys {
				forget(k, func(v any) bool { old, ok := v.(schema.Mapping); return ok && old.ID == m.ID })
				model.add(k, m)
			}
			b := &Batch{}
			b.PublishMapping(m)
			write(b)
		case r < 8:
			if failed >= 0 {
				what = "anti-entropy"
				net.Recover(peerID(peers, failed))
				failed = -1
				for round := 0; round < 2; round++ {
					for _, p := range peers {
						p.Node().AntiEntropy(ctx)
					}
				}
			} else {
				what = "replica down"
				failed = rng.Intn(len(peers))
				net.Fail(peerID(peers, failed))
			}
		default:
			if failed >= 0 {
				continue
			}
			what = "restart"
			i := rng.Intn(len(peers))
			peers[i], _ = rebuildPeer(t, fsys, net, peers[i].Node())
		}
		check(step, what)
	}
	if len(model) < 20 {
		t.Fatalf("only %d keys written; the interleaving is too narrow", len(model))
	}
}

func peerID(peers []*Peer, i int) simnet.PeerID {
	if i < 0 {
		return ""
	}
	return peers[i].Node().ID()
}
