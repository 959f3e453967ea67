package pgrid

import (
	"context"
	"fmt"
	"testing"

	"gridvine/internal/keyspace"
	"gridvine/internal/simnet"
	"gridvine/internal/store"
	"gridvine/internal/triple"
)

// TestStoreHoldsNoTriple drives triples through every path that writes a
// node's store — routed and replicated batches, a one-entry update, an
// anti-entropy repair after a missed write, a restore from dumped state,
// and a split and a replica sync during construction — and requires that
// n.store never holds one: a stored triple lives in the node's triple
// database only.
func TestStoreHoldsNoTriple(t *testing.T) {
	ctx := context.Background()
	net, ov := testOverlay(t, 8, 2, 3)
	tr := func(i int) triple.Triple {
		return triple.Triple{Subject: fmt.Sprintf("urn:s%d", i), Predicate: "P#p", Object: fmt.Sprintf("o%d", i%3)}
	}
	keys := func(t triple.Triple) []keyspace.Key {
		return []keyspace.Key{keyspace.HashDefault(t.Subject), keyspace.HashDefault(t.Predicate), keyspace.HashDefault(t.Object)}
	}
	issuer := ov.Nodes()[0]
	var entries []BatchEntry
	for i := 0; i < 12; i++ {
		for _, k := range keys(tr(i)) {
			entries = append(entries, BatchEntry{Key: k.String(), Op: OpInsert, Value: tr(i)})
		}
	}
	if _, err := issuer.WriteBatch(ctx, entries); err != nil {
		t.Fatal(err)
	}
	if _, err := issuer.Update(ctx, keys(tr(12))[0], tr(12)); err != nil {
		t.Fatal(err)
	}
	victim := ov.Nodes()[3]
	net.Fail(victim.ID())
	for _, k := range keys(tr(13)) {
		if _, err := issuer.Update(ctx, k, tr(13)); err != nil {
			t.Fatal(err)
		}
	}
	net.Recover(victim.ID())
	victim.AntiEntropy(ctx)

	restored := NewNode("restored", victim.Path(), simnet.NewNetwork(), Config{})
	var items, tombs []store.Entry
	victim.VisitState(func(e store.Entry) {
		if e.Op == store.OpDelete {
			tombs = append(tombs, e)
		} else {
			items = append(items, e)
		}
	})
	if err := restored.RestoreState(items, tombs, nil); err != nil {
		t.Fatal(err)
	}

	a := NewNode("a", keyspace.Key{}, simnet.NewNetwork(), Config{})
	b := NewNode("b", keyspace.Key{}, simnet.NewNetwork(), Config{})
	for i, n := range []*Node{a, b} {
		for j := i; j < 12; j += 2 {
			n.applyBatchLocal([]BatchEntry{{Key: keys(tr(j))[0].String(), Op: OpInsert, Value: tr(j)}}, true)
		}
	}
	meet(a, b, 1)
	c := NewNode("c", a.Path(), simnet.NewNetwork(), Config{})
	c.applyBatchLocal([]BatchEntry{{Key: keys(tr(0))[1].String(), Op: OpInsert, Value: tr(0)}}, false)
	meet(a, c, 1)

	triples := 0
	for _, n := range append(ov.Nodes(), restored, a, b, c) {
		triples += n.DB().Len()
		for k, vs := range n.store {
			for _, v := range vs {
				if _, ok := v.(triple.Triple); ok {
					t.Fatalf("%s holds triple %v in its store under %s", n.ID(), v, k)
				}
			}
		}
	}
	if triples == 0 || restored.ContentDigest() != victim.ContentDigest() {
		t.Fatalf("%d triples stored; restored digest %x, victim %x", triples, restored.ContentDigest(), victim.ContentDigest())
	}
}
