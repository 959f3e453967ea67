package mediation

import (
	"context"
	"fmt"
	"testing"

	"gridvine/internal/pgrid"
	"gridvine/internal/schema"
	"gridvine/internal/simnet"
	"gridvine/internal/store"
	"gridvine/internal/triple"
)

// crashWrites is the matrix workload: Peer.Write batches mixing triple
// inserts and deletes, a mapping publish and a mapping replace, sized
// so every peer's journal crosses several snapshot thresholds
// (durableTestNetwork snapshots every 8 records).
func crashWrites() []*Batch {
	// The hash is order-preserving, so the leading byte picks the trie
	// quarter: these four spread keys over every replica group.
	lead := []string{"!", "a", "\xa1", "\xe1"}
	tr := func(i int) triple.Triple {
		return triple.Triple{
			Subject:   fmt.Sprintf("%scrash%d", lead[i%4], i),
			Predicate: fmt.Sprintf("Crash#p%d", i%3),
			Object:    fmt.Sprintf("%sv%d", lead[(i+1)%4], i),
		}
	}
	var out []*Batch
	next := 0
	insert := func(b *Batch, n int) {
		for ; n > 0; n-- {
			b.InsertTriple(tr(next))
			next++
		}
	}
	m := testMapping("CrashA", "CrashB", "org", "organism")
	updated := m
	updated.Correspondences = append([]schema.Correspondence(nil), m.Correspondences...)
	updated.Correspondences[0].Confidence = 0.4
	for round := 0; round < 6; round++ {
		b := &Batch{Parallelism: 1}
		insert(b, 10)
		for i := 0; i < 3 && round > 0; i++ {
			b.DeleteTriple(tr(10*(round-1) + 3*i))
		}
		switch round {
		case 1:
			b.PublishMapping(m)
		case 4:
			b.PublishMapping(updated)
		}
		out = append(out, b)
	}
	return out
}

// TestCrashMatrixDurablePeers is the crash matrix for the layer that
// serves traffic: an overlay of NewDurablePeers journaling to one
// FaultFS (one process, as a daemon hosts them) takes Peer.Write
// batches and dies at a sparse sample of I/O boundaries, clean and
// torn. Every peer is then reopened the way a daemon restarts it
// (store.Open + NewDurablePeer on a fresh node) and must satisfy:
// recovery succeeds; the recovered overlay store digests identically to
// a reference node that applied exactly the recovered record prefix (no
// partial record is visible); and that prefix covers every record the
// journal had acked (Log.Seq) before the crash.
func TestCrashMatrixDurablePeers(t *testing.T) {
	const peers, seed = 8, 11
	ctx := context.Background()

	// run opens the journals, arms a crash op I/O operations later (0 =
	// never) and drives the workload until it fires (or to the end),
	// recording per peer every hook invocation — one journal record each —
	// and the acked watermark when the process died.
	type journal struct {
		node    *pgrid.Node
		records [][]store.Entry
		acked   uint64
	}
	setupOps := 0
	run := func(fsys *store.FaultFS, op int, torn bool) []*journal {
		_, ps := durableTestNetwork(t, fsys, peers, seed)
		setupOps = fsys.Ops()
		if op > 0 {
			fsys.CrashAt(op, torn)
		}
		js := make([]*journal, len(ps))
		for i, p := range ps {
			j, p := &journal{node: p.Node()}, p
			js[i] = j
			p.Node().SetStoreHook(func(changes []store.Entry) func() {
				j.records = append(j.records, changes)
				return p.hookStore(changes)
			})
		}
		for i, b := range crashWrites() {
			if fsys.Crashed() {
				break
			}
			// A dead journal does not fail the write: peers keep serving
			// from memory, which is what LogErr reports.
			if _, err := ps[i%len(ps)].Write(ctx, b); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		for i, p := range ps {
			js[i].acked = p.wal.Seq()
		}
		return js
	}

	clean := store.NewFaultFS(1)
	for _, j := range run(clean, 0, false) {
		if j.acked != uint64(len(j.records)) || j.acked < 8 {
			t.Fatalf("clean run: peer %s acked %d of %d records (want all, and past a snapshot)", j.node.ID(), j.acked, len(j.records))
		}
	}
	workloadOps := clean.Ops() - setupOps

	for _, torn := range []bool{false, true} {
		for op := 1; op <= workloadOps; op += 7 {
			name := fmt.Sprintf("torn=%v/op=%d", torn, op)
			fsys := store.NewFaultFS(int64(op))
			js := run(fsys, op, torn)
			if !fsys.Crashed() {
				t.Fatalf("%s: crash never fired", name)
			}

			// Fatal on a failed recovery. A freshly opened log's watermark
			// is the sequence recovery reached.
			_, recovered := durableTestNetwork(t, fsys.CrashedView(), peers, seed)
			for i, j := range js {
				id, seq := j.node.ID(), recovered[i].wal.Seq()
				if seq < j.acked {
					t.Fatalf("%s: peer %s recovered seq %d < acked %d — fsync'd record lost", name, id, seq, j.acked)
				}
				if seq > uint64(len(j.records)) {
					t.Fatalf("%s: peer %s recovered seq %d > %d records written", name, id, seq, len(j.records))
				}
				ref := pgrid.NewNode(id, j.node.Path(), simnet.NewNetwork(), pgrid.Config{})
				for _, rec := range j.records[:seq] {
					if err := ref.RestoreState(nil, nil, rec); err != nil {
						t.Fatal(err)
					}
				}
				if got, want := recovered[i].Node().ContentDigest(), ref.ContentDigest(); got != want {
					t.Fatalf("%s: peer %s recovered digest %x != reference prefix digest %x (seq %d, acked %d)",
						name, id, got, want, seq, j.acked)
				}
			}
		}
	}
}
