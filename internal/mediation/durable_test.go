package mediation

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"gridvine/internal/keyspace"
	"gridvine/internal/pgrid"
	"gridvine/internal/schema"
	"gridvine/internal/simnet"
	"gridvine/internal/store"
	"gridvine/internal/triple"
)

// durableTestNetwork is testNetwork with every peer journaling its
// overlay-store mutations to a per-peer directory on fsys.
func durableTestNetwork(t *testing.T, fsys store.FS, peers int, seed int64) (*simnet.Network, []*Peer) {
	t.Helper()
	net := simnet.NewNetwork()
	ov, err := pgrid.Build(net, pgrid.BuildOptions{
		Peers:         peers,
		ReplicaFactor: 2,
		Rng:           rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	out := make([]*Peer, 0, peers)
	for _, n := range ov.Nodes() {
		l, rec, err := store.Open(fsys, peerDir(n.ID()), store.Options{SnapshotEvery: 8})
		if err != nil {
			t.Fatalf("Open %s: %v", n.ID(), err)
		}
		p, err := NewDurablePeer(n, l, rec)
		if err != nil {
			t.Fatalf("NewDurablePeer %s: %v", n.ID(), err)
		}
		out = append(out, p)
	}
	return net, out
}

func peerDir(id simnet.PeerID) string { return filepath.Join("data", string(id)) }

// rebuildPeer constructs the restarted replacement for a crashed peer: a
// fresh node with the victim's identity, path, and routing state, its
// store loaded from the recovered WAL+snapshot, registered on the
// transport in the dead node's place. (Routing state is copied from the
// dead node object as a stand-in for the bootstrap exchange a real
// restart would run; the store comes only from disk.)
func rebuildPeer(t *testing.T, fsys store.FS, net *simnet.Network, old *pgrid.Node) (*Peer, *store.Recovery) {
	t.Helper()
	n := pgrid.NewNode(old.ID(), old.Path(), net, pgrid.Config{})
	for l := 0; l < old.Path().Len(); l++ {
		for _, r := range old.Refs(l) {
			n.AddRef(l, r)
		}
	}
	for _, r := range old.Replicas() {
		n.AddReplica(r)
	}
	l, rec, err := store.Open(fsys, peerDir(old.ID()), store.Options{SnapshotEvery: 8})
	if err != nil {
		t.Fatalf("reopen %s: %v", old.ID(), err)
	}
	p, err := NewDurablePeer(n, l, rec)
	if err != nil {
		t.Fatalf("NewDurablePeer(restart): %v", err)
	}
	net.Register(n.ID(), n)
	return p, rec
}

// TestDurableRestartRejoin is the end-to-end crash/restart scenario: a
// durable peer dies with a torn WAL tail, writes issued during its
// downtime land on its replicas, and the restarted peer (a) recovers
// exactly its pre-crash store from disk — corrupt tail truncated, never
// absorbed — and (b) closes only the downtime gap via one anti-entropy
// round, after which the repaired state is itself durable.
func TestDurableRestartRejoin(t *testing.T) {
	ctx := context.Background()
	fsys := store.NewMemFS()
	net, peers := durableTestNetwork(t, fsys, 12, 5)

	// Bulk load: the victim's WAL+snapshot must cover its whole store.
	load := &Batch{Parallelism: 1}
	for i := 0; i < 40; i++ {
		load.InsertTriple(triple.Triple{
			Subject:   fmt.Sprintf("urn:load%d", i),
			Predicate: fmt.Sprintf("Dur#p%d", i%4),
			Object:    fmt.Sprintf("v%d", i),
		})
	}
	if rcpt, err := peers[0].Write(ctx, load); err != nil || rcpt.Failed > 0 {
		t.Fatalf("bulk load: err=%v failed=%d", err, rcpt.Failed)
	}

	// Victim: any loaded peer with a replica to repair from; keep peers[0]
	// alive as the write issuer.
	var victimIdx int
	for i, p := range peers {
		if i > 0 && p.Node().StoreSize() > 0 && len(p.Node().Replicas()) > 0 {
			victimIdx = i
			break
		}
	}
	if victimIdx == 0 {
		t.Fatal("no suitable victim in overlay")
	}
	victim := peers[victimIdx]
	vID := victim.Node().ID()
	preCrash := victim.Node().ContentDigest()
	net.Fail(vID)

	// Downtime gap: more writes, absorbed by the victim's replicas.
	gap := &Batch{Parallelism: 1}
	for i := 0; i < 60; i++ {
		gap.InsertTriple(triple.Triple{
			Subject:   fmt.Sprintf("urn:gap%d", i),
			Predicate: fmt.Sprintf("Dur#p%d", i%4),
			Object:    fmt.Sprintf("g%d", i),
		})
	}
	if rcpt, err := peers[0].Write(ctx, gap); err != nil || rcpt.Failed > 0 {
		t.Fatalf("gap writes: err=%v failed=%d", err, rcpt.Failed)
	}

	// Torn tail: garbage on the victim's WAL, as a record cut mid-write by
	// power loss would leave.
	f, err := fsys.Append(filepath.Join(peerDir(vID), "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{33, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3})
	f.Close()

	restarted, rec := rebuildPeer(t, fsys, net, victim.Node())
	peers[victimIdx] = restarted
	if rec.TruncatedBytes == 0 {
		t.Fatal("corrupt WAL tail was not truncated")
	}
	if rec.Records == 0 && len(rec.SnapshotItems) == 0 {
		t.Fatalf("recovery replayed nothing: %+v", rec)
	}
	if got := restarted.Node().ContentDigest(); got != preCrash {
		t.Fatalf("recovered store digest %x != pre-crash digest %x", got, preCrash)
	}
	net.Recover(vID)

	// One repair round from the restarted peer must pull exactly the
	// missed writes from its replicas (push-pull: nothing to push).
	stats := restarted.Node().AntiEntropy(ctx)
	if stats.Pulled == 0 {
		t.Fatal("anti-entropy pulled nothing — downtime gap not closed (or gap writes missed the victim's keyspace)")
	}
	converged := replicaGroupsConverged(peers)
	for round := 0; round < 4 && !converged; round++ {
		for _, p := range peers {
			p.Node().AntiEntropy(ctx)
		}
		converged = replicaGroupsConverged(peers)
	}
	if !converged {
		t.Error("replica groups did not converge after restart repair")
		for path, ids := range replicaDigests(peers) {
			t.Logf("group %s: %v", path, ids)
		}
	}
	if err := restarted.LogErr(); err != nil {
		t.Fatalf("restarted peer's log degraded: %v", err)
	}

	// The repaired state must itself be durable: pulled mutations were
	// journaled through the store hooks, so a second restart recovers the
	// post-repair store without any network help.
	postRepair := restarted.Node().ContentDigest()
	net.Fail(vID)
	restarted2, _ := rebuildPeer(t, fsys, net, restarted.Node())
	if got := restarted2.Node().ContentDigest(); got != postRepair {
		t.Fatalf("second restart digest %x != post-repair digest %x", got, postRepair)
	}
	net.Recover(vID)
}

// TestDurablePeerColdStart proves a nil recovery behaves as a plain peer
// and that mutations flowing through the hooks reach the journal.
func TestDurablePeerColdStart(t *testing.T) {
	ctx := context.Background()
	fsys := store.NewMemFS()
	_, peers := durableTestNetwork(t, fsys, 8, 9)

	b := &Batch{Parallelism: 1}
	b.InsertTriple(triple.Triple{Subject: "urn:a", Predicate: "Dur#p", Object: "x"})
	if rcpt, err := peers[0].Write(ctx, b); err != nil || rcpt.Applied != 1 {
		t.Fatalf("write: err=%v applied=%d", err, rcpt.Applied)
	}
	logged := 0
	for _, p := range peers {
		if err := p.LogErr(); err != nil {
			t.Fatalf("peer %s log degraded: %v", p.Node().ID(), err)
		}
		if p.JournalStats().WALBytes > 0 {
			logged++
		}
	}
	if logged == 0 {
		t.Fatal("no peer journaled the insert")
	}
}

// TestTombstoneOnlyDeleteIsJournaled: a delete that arrives before the
// insert it cancels changes no stored value — it only leaves a tombstone —
// and must still reach the journal. The peer crashes before any snapshot,
// restarts from its WAL alone, and a repair response from a replica that
// holds the value (it missed the delete) must not resurrect it.
func TestTombstoneOnlyDeleteIsJournaled(t *testing.T) {
	ctx := context.Background()
	fsys := store.NewMemFS()
	net, peers := durableTestNetwork(t, fsys, 4, 3)
	tr := triple.Triple{Subject: "urn:raced", Predicate: "Dur#p", Object: "x"}
	key := peers[0].tripleKeys(tr)[0]
	var group []*Peer
	for _, p := range peers {
		if p.Node().Responsible(key) {
			group = append(group, p)
		}
	}
	if len(group) != 2 {
		t.Fatalf("%d peers responsible for the subject key, want a replica pair", len(group))
	}
	victim, replica := group[0], group[1]

	// The replica is down for the delete and holds the value afterwards,
	// as if the insert had reached it and the delete had not.
	net.Fail(replica.Node().ID())
	if _, err := victim.DeleteTripleContext(ctx, tr); err != nil {
		t.Fatalf("delete: %v", err)
	}
	net.Recover(replica.Node().ID())
	if err := replica.Node().RestoreState([]store.Entry{{Op: store.OpInsert, Key: key.String(), Value: tr}}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if victim.Node().TombstoneCount() == 0 || len(victim.Node().LocalGet(key)) != 0 {
		t.Fatalf("victim holds %d tombstones and %d values, want a tombstone and nothing stored",
			victim.Node().TombstoneCount(), len(victim.Node().LocalGet(key)))
	}

	net.Fail(victim.Node().ID())
	restarted, rec := rebuildPeer(t, fsys, net, victim.Node())
	net.Recover(victim.Node().ID())
	if len(rec.SnapshotItems)+len(rec.SnapshotTombs) != 0 || rec.Records == 0 {
		t.Fatalf("recovery = %d snapshot entries and %d WAL records, want the WAL alone", len(rec.SnapshotItems)+len(rec.SnapshotTombs), rec.Records)
	}
	if restarted.Node().TombstoneCount() == 0 {
		t.Fatal("the tombstone did not survive the restart")
	}

	stats := restarted.Node().AntiEntropy(ctx)
	if got := restarted.Node().LocalGet(key); len(got) != 0 || restarted.DB().Has(tr) {
		t.Fatalf("repair resurrected the deleted value: store %v, mirror has it: %v (stats %+v)", got, restarted.DB().Has(tr), stats)
	}
	if got := replica.Node().LocalGet(key); len(got) != 0 {
		t.Fatalf("replica still holds %v after the round: the tombstone was not pushed (stats %+v)", got, stats)
	}
}

// TestDurablePeerRestoresEveryStoredKind: a durable peer that holds a
// value of every kind the overlay stores — a triple, a schema, a
// bidirectional and a deprecated mapping, a domain degree, a stats digest
// with its sketches — and a tombstone of each restarts with the same
// store digest and the same tombstones, recovered once from its WAL and
// once from a snapshot.
func TestDurablePeerRestoresEveryStoredKind(t *testing.T) {
	ctx := context.Background()
	fsys := store.NewMemFS()
	net, peers := durableTestNetwork(t, fsys, 4, 3)

	bidi := schema.NewMapping("EMBL", "EMP", schema.Equivalence, schema.Manual,
		[]schema.Correspondence{{SourceAttr: "Organism", TargetAttr: "Species", Confidence: 0.9}})
	bidi.Bidirectional = true
	deprecated := schema.NewMapping("EMP", "SWP", schema.Subsumption, schema.Automatic,
		[]schema.Correspondence{{SourceAttr: "Species", TargetAttr: "Taxon", Confidence: 0.4}})
	deprecated.Deprecated = true
	db := triple.NewDB()
	db.Insert(triple.Triple{Subject: "urn:a", Predicate: "EMBL#Organism", Object: "Aspergillus"})
	kinds := func(tag string) []any {
		return []any{
			triple.Triple{Subject: "urn:" + tag, Predicate: "EMBL#Organism", Object: "Aspergillus " + tag},
			schema.NewSchema("EMBL"+tag, "bio", "Organism"),
			bidi, deprecated,
			DomainDegree{Schema: "EMBL" + tag, InDegree: 1, OutDegree: 2},
			StatsDigest{Origin: tag, Schema: "EMBL", Published: time.Now(), Predicates: db.Stats().Predicates},
		}
	}
	for i, v := range kinds("kept") {
		if _, err := peers[0].Node().Update(ctx, keyspace.HashDefault(fmt.Sprint("kept", i)), v); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range kinds("gone") {
		if _, err := peers[0].Node().Delete(ctx, keyspace.HashDefault(fmt.Sprint("gone", i)), v); err != nil {
			t.Fatal(err)
		}
	}

	type held struct {
		digest uint64
		tombs  []string
	}
	state := func(p *Peer) held {
		_, tombs := p.Node().DumpState()
		h := held{digest: p.Node().ContentDigest()}
		for _, tb := range tombs {
			h.tombs = append(h.tombs, fmt.Sprintf("%s %#v", tb.Key, tb.Value))
		}
		sort.Strings(h.tombs)
		return h
	}
	restartAll := func(how string) {
		for i, p := range peers {
			before := state(p)
			if err := p.journal().Close(); err != nil {
				t.Fatal(err)
			}
			peers[i], _ = rebuildPeer(t, fsys, net, p.Node())
			if after := state(peers[i]); after.digest != before.digest || !reflect.DeepEqual(after.tombs, before.tombs) {
				t.Errorf("%s: peer %s restarted with digest %x and %d tombstones, held %x and %d",
					how, p.Node().ID(), after.digest, len(after.tombs), before.digest, len(before.tombs))
			}
		}
	}
	restartAll("from the WAL")
	for _, p := range peers {
		if err := p.journal().Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	restartAll("from a snapshot")

	items, tombs := map[string]bool{}, map[string]bool{}
	for _, p := range peers {
		p.Node().VisitState(func(e store.Entry) {
			seen, tomb := items, e.Op == store.OpDelete
			if tomb {
				seen = tombs
			}
			seen[fmt.Sprintf("%T", e.Value)] = true
			if m, ok := e.Value.(schema.Mapping); ok && !tomb {
				seen[fmt.Sprintf("bidirectional=%v deprecated=%v", m.Bidirectional, m.Deprecated)] = true
			}
		})
	}
	for _, kind := range []string{"triple.Triple", "schema.Schema", "schema.Mapping", "mediation.DomainDegree", "mediation.StatsDigest"} {
		if !items[kind] || !tombs[kind] {
			t.Errorf("restarted peers hold a %s: %v, a tombstone of one: %v", kind, items[kind], tombs[kind])
		}
	}
	if !items["bidirectional=true deprecated=false"] || !items["bidirectional=false deprecated=true"] {
		t.Errorf("restarted peers lack the bidirectional or the deprecated mapping: %v", items)
	}
}
