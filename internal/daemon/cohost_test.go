package daemon_test

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"gridvine/internal/bioworkload"
	"gridvine/internal/daemon"
	"gridvine/internal/keyspace"
	"gridvine/internal/mediation"
	"gridvine/internal/pgrid"
	"gridvine/internal/simnet"
	"gridvine/internal/triple"
	"gridvine/internal/wire"
)

// startCluster boots n daemons of base's shape and dials a client to each.
func startCluster(t *testing.T, base daemon.Config, n int) ([]*daemon.Daemon, []*wire.Client) {
	t.Helper()
	ds := startDaemons(t, base, n)
	t.Cleanup(func() {
		for _, d := range ds {
			d.Shutdown(context.Background()) //nolint:errcheck
		}
	})
	cls := make([]*wire.Client, n)
	for i, d := range ds {
		cl, err := wire.Dial(d.ClientAddr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() }) //nolint:errcheck
		cls[i] = cl
	}
	return ds, cls
}

// inProcess builds the overlay a cluster of cfg's shape builds, over
// simnet: the same peers on the same paths.
func inProcess(t *testing.T, cfg daemon.Config) []*pgrid.Node {
	t.Helper()
	ov, err := pgrid.Build(simnet.NewNetwork(), pgrid.BuildOptions{
		Peers: cfg.Peers, ReplicaFactor: cfg.ReplicaFactor, Rng: rand.New(rand.NewSource(cfg.Seed)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return ov.Nodes()
}

func overlayStats(t *testing.T, ctx context.Context, cl *wire.Client) wire.OverlayStats {
	t.Helper()
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	return st.Overlay
}

// wireRows runs q over cl and returns its rows, sorted.
func wireRows(t *testing.T, ctx context.Context, cl *wire.Client, q wire.Query) []string {
	t.Helper()
	cur, err := cl.Query(ctx, q)
	if err != nil {
		t.Fatalf("query via %s: %v", q.Peer, err)
	}
	var rows []string
	for {
		row, ok := cur.Next(ctx)
		if !ok {
			break
		}
		rows = append(rows, strings.Join(row, "\x00"))
	}
	if err := cur.Close(); err != nil || cur.Stats().Degraded {
		t.Fatalf("query via %s: degraded=%v, err=%v", q.Peer, cur.Stats().Degraded, err)
	}
	slices.Sort(rows)
	return rows
}

// TestCoHostedReadsStayInTheDaemon: in the benchmark's shape — 16 peers on
// 8 leaves over two daemons, peer i on daemon i % 2 — every leaf has a
// replica on each daemon. Once the corpus is in, lookups and reformulated
// queries from every hosted issuer of both daemons send nothing over the
// transport: every routed operation is an in-process delivery. The answers
// are those of the same overlay in one process.
func TestCoHostedReadsStayInTheDaemon(t *testing.T) {
	cfg := daemon.Config{Dir: t.TempDir(), Peers: 16, ReplicaFactor: 2, Seed: 1, PeerWait: 10 * time.Second}
	ds, cls := startCluster(t, cfg, 2)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	ref := map[string]*mediation.Peer{}
	for _, n := range inProcess(t, cfg) {
		ref[string(n.ID())] = mediation.NewPeer(n)
	}
	bio := bioworkload.Generate(bioworkload.Config{Schemas: 6, Entities: 24, Seed: 5})
	w := wire.Write{Peer: ds[0].PeerIDs()[0], Inserts: bio.Triples(), Mappings: bio.SeedMappings(5)}
	b := &mediation.Batch{}
	for _, s := range bio.Schemas {
		w.Schemas = append(w.Schemas, s.Schema)
		b.PublishSchema(s.Schema)
	}
	for _, tr := range w.Inserts {
		b.InsertTriple(tr)
	}
	for _, m := range w.Mappings {
		b.PublishMapping(m)
	}
	if rec, err := cls[0].Write(ctx, w); err != nil || rec.Applied != b.Len() {
		t.Fatalf("write: receipt %+v, err %v", rec, err)
	}
	if rec, err := ref[w.Peer].Write(ctx, b); err != nil || rec.Applied != b.Len() {
		t.Fatalf("in-process write: receipt %+v, err %v", rec, err)
	}

	var queries []wire.Query
	for _, q := range bio.Queries(8, rand.New(rand.NewSource(9))) {
		for _, reformulate := range []bool{false, true} {
			queries = append(queries, wire.Query{Pattern: &q.Pattern, Reformulate: reformulate})
		}
	}
	// Each query from each hosted issuer; check compares with the
	// in-process overlay.
	sweep := func(check bool) {
		for i, d := range ds {
			for _, issuer := range d.PeerIDs() {
				for _, q := range queries {
					q.Peer = issuer
					got := wireRows(t, ctx, cls[i], q)
					if !check {
						continue
					}
					cur, err := ref[issuer].Query(ctx, mediation.Request{Pattern: q.Pattern, Reformulate: q.Reformulate})
					if err != nil {
						t.Fatal(err)
					}
					var want []string
					for {
						row, ok := cur.Next(ctx)
						if !ok {
							break
						}
						want = append(want, strings.Join(row.Values, "\x00"))
					}
					if err := cur.Close(); err != nil {
						t.Fatal(err)
					}
					slices.Sort(want)
					if !slices.Equal(got, want) {
						t.Errorf("%v (reformulate %v) via %s: %d rows over the wire, %d in-process, or different content",
							*q.Pattern, q.Reformulate, issuer, len(got), len(want))
					}
				}
			}
		}
	}

	sweep(false)
	before := []wire.OverlayStats{overlayStats(t, ctx, cls[0]), overlayStats(t, ctx, cls[1])}
	sweep(true)
	rows := 0
	for _, q := range queries {
		q.Peer = ds[0].PeerIDs()[0]
		rows += len(wireRows(t, ctx, cls[0], q))
	}
	if rows == 0 {
		t.Fatal("the queries answer no rows; the sweep proves nothing")
	}
	for i, cl := range cls {
		after := overlayStats(t, ctx, cl)
		if after.Sends != before[i].Sends || after.LocalDeliveries <= before[i].LocalDeliveries {
			t.Errorf("daemon %d: overlay %+v -> %+v across the sweep; want no transport send and more local deliveries",
				i, before[i], after)
		}
	}
}

// TestKeysWithoutACoHostedReplicaCrossTheTransport: with 8 peers on 4
// leaves over four daemons, daemon 0 hosts a replica of two leaves only.
// A lookup from daemon 0 of a key under one of them never reaches the
// transport — the issuer's own leaf is answered in place, the other by its
// co-hosted peer — and a key under any other leaf does.
func TestKeysWithoutACoHostedReplicaCrossTheTransport(t *testing.T) {
	cfg := daemon.Config{Dir: t.TempDir(), Peers: 8, ReplicaFactor: 2, Seed: 42, PeerWait: 10 * time.Second}
	ds, cls := startCluster(t, cfg, 4)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cl := cls[0]
	issuer := ds[0].PeerIDs()[0]

	nodes := inProcess(t, cfg)
	hosted := map[string]bool{}
	for _, id := range ds[0].PeerIDs() {
		hosted[id] = true
	}
	// leafOf returns the id of a daemon-0 peer responsible for the key, ""
	// when there is none.
	leafOf := func(key keyspace.Key) string {
		for _, n := range nodes {
			if hosted[string(n.ID())] && n.Responsible(key) {
				return string(n.ID())
			}
		}
		return ""
	}

	// The hash preserves order, so subjects led by these bytes fall under
	// leaves 00, 01, 10 and 11; each is written once and then read from
	// daemon 0.
	var subjects []string
	var ins []triple.Triple
	for _, lead := range []byte{0x10, 0x30, 0x50, 0x70, 0x90, 0xb0, 0xd0, 0xf0} {
		s := string([]byte{lead}) + "-cohost"
		subjects = append(subjects, s)
		ins = append(ins, triple.Triple{Subject: s, Predicate: "Cohost#p", Object: "o"})
	}
	if rec, err := cl.Write(ctx, wire.Write{Inserts: ins}); err != nil || rec.Applied != len(ins) {
		t.Fatalf("write: receipt %+v, err %v", rec, err)
	}
	kinds := map[string]int{}
	for _, s := range subjects {
		pat := triple.Pattern{S: triple.Const(s), P: triple.Var("p"), O: triple.Var("o")}
		before := overlayStats(t, ctx, cl)
		if rows := wireRows(t, ctx, cl, wire.Query{Peer: issuer, Pattern: &pat}); len(rows) != 1 {
			t.Errorf("lookup %s: %d rows, want 1", s, len(rows))
		}
		after := overlayStats(t, ctx, cl)
		sent, local := after.Sends-before.Sends, after.LocalDeliveries-before.LocalDeliveries
		kind := "remote"
		switch leafOf(keyspace.HashDefault(s)) {
		case issuer:
			kind = "own"
		case "":
		default:
			kind = "co-hosted"
		}
		kinds[kind]++
		if want := kind == "remote"; (sent > 0) != want || (kind == "co-hosted") != (local > 0) {
			t.Errorf("lookup %s (%s leaf): %d transport sends, %d local deliveries", s, kind, sent, local)
		}
	}
	if kinds["co-hosted"] == 0 || kinds["remote"] == 0 {
		t.Fatalf("subjects fell under leaves %v; want co-hosted and remote ones", kinds)
	}
}
