package cluster_test

import (
	"context"
	"fmt"
	"math/rand"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"gridvine/internal/cluster"
	"gridvine/internal/daemon"
	"gridvine/internal/loadgen"
	"gridvine/internal/mediation"
	"gridvine/internal/pgrid"
	"gridvine/internal/simnet"
	"gridvine/internal/triple"
	"gridvine/internal/wire"
)

// buildGridvined compiles the daemon binary once per test run.
func buildGridvined(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gridvined")
	out, err := exec.Command("go", "build", "-o", bin, "gridvine/cmd/gridvined").CombinedOutput()
	if err != nil {
		t.Fatalf("building gridvined: %v\n%s", err, out)
	}
	return bin
}

// sortedRows canonicalizes a streamed answer for comparison.
func sortedRows(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "\x00")
	}
	sort.Strings(out)
	return out
}

// checkWireMatchesInProcess writes the same batches, through the same
// issuing peers, to the running cluster (over wire) and to an in-process
// overlay built from the cluster's (seed, peers, replica factor) — so peer
// IDs, trie paths and replica sets are identical — then requires pattern
// queries to return identical rows from both. The Equiv# namespace is
// disjoint from what loadgen reads and writes, so the concurrent history of
// the load does not enter the answers.
func checkWireMatchesInProcess(t *testing.T, addrs []string, seed int64, peers, replicaFactor int) {
	t.Helper()
	ctx := context.Background()
	ov, err := pgrid.Build(simnet.NewNetwork(), pgrid.BuildOptions{
		Peers:         peers,
		ReplicaFactor: replicaFactor,
		Rng:           rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		t.Fatalf("building reference overlay: %v", err)
	}
	var ref []*mediation.Peer
	for _, n := range ov.Nodes() {
		ref = append(ref, mediation.NewPeer(n))
	}
	clients := make([]*wire.Client, len(addrs))
	for i, a := range addrs {
		if clients[i], err = wire.Dial(a); err != nil {
			t.Fatalf("dial daemon %d: %v", i, err)
		}
		defer clients[i].Close()
	}
	// Peer i is hosted by daemon i mod len(addrs).
	peerID := func(i int) string { return fmt.Sprintf("peer-%03d", i) }

	const batches, perBatch = 4, 10
	for b := 0; b < batches; b++ {
		issuer := (3 * b) % peers
		trs := make([]triple.Triple, perBatch)
		batch := &mediation.Batch{}
		for j := range trs {
			n := b*perBatch + j
			trs[j] = triple.Triple{Subject: fmt.Sprintf("equiv-s%d", n), Predicate: "Equiv#p", Object: fmt.Sprintf("o%d", n%7)}
			batch.InsertTriple(trs[j])
		}
		rec, err := clients[issuer%len(addrs)].Write(ctx, wire.Write{Peer: peerID(issuer), Inserts: trs})
		if err != nil || rec.Applied != perBatch {
			t.Fatalf("wire write via %s: receipt %+v, err %v", peerID(issuer), rec, err)
		}
		if rcpt, err := ref[issuer].Write(ctx, batch); err != nil || rcpt.Applied != perBatch {
			t.Fatalf("reference write via %s: receipt %+v, err %v", peerID(issuer), rcpt, err)
		}
	}

	shapes := []triple.Pattern{
		{S: triple.Var("s"), P: triple.Const("Equiv#p"), O: triple.Var("o")},
		{S: triple.Const("equiv-s7"), P: triple.Const("Equiv#p"), O: triple.Var("o")},
		{S: triple.Var("s"), P: triple.Const("Equiv#p"), O: triple.Const("o4")},
	}
	for issuer := 0; issuer < peers; issuer += 3 {
		for _, pat := range shapes {
			pat := pat
			cur, err := clients[issuer%len(addrs)].Query(ctx, wire.Query{Peer: peerID(issuer), Pattern: &pat})
			if err != nil {
				t.Fatalf("wire query %v via %s: %v", pat, peerID(issuer), err)
			}
			var wireRows [][]string
			for row, ok := cur.Next(ctx); ok; row, ok = cur.Next(ctx) {
				wireRows = append(wireRows, row)
			}
			if err := cur.Close(); err != nil {
				t.Fatalf("wire query %v via %s: %v", pat, peerID(issuer), err)
			}
			rcur, err := ref[issuer].Query(ctx, mediation.Request{Pattern: &pat})
			if err != nil {
				t.Fatalf("in-process query %v via %s: %v", pat, peerID(issuer), err)
			}
			var refRows [][]string
			for row, ok := rcur.Next(ctx); ok; row, ok = rcur.Next(ctx) {
				refRows = append(refRows, append([]string(nil), row.Values...))
			}
			if err := rcur.Close(); err != nil {
				t.Fatalf("in-process query %v via %s: %v", pat, peerID(issuer), err)
			}
			if len(refRows) == 0 {
				t.Errorf("query %v via %s matched nothing in-process — the check is vacuous", pat, peerID(issuer))
			}
			if got, want := sortedRows(wireRows), sortedRows(refRows); !reflect.DeepEqual(got, want) {
				t.Errorf("query %v via %s: %d rows over wire, %d in-process", pat, peerID(issuer), len(got), len(want))
			}
		}
	}
}

// TestClusterDeployLoadRestartStop exercises the whole multi-process
// lifecycle: deploy, generate load over the wire, check wire answers
// against an in-process overlay, SIGTERM+restart one daemon with digest
// verification, drain the cluster.
func TestClusterDeployLoadRestartStop(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	spec := cluster.Spec{
		Dir:           dir,
		BinPath:       buildGridvined(t),
		Daemons:       2,
		Peers:         8,
		ReplicaFactor: 2,
		Seed:          3,
		SnapshotEvery: 32,
	}
	c, err := cluster.Deploy(spec)
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		c.Stop(ctx) //nolint:errcheck
	}()

	addrs, err := c.Addrs()
	if err != nil {
		t.Fatalf("addrs: %v", err)
	}
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		Addrs:       addrs,
		Connections: 16,
		Duration:    time.Second,
		WriteRatio:  0.5,
		Seed:        5,
	})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if res.Ops == 0 || res.Writes == 0 {
		t.Fatalf("load did nothing: %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("load against a healthy cluster errored %d times", res.Errors)
	}
	if res.QPS <= 0 || res.P99Micros <= 0 {
		t.Fatalf("load reported no throughput/latency: %+v", res)
	}

	checkWireMatchesInProcess(t, addrs, spec.Seed, spec.Peers, spec.ReplicaFactor)

	// SIGTERM + restart: the shutdown-recorded digests must be exactly
	// what the restarted process serves.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.StopDaemon(ctx, 1); err != nil {
		t.Fatalf("stop daemon 1: %v", err)
	}
	shutdown, err := daemon.ReadDigestsFile(dir, 1)
	if err != nil {
		t.Fatalf("shutdown digests: %v", err)
	}
	if len(shutdown) == 0 {
		t.Fatal("daemon 1 recorded no shutdown digests")
	}
	if err := c.RestartDaemon(ctx, 1); err != nil {
		t.Fatalf("restart daemon 1: %v", err)
	}
	addr, err := c.Addr(1)
	if err != nil {
		t.Fatalf("addr after restart: %v", err)
	}
	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatalf("dial restarted daemon: %v", err)
	}
	defer cl.Close()
	dump, err := cl.Dump(ctx, "")
	if err != nil {
		t.Fatalf("dump restarted daemon: %v", err)
	}
	if len(dump.Peers) != len(shutdown) {
		t.Fatalf("restarted daemon hosts %d peers, shut down with %d", len(dump.Peers), len(shutdown))
	}
	for _, pd := range dump.Peers {
		if want := shutdown[pd.ID]; pd.Digest != want {
			t.Errorf("%s: restarted digest %#x, shutdown digest %#x", pd.ID, pd.Digest, want)
		}
	}

	// The restarted daemon serves queries again.
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatalf("stats after restart: %v", err)
	}
	if st.Daemon != 1 || st.Draining {
		t.Fatalf("unexpected stats after restart: %+v", st)
	}
}
