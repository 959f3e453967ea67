package wire_test

import (
	"context"
	"fmt"
	"net"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"gridvine"
	"gridvine/internal/keyspace"
	"gridvine/internal/mediation"
	"gridvine/internal/schema"
	"gridvine/internal/store"
	"gridvine/internal/triple"
	"gridvine/internal/wire"
)

// testServer hosts every peer of a deterministic in-memory network
// behind a real TCP wire server, pre-loaded with a small triple set.
func testServer(t testing.TB, triples []triple.Triple) (*gridvine.Network, *wire.Server, string) {
	t.Helper()
	nw := testNetwork(t, triples)
	srv, addr := serve(t, nw)
	return nw, srv, addr
}

// testNetwork is testServer's network, pre-loaded and not yet served.
func testNetwork(t testing.TB, triples []triple.Triple) *gridvine.Network {
	t.Helper()
	nw, err := gridvine.NewNetwork(gridvine.Options{Peers: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nw.Close)
	if len(triples) > 0 {
		var b mediation.Batch
		for _, tr := range triples {
			b.InsertTriple(tr)
		}
		rec, err := nw.Peer(0).Write(context.Background(), &b)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Failed != 0 || rec.Skipped != 0 {
			t.Fatalf("seed write: %d failed, %d skipped", rec.Failed, rec.Skipped)
		}
	}
	return nw
}

// serve hosts every peer of nw behind a wire server on a loopback
// listener, shut down when the test ends.
func serve(t testing.TB, nw *gridvine.Network) (*wire.Server, string) {
	t.Helper()
	var hosted []wire.Hosted
	for _, p := range nw.Peers() {
		node := p.Node()
		hosted = append(hosted, wire.Hosted{
			Peer:   p,
			Digest: node.ContentDigest,
		})
	}
	srv := wire.NewServer(0, hosted)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ln.Addr().String()
}

func seedTriples(n int) []triple.Triple {
	out := make([]triple.Triple, 0, n)
	for i := 0; i < n; i++ {
		// 7 subjects against 3 predicates (coprime) so every subject
		// carries every predicate — the conjunctive join is non-empty.
		out = append(out, triple.Triple{
			Subject:   fmt.Sprintf("urn:s%d", i%7),
			Predicate: fmt.Sprintf("Base#p%d", i%3),
			Object:    fmt.Sprintf("o%d", i),
		})
	}
	return out
}

// drainWire collects every row of a wire query, sorted.
func drainWire(t *testing.T, c *wire.Client, q wire.Query) ([][]string, wire.Stats) {
	t.Helper()
	ctx := context.Background()
	cur, err := c.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	for {
		row, ok := cur.Next(ctx)
		if !ok {
			break
		}
		rows = append(rows, row)
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("wire query failed: %v", err)
	}
	sortRows(rows)
	return rows, cur.Stats()
}

// drainInProcess collects every row of the equivalent in-process
// query, sorted.
func drainInProcess(t *testing.T, p *gridvine.Peer, req mediation.Request) [][]string {
	t.Helper()
	ctx := context.Background()
	cur, err := p.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	for {
		row, ok := cur.Next(ctx)
		if !ok {
			break
		}
		rows = append(rows, row.Values)
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("in-process query failed: %v", err)
	}
	sortRows(rows)
	return rows
}

func sortRows(rows [][]string) {
	sort.Slice(rows, func(i, j int) bool {
		return strings.Join(rows[i], "\x00") < strings.Join(rows[j], "\x00")
	})
}

func rowsEqual(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestWireQueryMatchesInProcess is the round-trip property of the
// satellite: for every query shape, the rows a thin client receives
// over the wire are byte-identical to the rows the hosting peer's
// in-process Cursor yields.
func TestWireQueryMatchesInProcess(t *testing.T) {
	nw, _, addr := testServer(t, seedTriples(40))
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	peerID := string(nw.Peer(3).Node().ID())
	pat := triple.Pattern{S: triple.Var("s"), P: triple.Const("Base#p1"), O: triple.Var("o")}
	cases := []struct {
		name string
		q    wire.Query
		req  mediation.Request
	}{
		{
			name: "pattern",
			q:    wire.Query{Peer: peerID, Pattern: &pat},
			req:  mediation.Request{Pattern: &pat},
		},
		{
			name: "pattern-reformulate-limited",
			q:    wire.Query{Peer: peerID, Pattern: &pat, Reformulate: true, Limit: 5},
			req:  mediation.Request{Pattern: &pat, Reformulate: true, Limit: 5},
		},
		{
			name: "conjunctive-rdql",
			q:    wire.Query{Peer: peerID, RDQL: `SELECT ?s, ?o WHERE (?s, <Base#p0>, ?x), (?s, <Base#p1>, ?o)`},
			req:  mediation.Request{RDQL: `SELECT ?s, ?o WHERE (?s, <Base#p0>, ?x), (?s, <Base#p1>, ?o)`},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, stats := drainWire(t, c, tc.q)
			want := drainInProcess(t, nw.Peer(3), tc.req)
			if len(want) == 0 && tc.name != "pattern-reformulate-limited" {
				t.Fatalf("degenerate case: in-process query returned no rows")
			}
			if !rowsEqual(got, want) {
				t.Fatalf("wire rows != in-process rows:\n wire: %v\n proc: %v", got, want)
			}
			if stats.Rows != len(got) {
				t.Fatalf("trailer stats.Rows = %d, streamed %d", stats.Rows, len(got))
			}
		})
	}
}

// TestWireWriteReceipt proves the write path round-trips: a wire batch
// lands (receipt accounts every entry), its rows are queryable over
// the wire, and a follow-up delete removes them.
func TestWireWriteReceipt(t *testing.T) {
	_, _, addr := testServer(t, nil)
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	ts := []triple.Triple{
		{Subject: "urn:w1", Predicate: "W#p", Object: "a"},
		{Subject: "urn:w2", Predicate: "W#p", Object: "b"},
		{Subject: "urn:w3", Predicate: "W#p", Object: "c"},
	}
	rec, err := c.Write(ctx, wire.Write{Inserts: ts})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Applied != len(ts) || rec.Failed != 0 || rec.Skipped != 0 {
		t.Fatalf("receipt = %+v, want %d applied", rec, len(ts))
	}
	if rec.Groups == 0 || rec.Messages == 0 {
		t.Fatalf("receipt carries no shipping stats: %+v", rec)
	}

	pat := triple.Pattern{S: triple.Var("s"), P: triple.Const("W#p"), O: triple.Var("o")}
	rows, _ := drainWire(t, c, wire.Query{Pattern: &pat})
	if len(rows) != len(ts) {
		t.Fatalf("after insert, query returned %d rows, want %d", len(rows), len(ts))
	}

	rec, err = c.Write(ctx, wire.Write{Deletes: ts[:1]})
	if err != nil || rec.Applied != 1 {
		t.Fatalf("delete receipt = %+v, err %v", rec, err)
	}
	rows, _ = drainWire(t, c, wire.Query{Pattern: &pat})
	if len(rows) != len(ts)-1 {
		t.Fatalf("after delete, query returned %d rows, want %d", len(rows), len(ts)-1)
	}
}

// TestWireCancelReleasesServer proves a client Close propagates as a
// Cancel frame that tears down the server-side engine: the daemon's
// active-query gauge returns to zero even though the stream was
// abandoned mid-flight.
func TestWireCancelReleasesServer(t *testing.T) {
	_, _, addr := testServer(t, seedTriples(200))
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	pat := triple.Pattern{S: triple.Var("s"), P: triple.Const("Base#p0"), O: triple.Var("o")}
	cur, err := c.Query(ctx, wire.Query{Pattern: &pat})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cur.Next(ctx); !ok {
		t.Fatalf("no first row: %v", cur.Err())
	}
	cur.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.ActiveQueries == 0 {
			if st.QueriesServed == 0 || len(st.Peers) != 8 {
				t.Fatalf("implausible stats after cancel: %+v", st)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server still reports %d active queries after cursor close", st.ActiveQueries)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWireDumpDigests proves the dump surface reports per-peer content
// digests that match the hosted nodes' own.
func TestWireDumpDigests(t *testing.T) {
	nw, _, addr := testServer(t, seedTriples(40))
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	d, err := c.Dump(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Peers) != nw.NumPeers() {
		t.Fatalf("dump covers %d peers, want %d", len(d.Peers), nw.NumPeers())
	}
	byID := map[string]wire.PeerDump{}
	total := 0
	for _, pd := range d.Peers {
		byID[pd.ID] = pd
		total += pd.Triples
	}
	if total == 0 {
		t.Fatal("dump reports an empty cluster after seeding")
	}
	for _, p := range nw.Peers() {
		pd, ok := byID[string(p.Node().ID())]
		if !ok {
			t.Fatalf("peer %s missing from dump", p.Node().ID())
		}
		if pd.Digest != p.Node().ContentDigest() {
			t.Fatalf("peer %s dump digest %x != node digest %x", pd.ID, pd.Digest, p.Node().ContentDigest())
		}
		if pd.Path != p.Node().Path().String() {
			t.Fatalf("peer %s dump path %q != node path %q", pd.ID, pd.Path, p.Node().Path())
		}
	}
}

// TestWireReportsFailedJournal proves a journal that went sticky is
// visible to an operator: a hosted peer whose log sits on a FaultFS
// crashed mid-write keeps acking writes from memory, and Stats counts
// it while Dump names it and carries the cause.
func TestWireReportsFailedJournal(t *testing.T) {
	nw, _, addr := testServer(t, nil)
	fs := store.NewFaultFS(1)
	l, _, err := store.Open(fs, "peer", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every seedTriples batch of 7+ writes under subject urn:s0, so the
	// peer responsible for that key journals every write below.
	var victim *gridvine.Peer
	for _, p := range nw.Peers() {
		if p.Node().Responsible(keyspace.HashDefault("urn:s0")) {
			victim = p
			break
		}
	}
	victim.AttachLog(l)

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	stats := func() *wire.DaemonStats {
		t.Helper()
		st, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	all := seedTriples(120)
	if _, err := c.Write(ctx, wire.Write{Inserts: all[:60]}); err != nil {
		t.Fatal(err)
	}
	if l.Seq() == 0 {
		t.Fatal("seed write never reached the victim's journal")
	}
	if got := stats().JournalErrs; got != 0 {
		t.Fatalf("healthy cluster reports %d journal errors", got)
	}
	// The journal's own counters ride the same frame: the one attached
	// log is the daemon's sum, before and after a snapshot.
	if st := stats(); st.Journal != (wire.JournalStats{WALBytes: l.Stats().WALBytes}) || st.Journal.WALBytes == 0 {
		t.Fatalf("Stats.Journal = %+v, the log says %+v", st.Journal, l.Stats())
	}
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if st := stats(); st.Journal.Snapshots != 1 || st.Journal.SnapshotBytes != l.Stats().SnapshotBytes || st.Journal.WALBytes != 0 {
		t.Fatalf("after a snapshot Stats.Journal = %+v, the log says %+v", st.Journal, l.Stats())
	}

	fs.CrashAt(1, true)
	rec, err := c.Write(ctx, wire.Write{Inserts: all[60:]})
	if err != nil || rec.Failed != 0 || rec.Skipped != 0 {
		t.Fatalf("write past the journal failure: receipt %+v, err %v — the peer must keep serving from memory", rec, err)
	}
	if !fs.Crashed() {
		t.Fatal("second write never reached the victim's journal")
	}
	if got := stats().JournalErrs; got != 1 {
		t.Fatalf("Stats.JournalErrs = %d, want 1", got)
	}
	d, err := c.Dump(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, pd := range d.Peers {
		failed := pd.ID == string(victim.Node().ID())
		if failed != (pd.JournalErr != "") {
			t.Fatalf("peer %s: JournalErr = %q, failed journal = %v", pd.ID, pd.JournalErr, failed)
		}
		if failed && pd.JournalErr != victim.LogErr().Error() {
			t.Fatalf("peer %s: JournalErr = %q, want %q", pd.ID, pd.JournalErr, victim.LogErr())
		}
	}
}

// TestWireShutdownDrainsInFlight proves Shutdown waits for a running
// stream: rows keep flowing to completion while new requests are
// rejected with a draining trailer. Once the client is gone too, the
// goroutine count is back to its value before the server started: no
// read loop or worker outlives Shutdown.
func TestWireShutdownDrains(t *testing.T) {
	nw := testNetwork(t, seedTriples(120))
	baseline := settledGoroutines()
	srv, addr := serve(t, nw)
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	pat := triple.Pattern{S: triple.Var("s"), P: triple.Const("Base#p2"), O: triple.Var("o")}
	cur, err := c.Query(ctx, wire.Query{Pattern: &pat})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cur.Next(ctx); !ok {
		t.Fatalf("no first row: %v", cur.Err())
	}

	done := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		done <- srv.Shutdown(sctx)
	}()

	// The in-flight stream must drain cleanly while shutdown waits.
	n := 1
	for {
		_, ok := cur.Next(ctx)
		if !ok {
			break
		}
		n++
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("in-flight stream failed during drain: %v", err)
	}
	if n < 2 {
		t.Fatalf("drained only %d rows", n)
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown did not drain cleanly: %v", err)
	}
	c.Close()
	waitGoroutines(t, baseline)
}

// TestWireMaxConns pins the connection cap: the server turns the
// over-cap connection away with a readable error, keeps serving the
// connections already admitted, and frees the slot when an admitted
// connection leaves.
func TestWireMaxConns(t *testing.T) {
	nw, err := gridvine.NewNetwork(gridvine.Options{Peers: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nw.Close)
	var hosted []wire.Hosted
	for _, p := range nw.Peers() {
		hosted = append(hosted, wire.Hosted{Peer: p})
	}
	srv := wire.NewServerOptions(0, hosted, wire.Options{MaxConns: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	addr := ln.Addr().String()
	ctx := context.Background()

	dial := func() *wire.Client {
		t.Helper()
		c, err := wire.Dial(addr)
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		return c
	}
	c1, c2 := dial(), dial()
	defer c1.Close() //nolint:errcheck
	defer c2.Close() //nolint:errcheck
	if _, err := c1.Stats(ctx); err != nil {
		t.Fatalf("first client: %v", err)
	}
	if _, err := c2.Stats(ctx); err != nil {
		t.Fatalf("second client: %v", err)
	}

	// The third connection is over the cap: its first call must fail
	// with the server's stated reason, not a bare EOF.
	c3 := dial()
	defer c3.Close() //nolint:errcheck
	if _, err := c3.Stats(ctx); err == nil || !strings.Contains(err.Error(), "connection limit reached") {
		t.Fatalf("over-cap call error = %v, want connection limit reached", err)
	}

	// The admitted connections keep working, and the rejection shows up
	// in the stats they can still fetch.
	st, err := c1.Stats(ctx)
	if err != nil {
		t.Fatalf("admitted client after rejection: %v", err)
	}
	if st.ConnsRejected < 1 {
		t.Errorf("ConnsRejected = %d, want >= 1", st.ConnsRejected)
	}
	if st.ActiveConns != 2 {
		t.Errorf("ActiveConns = %d, want 2", st.ActiveConns)
	}
	if _, err := c2.Stats(ctx); err != nil {
		t.Fatalf("second admitted client after rejection: %v", err)
	}

	// Releasing an admitted connection frees its slot; the server-side
	// reap is asynchronous, so poll briefly.
	c2.Close() //nolint:errcheck
	deadline := time.Now().Add(5 * time.Second)
	for {
		c4 := dial()
		_, err := c4.Stats(ctx)
		c4.Close() //nolint:errcheck
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed after close: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWireStatsCountTraffic reads DaemonStats.Wire around one query and one
// corrupt frame: every frame either way is counted with its bytes, and a
// connection dropped for a bad frame shows as one.
func TestWireStatsCountTraffic(t *testing.T) {
	_, _, addr := testServer(t, seedTriples(21))
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	before, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	q := wire.Query{Pattern: &triple.Pattern{S: triple.Const("urn:s1"), P: triple.Var("p"), O: triple.Var("o")}}
	if rows, _ := drainWire(t, c, q); len(rows) != 3 {
		t.Fatalf("lookup returned %d rows, want 3", len(rows))
	}

	// A frame whose checksum does not hold, on a connection of its own.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	frame, _ := wire.EncodeFrame(wire.TCancel, &wire.Cancel{ID: 1})
	frame[len(frame)-1] ^= 1
	raw.Write(frame)                                     //nolint:errcheck
	raw.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if n, err := raw.Read(make([]byte, 1)); err == nil {
		t.Fatalf("server answered a corrupt frame with %d bytes instead of hanging up", n)
	}

	after, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, a := before.Wire, after.Wire
	// In: the Query and the second StatsReq (a request is counted before
	// its answer is built). Out: the first DaemonStats (sent after it was
	// built), one RowChunk, the Trailer.
	queryFrame, _ := wire.EncodeFrame(wire.TQuery, &wire.Query{ID: 2, Pattern: q.Pattern})
	if a.FramesIn-b.FramesIn != 2 || a.FramesOut-b.FramesOut != 3 || a.BadFrames-b.BadFrames != 1 {
		t.Fatalf("frames in/out/bad grew by %d/%d/%d, want 2/3/1", a.FramesIn-b.FramesIn, a.FramesOut-b.FramesOut, a.BadFrames-b.BadFrames)
	}
	if in := a.BytesIn - b.BytesIn; in < uint64(len(queryFrame)) || a.BytesOut <= b.BytesOut {
		t.Fatalf("bytes in grew by %d (the Query alone is %d), out %d → %d", in, len(queryFrame), b.BytesOut, a.BytesOut)
	}
}

// chainServer is testServer over a three-schema chain A → B → C with three
// rows under each schema, every overlay send delay long: the root pattern
// answers after one routed operation, the traversal after several more. It
// returns a client, the query and the server's address.
func chainServer(t *testing.T, delay time.Duration) (*wire.Client, wire.Query, string) {
	t.Helper()
	var rows []triple.Triple
	for _, s := range []string{"A", "B", "C"} {
		for i := 0; i < 3; i++ {
			rows = append(rows, triple.Triple{Subject: fmt.Sprintf("urn:%s%d", s, i), Predicate: s + "#org", Object: "aspergillus"})
		}
	}
	nw, _, addr := testServer(t, rows)
	for _, hop := range [][2]string{{"A", "B"}, {"B", "C"}} {
		m := schema.NewMapping(hop[0], hop[1], schema.Equivalence, schema.Manual,
			[]schema.Correspondence{{SourceAttr: "org", TargetAttr: "org", Confidence: 1}})
		if _, err := nw.Peer(0).InsertMappingContext(context.Background(), m); err != nil {
			t.Fatal(err)
		}
	}
	nw.Transport().SetSendDelay(delay)
	t.Cleanup(func() { nw.Transport().SetSendDelay(0) })
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	// The issuer stores none of it (the schema names hash next to each
	// other), so every lookup of the query is a routed one.
	issuer := nw.Peer(0)
	for _, p := range nw.Peers() {
		if !p.Node().Responsible(keyspace.HashDefault("A#org")) {
			issuer = p
		}
	}
	pat := triple.Pattern{S: triple.Var("s"), P: triple.Const("A#org"), O: triple.Var("o")}
	return c, wire.Query{Peer: string(issuer.Node().ID()), Pattern: &pat, Reformulate: true}, addr
}

// TestWireFirstRowLeavesEarly: a RowChunk frame is one engine hand-over, so
// a reformulated query's own rows reach the client when the root pattern
// has answered, not with the last wave's.
func TestWireFirstRowLeavesEarly(t *testing.T) {
	c, q, _ := chainServer(t, 20*time.Millisecond)
	ctx := context.Background()
	start := time.Now()
	cur, err := c.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	var first time.Duration
	for {
		if _, ok := cur.Next(ctx); !ok {
			break
		}
		if rows++; rows == 1 {
			first = time.Since(start)
		}
	}
	elapsed := time.Since(start)
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if rows != 9 || cur.Stats().Rows != 9 {
		t.Fatalf("%d rows, trailer says %d; want the 9 of the three schemas", rows, cur.Stats().Rows)
	}
	if first >= elapsed/2 {
		t.Errorf("first row after %v of a %v query: the root schema's rows waited for the traversal", first, elapsed)
	}
}

// TestWireCancelInsideAChunk: a client that reads one row of the first
// hand-over and closes stops the engine between waves; the server streams
// no further chunk and its trailer counts what it had handed over.
func TestWireCancelInsideAChunk(t *testing.T) {
	c, q, _ := chainServer(t, 20*time.Millisecond)
	ctx := context.Background()
	before, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := c.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cur.Next(ctx); !ok {
		t.Fatalf("no first row: %v", cur.Err())
	}
	cur.Close()
	after, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if streamed := after.RowsStreamed - before.RowsStreamed; streamed != 3 || cur.Stats().Rows != 3 {
		t.Errorf("%d rows streamed, trailer says %d; want the root schema's 3 and nothing after the cancel", streamed, cur.Stats().Rows)
	}
}

// TestWireConnectionLossCancels: a client that drops its connection while
// the engine waits on the overlay cancels the engine there, not when it
// next hands rows to the dead socket.
func TestWireConnectionLossCancels(t *testing.T) {
	const delay = 300 * time.Millisecond
	c, q, addr := chainServer(t, delay)
	watcher, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()
	ctx := context.Background()
	cur, err := c.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cur.Next(ctx); !ok {
		t.Fatalf("no first row: %v", cur.Err())
	}
	// The root's rows are out; the engine now waits on a mapping lookup.
	c.Close()
	dropped := time.Now()
	for {
		st, err := watcher.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.ActiveQueries == 0 {
			return
		}
		if since := time.Since(dropped); since > delay/2 {
			t.Fatalf("engine still running %v after its connection dropped", since)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWireLimitInsideAChunk: a limit that falls inside a hand-over ends the
// stream there, and the frame counter, the trailer and the daemon's row
// counter agree on it.
func TestWireLimitInsideAChunk(t *testing.T) {
	_, _, addr := testServer(t, seedTriples(600))
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	pat := triple.Pattern{S: triple.Var("s"), P: triple.Const("Base#p0"), O: triple.Var("o")}
	for _, tc := range []struct{ limit, rows, chunks int }{{5, 5, 1}, {130, 130, 2}, {0, 200, 2}} {
		before, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		rows, stats := drainWire(t, c, wire.Query{Pattern: &pat, Limit: tc.limit})
		after, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		// Out: the DaemonStats answering before, the chunks, the trailer.
		chunks := int(after.Wire.FramesOut-before.Wire.FramesOut) - 2
		if len(rows) != tc.rows || stats.Rows != tc.rows || int(after.RowsStreamed-before.RowsStreamed) != tc.rows || chunks != tc.chunks {
			t.Errorf("limit %d: %d rows in %d chunks, trailer %d, daemon %d; want %d in %d", tc.limit,
				len(rows), chunks, stats.Rows, after.RowsStreamed-before.RowsStreamed, tc.rows, tc.chunks)
		}
	}
}

// TestWireColumnsOnEveryAnswer: the trailer names the output columns even
// when no row, and so no RowChunk, was sent.
func TestWireColumnsOnEveryAnswer(t *testing.T) {
	_, _, addr := testServer(t, seedTriples(20))
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	none := triple.Pattern{S: triple.Var("s"), P: triple.Const("Base#p1"), O: triple.Const("no-such-object")}
	some := triple.Pattern{S: triple.Var("s"), P: triple.Const("Base#p1"), O: triple.Var("o")}
	for _, tc := range []struct {
		name string
		q    wire.Query
		rows bool
		cols []string
	}{
		{"pattern, rows", wire.Query{Pattern: &some}, true, []string{"s", "o"}},
		{"pattern, no rows", wire.Query{Pattern: &none}, false, []string{"s"}},
		{"rdql, no rows", wire.Query{RDQL: `SELECT ?o WHERE (?s, <Base#p0>, "no-such-object"), (?s, <Base#p1>, ?o)`}, false, []string{"o"}},
	} {
		cur, err := c.Query(context.Background(), tc.q)
		if err != nil {
			t.Fatal(err)
		}
		_, ok := cur.Next(context.Background())
		if ok != tc.rows || !slices.Equal(cur.Columns(), tc.cols) {
			t.Errorf("%s: first row %v, columns %q; want %v, %q", tc.name, ok, cur.Columns(), tc.rows, tc.cols)
		}
		if err := cur.Close(); err != nil || !slices.Equal(cur.Columns(), tc.cols) {
			t.Errorf("%s: Close %v, columns %q after the trailer", tc.name, err, cur.Columns())
		}
	}
}
