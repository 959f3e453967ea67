package daemon_test

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"gridvine/internal/daemon"
	"gridvine/internal/triple"
	"gridvine/internal/wire"
)

// countGoroutines samples the goroutine count after letting short-lived
// workers drain.
func countGoroutines(t *testing.T) int {
	t.Helper()
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	return runtime.NumGoroutine()
}

// waitNoLeak asserts the goroutine count returns to (at most) the
// baseline, polling briefly to absorb scheduler lag.
func waitNoLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var last int
	for time.Now().Before(deadline) {
		last = runtime.NumGoroutine()
		if last <= baseline {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: baseline %d, now %d", baseline, last)
}

// drainRows reads cur to its end and returns the number of rows.
func drainRows(ctx context.Context, cur *wire.Cursor) int {
	rows := 0
	for {
		if _, ok := cur.Next(ctx); !ok {
			return rows
		}
		rows++
	}
}

// startDaemons boots n daemons of base's shape concurrently (each Start
// blocks on the others' address files).
func startDaemons(t *testing.T, base daemon.Config, n int) []*daemon.Daemon {
	t.Helper()
	ds := make([]*daemon.Daemon, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range ds {
		cfg := base
		cfg.Index, cfg.Daemons = i, n
		wg.Add(1)
		go func(i int) { defer wg.Done(); ds[i], errs[i] = daemon.Start(cfg) }(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("start daemon %d: %v", i, err)
		}
	}
	return ds
}

// loadWorker hammers one daemon address with writes and streamed
// queries until stop closes, re-dialling through daemon restarts.
// Every write the daemon acknowledged (receipt, no error) increments
// acked.
func loadWorker(wg *sync.WaitGroup, stop chan struct{}, addr string, id int, acked *atomic.Int64) {
	defer wg.Done()
	var cl *wire.Client
	defer func() {
		if cl != nil {
			cl.Close()
		}
	}()
	pat := triple.Pattern{S: triple.Var("s"), P: triple.Const("Load#p"), O: triple.Var("o")}
	for seq := 0; ; seq++ {
		select {
		case <-stop:
			return
		default:
		}
		if cl == nil {
			c, err := wire.Dial(addr)
			if err != nil {
				time.Sleep(20 * time.Millisecond)
				continue
			}
			cl = c
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		rec, err := cl.Write(ctx, wire.Write{Inserts: []triple.Triple{{
			Subject:   fmt.Sprintf("w%d-s%d", id, seq),
			Predicate: "Load#p",
			Object:    fmt.Sprintf("v%d", seq),
		}}})
		if err != nil {
			cancel()
			cl.Close()
			cl = nil
			continue
		}
		if rec.Applied > 0 {
			acked.Add(1)
		}
		if seq%5 == 0 {
			cur, err := cl.Query(ctx, wire.Query{Pattern: &pat, Limit: 32})
			if err == nil {
				drainRows(ctx, cur)
				cur.Close()
			} else {
				cl.Close()
				cl = nil
			}
		}
		cancel()
	}
}

// firstQueryNotDegraded issues one query through the daemon at addr and
// requires a complete, un-Degraded answer.
func firstQueryNotDegraded(t *testing.T, cycle int, addr string) {
	t.Helper()
	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatalf("cycle %d: dial daemon 0: %v", cycle, err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	pat := triple.Pattern{S: triple.Var("s"), P: triple.Const("Load#p"), O: triple.Var("o")}
	cur, err := cl.Query(ctx, wire.Query{Pattern: &pat, Limit: 32})
	if err != nil {
		t.Fatalf("cycle %d: query after restart: %v", cycle, err)
	}
	drainRows(ctx, cur)
	if err := cur.Close(); err != nil || cur.Stats().Degraded {
		t.Errorf("cycle %d: first query after the restart: degraded=%v, err=%v", cycle, cur.Stats().Degraded, err)
	}
}

// TestDaemonSigtermCycleUnderLoad cycles one daemon of a live cluster
// through the gridvined signal path — real SIGTERM delivery, drain,
// final snapshot, restart — while clients keep writing and streaming
// against both daemons. After every cycle the restarted daemon's
// recovered store digests must equal the digests captured at shutdown
// (no acknowledged write lost, nothing invented — with half of all hops
// delivered in-process, that includes the local deliveries in flight at
// Shutdown), the first query through the surviving daemon must answer
// un-Degraded, and once the load stops the process must return to its goroutine baseline (nothing
// leaked by the drain/restart machinery). Run with -race.
func TestDaemonSigtermCycleUnderLoad(t *testing.T) {
	// Install the signal handler before sampling the baseline: the
	// runtime's signal-watcher goroutine starts lazily on the first
	// Notify and (by design) never exits.
	sigch := make(chan os.Signal, 1)
	signal.Notify(sigch, syscall.SIGTERM)
	defer signal.Stop(sigch)

	baseline := countGoroutines(t)
	dir := t.TempDir()
	base := daemon.Config{
		Dir:           dir,
		Daemons:       2,
		Peers:         8,
		ReplicaFactor: 2,
		Seed:          42,
		SnapshotEvery: 64,
		PeerWait:      10 * time.Second,
	}
	ds := startDaemons(t, base, 2)
	d0, d1 := ds[0], ds[1]
	cfg1 := base
	cfg1.Index = 1

	stop := make(chan struct{})
	var workers sync.WaitGroup
	var acked atomic.Int64
	for w := 0; w < 2; w++ {
		workers.Add(1)
		go loadWorker(&workers, stop, d0.ClientAddr(), w, &acked)
	}
	// This worker targets the daemon being cycled; address reuse keeps
	// the address valid across restarts, the worker re-dials through
	// the downtime.
	workers.Add(1)
	go loadWorker(&workers, stop, d1.ClientAddr(), 2, &acked)

	for cycle := 0; cycle < 3; cycle++ {
		time.Sleep(200 * time.Millisecond) // let traffic build up

		// The gridvined main loop in miniature: deliver a real SIGTERM
		// to this process, then drain on receipt.
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatalf("cycle %d: kill: %v", cycle, err)
		}
		<-sigch
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		err := d1.Shutdown(ctx)
		cancel()
		if err != nil {
			t.Fatalf("cycle %d: shutdown: %v", cycle, err)
		}
		final := d1.FinalDigests()
		if len(final) == 0 {
			t.Fatalf("cycle %d: no final digests recorded", cycle)
		}

		restarted, err := daemon.Start(cfg1)
		if err != nil {
			t.Fatalf("cycle %d: restart: %v", cycle, err)
		}
		recovered := restarted.RecoveredDigests()
		if len(recovered) != len(final) {
			t.Fatalf("cycle %d: recovered %d peers, shut down with %d", cycle, len(recovered), len(final))
		}
		for id, want := range final {
			if got := recovered[id]; got != want {
				t.Errorf("cycle %d: %s: recovered digest %#x, shutdown digest %#x — acked state lost or invented",
					cycle, id, got, want)
			}
		}
		d1 = restarted

		// Daemon 0 spent the downtime failing to reach daemon 1 and may
		// still hold connections to its old listeners. The first query
		// after the restart must be served whole all the same.
		firstQueryNotDegraded(t, cycle, d0.ClientAddr())
	}

	close(stop)
	workers.Wait()
	if err := d0.Shutdown(context.Background()); err != nil {
		t.Fatalf("final shutdown daemon 0: %v", err)
	}
	if err := d1.Shutdown(context.Background()); err != nil {
		t.Fatalf("final shutdown daemon 1: %v", err)
	}
	if acked.Load() == 0 {
		t.Fatal("load generated no acknowledged writes — test exercised nothing")
	}
	waitNoLeak(t, baseline)
}

// TestRestartedSiblingIsRedialled: daemon 0 holds pooled connections to
// daemon 1's peers when daemon 1 restarts on the same ports. Every one of
// them is dead, and the first exchanges to find that out must not show it:
// a stale pooled connection is redialled, not surfaced as an unreachable
// peer. Every leaf has a replica on each daemon, so daemon 0's reads never
// leave it; its writes do — each one is pushed to the leaf's replica on
// daemon 1 before it is acknowledged. A push lost to a stale connection
// would leave that replica without the write, so daemon 1's own peers
// reading it back is the check. Messages between daemon 0's own peers never
// reach the transport, so every transport send counted there crossed to
// daemon 1.
func TestRestartedSiblingIsRedialled(t *testing.T) {
	base := daemon.Config{
		Dir:           t.TempDir(),
		Daemons:       2,
		Peers:         8,
		ReplicaFactor: 2,
		Seed:          42,
		PeerWait:      10 * time.Second,
	}
	ds := startDaemons(t, base, 2)
	d0, d1 := ds[0], ds[1]
	cfg1 := base
	cfg1.Index = 1
	defer func() {
		d0.Shutdown(context.Background()) //nolint:errcheck
		d1.Shutdown(context.Background()) //nolint:errcheck
	}()
	cl, err := wire.Dial(d0.ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// The hash preserves order, so subjects led by these spread over the
	// trie. Each issuer writes its own.
	leads := []string{"0", "9", "A", "Z", "a", "m", "z", "~"}
	write := func(phase string, issuers []string) []string {
		var subjects []string
		for _, issuer := range issuers {
			var ins []triple.Triple
			for _, l := range leads {
				s := fmt.Sprintf("%s-%s-%s", l, phase, issuer)
				subjects = append(subjects, s)
				ins = append(ins, triple.Triple{Subject: s, Predicate: "Redial#p", Object: "o-" + s})
			}
			if rec, err := cl.Write(ctx, wire.Write{Peer: issuer, Inserts: ins}); err != nil || rec.Applied != len(ins) {
				t.Fatalf("%s: write from %s: receipt %+v, err %v", phase, issuer, rec, err)
			}
		}
		return subjects
	}
	// Each subject from each issuer; any flaw in an answer fails the test.
	sweep := func(c *wire.Client, phase string, issuers, subjects []string) {
		for _, issuer := range issuers {
			for _, s := range subjects {
				pat := triple.Pattern{S: triple.Const(s), P: triple.Var("p"), O: triple.Var("o")}
				cur, err := c.Query(ctx, wire.Query{Peer: issuer, Pattern: &pat})
				if err != nil {
					t.Fatalf("%s: query %s from %s: %v", phase, s, issuer, err)
				}
				rows := drainRows(ctx, cur)
				if err := cur.Close(); err != nil || rows != 1 || cur.Stats().Degraded {
					t.Errorf("%s: query %s from %s: %d rows, degraded=%v, err=%v; want 1 row, not degraded",
						phase, s, issuer, rows, cur.Stats().Degraded, err)
				}
			}
		}
	}
	overlay := func() wire.OverlayStats {
		st, err := cl.Stats(ctx)
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		return st.Overlay
	}

	warmSubjects := write("warm", d0.PeerIDs()[:1])
	sweep(cl, "warm-up", d0.PeerIDs(), warmSubjects)
	warm := overlay()
	if warm.PoolIdle == 0 || warm.LocalDeliveries == 0 || warm.Sends == 0 {
		t.Fatalf("after the warm-up daemon 0 reports %+v; want pooled connections to daemon 1, local deliveries and transport sends", warm)
	}

	if err := d1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown daemon 1: %v", err)
	}
	if d1, err = daemon.Start(cfg1); err != nil {
		t.Fatalf("restart daemon 1: %v", err)
	}

	fresh := write("after", d0.PeerIDs())
	after := overlay()
	if after.Sends == warm.Sends || after.PoolRedials == warm.PoolRedials {
		t.Errorf("overlay stats %+v -> %+v across the restart: the writes met no stale connection, so they proved nothing", warm, after)
	}
	sweep(cl, "after the restart", d0.PeerIDs(), append(warmSubjects, fresh...))
	cl1, err := wire.Dial(d1.ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl1.Close()
	sweep(cl1, "daemon 1's replicas", d1.PeerIDs(), fresh)
}

// TestDaemonColdStartServesAndDumps pins the basic single-daemon
// lifecycle: cold start, wire round-trip, digest-visible dump, clean
// shutdown with final digests.
func TestDaemonColdStartServesAndDumps(t *testing.T) {
	d, err := daemon.Start(daemon.Config{
		Dir:     t.TempDir(),
		Peers:   4,
		Seed:    7,
		Daemons: 1,
	})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	if got := len(d.PeerIDs()); got != 4 {
		t.Fatalf("single daemon should host all 4 peers, hosts %d", got)
	}
	cl, err := wire.Dial(d.ClientAddr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	ctx := context.Background()
	rec, err := cl.Write(ctx, wire.Write{Inserts: []triple.Triple{
		{Subject: "s1", Predicate: "Bench#p", Object: "o1"},
		{Subject: "s2", Predicate: "Bench#p", Object: "o2"},
	}})
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if rec.Applied != 2 {
		t.Fatalf("applied %d of 2", rec.Applied)
	}
	pat := triple.Pattern{S: triple.Var("s"), P: triple.Const("Bench#p"), O: triple.Var("o")}
	cur, err := cl.Query(ctx, wire.Query{Pattern: &pat})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	rows := drainRows(ctx, cur)
	if err := cur.Close(); err != nil {
		t.Fatalf("cursor: %v", err)
	}
	if rows != 2 {
		t.Fatalf("queried %d rows, want 2", rows)
	}
	dump, err := cl.Dump(ctx, "")
	if err != nil {
		t.Fatalf("dump: %v", err)
	}
	if len(dump.Peers) != 4 {
		t.Fatalf("dump covers %d peers, want 4", len(dump.Peers))
	}
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if len(d.FinalDigests()) != 4 {
		t.Fatalf("final digests cover %d peers, want 4", len(d.FinalDigests()))
	}
}
