package wire_test

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"gridvine"
	"gridvine/internal/keyspace"
	"gridvine/internal/triple"
	"gridvine/internal/wire"
)

// settledGoroutines is the goroutine count once timers and finished
// deliveries have had time to unwind.
func settledGoroutines() int {
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	return runtime.NumGoroutine()
}

// waitGoroutines asserts the goroutine count falls to at most want,
// polling briefly to absorb scheduler lag.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	var last int
	for time.Now().Before(deadline) {
		if last = runtime.NumGoroutine(); last <= want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("%d goroutines, want at most %d", last, want)
}

// waitIdleWorkers waits until srv has n workers idle.
func waitIdleWorkers(t *testing.T, srv *wire.Server, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, idle := wire.WorkerCounts(srv)
		if idle == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d workers idle, want %d", idle, n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// remoteIssuer is the ID of a peer of nw responsible for none of the
// given constants' keys, so that a query on them is answered by routed
// operations.
func remoteIssuer(nw *gridvine.Network, constants ...string) string {
	issuer := nw.Peer(0)
	for _, p := range nw.Peers() {
		if !slices.ContainsFunc(constants, func(c string) bool { return p.Node().Responsible(keyspace.HashDefault(c)) }) {
			issuer = p
		}
	}
	return string(issuer.Node().ID())
}

// routedQuery asks nw for the 20 Base#p0 rows of seedTriples(60) through
// a peer that stores none of them.
func routedQuery(nw *gridvine.Network) wire.Query {
	pat := triple.Pattern{S: triple.Var("s"), P: triple.Const("Base#p0"), O: triple.Var("o")}
	return wire.Query{Peer: remoteIssuer(nw, "Base#p0"), Pattern: &pat}
}

// burst sends n copies of q at once, with every overlay send slowed so
// that they overlap, and checks each answer.
func burst(t *testing.T, nw *gridvine.Network, c *wire.Client, q wire.Query, n int) {
	t.Helper()
	nw.Transport().SetSendDelay(5 * time.Millisecond)
	defer nw.Transport().SetSendDelay(0)
	var wg sync.WaitGroup
	rows := make([]int, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			cur, err := c.Query(ctx, q)
			if err != nil {
				errs[i] = err
				return
			}
			for {
				if _, ok := cur.Next(ctx); !ok {
					break
				}
				rows[i]++
			}
			errs[i] = cur.Close()
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil || rows[i] != 20 {
			t.Fatalf("query %d of the burst: %d rows (%v), want 20", i, rows[i], errs[i])
		}
	}
}

// TestWireWorkersStayWarm: once a burst has left GOMAXPROCS workers idle,
// a connection's sequential queries are all served by them, so no request
// starts a goroutine whose stack the engine grows afresh. A Trailer leaves
// before its worker parks, and the client may send its next query in
// between; another idle worker takes that one. With one P there is no
// other, so there the test waits for the park.
func TestWireWorkersStayWarm(t *testing.T) {
	nw := testNetwork(t, seedTriples(60))
	srv, addr := serve(t, nw)
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := routedQuery(nw)
	limit := runtime.GOMAXPROCS(0)
	burst(t, nw, c, q, 64)
	waitIdleWorkers(t, srv, limit)

	before, _ := wire.WorkerCounts(srv)
	for i := 0; i < 200; i++ {
		if rows, _ := drainWire(t, c, q); len(rows) != 20 {
			t.Fatalf("query %d: %d rows, want 20", i, len(rows))
		}
		if limit == 1 {
			waitIdleWorkers(t, srv, 1)
		}
	}
	if after, _ := wire.WorkerCounts(srv); after != before {
		t.Errorf("200 sequential queries started %d workers; want none", after-before)
	}
}

// TestWireWorkersIdleCap: a burst of concurrent queries starts workers
// past GOMAXPROCS, and once it is over at most GOMAXPROCS of them stay
// idle; the rest exit.
func TestWireWorkersIdleCap(t *testing.T) {
	nw := testNetwork(t, seedTriples(60))
	baseline := settledGoroutines()
	srv, addr := serve(t, nw)
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	burst(t, nw, c, routedQuery(nw), 64)

	limit := runtime.GOMAXPROCS(0)
	if spawned, _ := wire.WorkerCounts(srv); spawned <= uint64(limit) {
		t.Fatalf("the burst started %d workers; it never outgrew the idle cap %d", spawned, limit)
	}
	// Left running: the accept loop, the connection's read loops on both
	// sides, and the idle workers.
	waitGoroutines(t, baseline+3+limit)
	if _, idle := wire.WorkerCounts(srv); idle > limit {
		t.Errorf("%d idle workers, want at most GOMAXPROCS = %d", idle, limit)
	}
}
