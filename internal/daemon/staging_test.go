package daemon

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gridvine/internal/keyspace"
	"gridvine/internal/mediation"
	"gridvine/internal/pgrid"
	"gridvine/internal/simnet"
	"gridvine/internal/tcpnet"
	"gridvine/internal/triple"
)

var echo = simnet.HandlerFunc(func(_ simnet.PeerID, m simnet.Message) (simnet.Message, error) {
	return m, nil
})

// TestStagingLocalDeliveryOpensNoSocket: a message to a peer this daemon
// hosts goes straight to its handler; one to a sibling daemon's peer
// crosses the transport.
func TestStagingLocalDeliveryOpensNoSocket(t *testing.T) {
	sibling := tcpnet.NewTransport()
	defer sibling.Close()
	sibling.Register("theirs", echo)

	tr := tcpnet.NewTransport()
	defer tr.Close()
	tr.AddPeer("theirs", sibling.Addr("theirs"))
	s := &staging{t: tr, handlers: map[simnet.PeerID]simnet.Handler{}, hosted: map[simnet.PeerID]simnet.Handler{}}
	s.Register("mine", echo)
	s.Register("theirs", echo) // pgrid.Build registers every peer of the overlay
	s.host("mine")

	ctx := context.Background()
	resp, err := s.Send(ctx, "theirs", "mine", simnet.Message{Payload: "local"})
	if err != nil || resp.Payload != "local" {
		t.Fatalf("local send: resp = %+v, err = %v", resp, err)
	}
	if msgs, _ := tr.Stats(); msgs != 0 || tr.PoolStats().Dials != 0 || s.local.Load() != 1 {
		t.Fatalf("after a local send: transport messages %d, pool %+v, local %d; want no socket and one local delivery",
			msgs, tr.PoolStats(), s.local.Load())
	}

	resp, err = s.Send(ctx, "mine", "theirs", simnet.Message{Payload: "remote"})
	if err != nil || resp.Payload != "remote" {
		t.Fatalf("remote send: resp = %+v, err = %v", resp, err)
	}
	if msgs, _ := tr.Stats(); msgs != 1 || tr.PoolStats().Dials != 1 || s.local.Load() != 1 {
		t.Fatalf("after a remote send: transport messages %d, pool %+v, local %d; want one dialled exchange",
			msgs, tr.PoolStats(), s.local.Load())
	}
}

// TestStagingAbandonedDeliveryIsDrained: a fired ctx returns the sender
// at once, as on the socket path, but the handler it walked away from
// keeps running; drain waits for it and turns later deliveries away. A
// string payload is not a read (pgrid.ReadOnly), so the delivery takes
// the goroutine path: only there can the sender walk away.
func TestStagingAbandonedDeliveryIsDrained(t *testing.T) {
	s := newStaging(t)
	entered, release := make(chan struct{}), make(chan struct{})
	s.Register("mine", simnet.HandlerFunc(func(_ simnet.PeerID, m simnet.Message) (simnet.Message, error) {
		close(entered)
		<-release
		return m, nil
	}))
	s.host("mine")

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-entered
		cancel()
	}()
	if _, err := s.Send(ctx, "a", "mine", simnet.Message{Payload: "x"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled while the handler is still running", err)
	}

	drained := make(chan struct{})
	go func() {
		s.drain()
		close(drained)
	}()
	select {
	case <-drained:
		t.Fatal("drain returned with a handler still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-drained
	// Draining: the delivery is left to the transport, which knows no
	// address for a peer only ever reached in-process.
	if _, err := s.Send(context.Background(), "a", "mine", simnet.Message{Payload: "x"}); !errors.Is(err, simnet.ErrUnreachable) {
		t.Fatalf("send after drain: err = %v, want ErrUnreachable", err)
	}
}

// readMsg is a message pgrid answers from local state, so staging delivers
// it on the caller's goroutine: the empty message, pgrid's liveness probe.
var readMsg = simnet.Message{}

func newStaging(t *testing.T) *staging {
	t.Helper()
	if !pgrid.ReadOnly(readMsg) {
		t.Fatalf("%+v is no longer a read; pick another", readMsg)
	}
	tr := tcpnet.NewTransport()
	t.Cleanup(tr.Close)
	return &staging{t: tr, handlers: map[simnet.PeerID]simnet.Handler{}, hosted: map[simnet.PeerID]simnet.Handler{}}
}

// TestStagingCancelledSendIsNotDelivered: a send whose ctx fired before it
// started calls no handler and is not counted as a local delivery.
func TestStagingCancelledSendIsNotDelivered(t *testing.T) {
	s := newStaging(t)
	var calls atomic.Int32
	s.Register("mine", simnet.HandlerFunc(func(_ simnet.PeerID, m simnet.Message) (simnet.Message, error) {
		calls.Add(1)
		return m, nil
	}))
	s.host("mine")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, msg := range []simnet.Message{readMsg, {Payload: "x"}} {
		if _, err := s.Send(ctx, "a", "mine", msg); !errors.Is(err, context.Canceled) {
			t.Fatalf("%+v: err = %v, want context.Canceled", msg, err)
		}
	}
	if calls.Load() != 0 || s.local.Load() != 0 {
		t.Fatalf("after cancelled sends: %d handler calls, %d local deliveries; want none", calls.Load(), s.local.Load())
	}
	s.drain() // nothing is left in flight
}

// TestStagingReadRunsOnTheCallersGoroutine: a read starts no goroutine, so
// the handler sees the caller's goroutine count; any other kind runs on a
// goroutine of its own. Each side retries, in case an unrelated goroutine
// starts or exits between the two counts.
func TestStagingReadRunsOnTheCallersGoroutine(t *testing.T) {
	s := newStaging(t)
	var inside int
	s.Register("mine", simnet.HandlerFunc(func(_ simnet.PeerID, m simnet.Message) (simnet.Message, error) {
		inside = runtime.NumGoroutine()
		return m, nil
	}))
	s.host("mine")
	extra := func(msg simnet.Message, want int) bool {
		for i := 0; i < 10; i++ {
			caller := runtime.NumGoroutine()
			if _, err := s.Send(context.Background(), "a", "mine", msg); err != nil {
				t.Fatal(err)
			}
			if inside-caller == want {
				return true
			}
		}
		return false
	}
	if !extra(readMsg, 0) {
		t.Errorf("a read's handler never saw the caller's goroutine count (last %d)", inside)
	}
	if !extra(simnet.Message{Payload: "x"}, 1) {
		t.Errorf("a non-read's handler never saw one goroutine more than the caller (last %d)", inside)
	}
}

// TestStagingDrainWaitsForInlineRead: a read running on its caller's
// goroutine still counts as in flight, so drain waits for it. Its sender's
// ctx firing meanwhile does not cut it short: the sender gets the answer
// once the one handler returns.
func TestStagingDrainWaitsForInlineRead(t *testing.T) {
	s := newStaging(t)
	entered, release := make(chan struct{}), make(chan struct{})
	s.Register("mine", simnet.HandlerFunc(func(_ simnet.PeerID, m simnet.Message) (simnet.Message, error) {
		close(entered)
		<-release
		return simnet.Message{Payload: "answer"}, nil
	}))
	s.host("mine")

	ctx, cancel := context.WithCancel(context.Background())
	type reply struct {
		msg simnet.Message
		err error
	}
	sent := make(chan reply, 1)
	go func() {
		m, err := s.Send(ctx, "a", "mine", readMsg)
		sent <- reply{m, err}
	}()
	<-entered
	cancel()
	drained := make(chan struct{})
	go func() {
		s.drain()
		close(drained)
	}()
	select {
	case <-drained:
		t.Fatal("drain returned with an inline read still in its handler")
	case r := <-sent:
		t.Fatalf("Send returned (%+v) before its inline handler", r)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-drained
	if r := <-sent; r.err != nil || r.msg.Payload != "answer" {
		t.Fatalf("inline read: %+v, want the handler's answer despite the fired ctx", r)
	}
}

// TestStagingReadDeliveryAllocs: an in-process pattern lookup, handler and
// one-row select included, allocates its answer and nothing for the
// delivery itself. It gates in the un-raced test job.
func TestStagingReadDeliveryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime inflates testing.AllocsPerRun")
	}
	d, from, to, msg := capturedLookup(t)
	ctx := context.Background()
	const budget = 3
	got := testing.AllocsPerRun(100, func() {
		if _, err := d.stage.Send(ctx, from, to, msg); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Errorf("in-process pattern lookup: %.1f allocations, budget %d", got, budget)
	}
}

// gate blocks the first delivery that passes through it once armed.
type gate struct {
	armed, taken     atomic.Bool
	entered, release chan struct{}
}

func (g *gate) wrap(h simnet.Handler) simnet.Handler {
	return simnet.HandlerFunc(func(from simnet.PeerID, m simnet.Message) (simnet.Message, error) {
		if g.armed.Load() && g.taken.CompareAndSwap(false, true) {
			close(g.entered)
			<-g.release
		}
		return h.HandleMessage(from, m)
	})
}

// TestShutdownWaitsForLocalDelivery: a write's sender gives up while the
// responsible peer's handler — reached in-process, so no transport knows
// about it — has not applied the mutation yet. Shutdown must wait for
// that handler before the final snapshot: the digests it records have to
// be the ones a restart recovers.
func TestShutdownWaitsForLocalDelivery(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), Peers: 4, ReplicaFactor: 2, Seed: 7, Daemons: 1}
	d, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The issuer is responsible for none of the triple's keys, so the
	// first delivery is the routed write under the caller's ctx, not the
	// issuer's own replication (which no caller can abandon).
	tr := triple.Triple{Subject: "s", Predicate: "Gate#p", Object: "o"}
	var issuer *mediation.Peer
	for _, h := range d.hosted {
		path := h.peer.Node().Path()
		if !path.IsPrefixOf(keyspace.HashDefault(tr.Subject)) &&
			!path.IsPrefixOf(keyspace.HashDefault(tr.Predicate)) &&
			!path.IsPrefixOf(keyspace.HashDefault(tr.Object)) {
			issuer = h.peer
			break
		}
	}
	if issuer == nil {
		t.Fatal("every hosted peer is responsible for one of the triple's keys")
	}

	g := &gate{entered: make(chan struct{}), release: make(chan struct{})}
	d.stage.mu.Lock()
	for id, h := range d.stage.hosted {
		d.stage.hosted[id] = g.wrap(h)
	}
	d.stage.mu.Unlock()
	g.armed.Store(true)

	ctx, cancel := context.WithCancel(context.Background())
	wrote := make(chan error, 1)
	go func() {
		_, err := issuer.InsertTripleContext(ctx, tr)
		wrote <- err
	}()
	<-g.entered
	cancel()
	if err := <-wrote; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned write: err = %v, want context.Canceled", err)
	}

	down := make(chan error, 1)
	go func() { down <- d.Shutdown(context.Background()) }()
	select {
	case err := <-down:
		t.Fatalf("Shutdown returned (%v) with a local delivery still running", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(g.release)
	if err := <-down; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	final := d.FinalDigests()

	restarted, err := Start(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer restarted.Shutdown(context.Background()) //nolint:errcheck
	for id, want := range final {
		if got := restarted.RecoveredDigests()[id]; got != want {
			t.Errorf("%s: recovered digest %#x, shutdown digest %#x — a mutation landed after the final snapshot", id, got, want)
		}
	}
}
