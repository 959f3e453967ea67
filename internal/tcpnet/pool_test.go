package tcpnet

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridvine/internal/simnet"
)

var echo = simnet.HandlerFunc(func(_ simnet.PeerID, m simnet.Message) (simnet.Message, error) {
	return m, nil
})

// TestCancelledExchangeIsNotPooled: the reply to a cancelled request
// arrives late, on a connection nobody reads any more. Had that
// connection been pooled, the next Send would take the late reply for
// its own.
func TestCancelledExchangeIsNotPooled(t *testing.T) {
	tr := NewTransport()
	defer tr.Close()
	entered := make(chan struct{})
	release := make(chan struct{})
	tr.Register("p", simnet.HandlerFunc(func(_ simnet.PeerID, m simnet.Message) (simnet.Message, error) {
		if m.Type == "slow" {
			close(entered)
			<-release
		}
		return simnet.Message{Type: "re:" + m.Type}, nil
	}))
	// Pool one connection, so the slow request travels on a reused one.
	if _, err := tr.Send(context.Background(), "a", "p", simnet.Message{Type: "warm"}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-entered
		cancel()
	}()
	if _, err := tr.Send(ctx, "a", "p", simnet.Message{Type: "slow"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled send: err = %v, want context.Canceled", err)
	}
	if ps := tr.PoolStats(); ps.Idle != 0 {
		t.Fatalf("pool after a cancelled exchange = %+v, want nothing idle", ps)
	}
	close(release) // the late reply goes out now
	for i := 0; i < 3; i++ {
		resp, err := tr.Send(context.Background(), "a", "p", simnet.Message{Type: "fast"})
		if err != nil || resp.Type != "re:fast" {
			t.Fatalf("send %d after the cancelled one: resp = %+v, err = %v; want its own reply", i, resp, err)
		}
	}
}

// TestReplyAfterContextFiredIsNotPooled: ctx fires while the reply is on
// its way. Whether the reply or the slammed deadline wins, the deadline
// may still land on the socket afterwards, so the connection is spent.
func TestReplyAfterContextFiredIsNotPooled(t *testing.T) {
	tr := NewTransport()
	defer tr.Close()
	ctx, cancel := context.WithCancel(context.Background())
	tr.Register("p", simnet.HandlerFunc(func(_ simnet.PeerID, m simnet.Message) (simnet.Message, error) {
		if m.Type == "race" {
			cancel()
		}
		return m, nil
	}))
	if _, err := tr.Send(ctx, "a", "p", simnet.Message{Type: "race"}); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the reply or context.Canceled", err)
	}
	if ps := tr.PoolStats(); ps.Idle != 0 {
		t.Fatalf("pool = %+v, want nothing idle", ps)
	}
	if resp, err := tr.Send(context.Background(), "a", "p", simnet.Message{Type: "next"}); err != nil || resp.Type != "next" {
		t.Fatalf("next send: resp = %+v, err = %v", resp, err)
	}
}

// TestBigExchangeRetiresConnection: a persistent gob codec keeps a
// buffer as large as the largest message it carried, so a connection
// that moved more than retireBytes in one exchange is closed, and no
// number of small exchanges afterwards can be holding such a buffer.
func TestBigExchangeRetiresConnection(t *testing.T) {
	tr := NewTransport()
	defer tr.Close()
	tr.Register("p", echo)
	ctx := context.Background()
	small := simnet.Message{Type: "small", Payload: "x"}
	if _, err := tr.Send(ctx, "a", "p", small); err != nil {
		t.Fatal(err)
	}
	if ps := tr.PoolStats(); ps.Dials != 1 || ps.Idle != 1 {
		t.Fatalf("pool after a small exchange = %+v, want it pooled", ps)
	}

	big := simnet.Message{Type: "big", Payload: strings.Repeat("x", 1<<20)}
	if resp, err := tr.Send(ctx, "a", "p", big); err != nil || resp.Payload != big.Payload {
		t.Fatalf("1 MB exchange: err = %v", err)
	}
	if ps := tr.PoolStats(); ps.Retired != 1 || ps.Idle != 0 {
		t.Fatalf("pool after a 1 MB exchange = %+v, want its connection retired, none idle", ps)
	}

	for i := 0; i < 10000; i++ {
		if _, err := tr.Send(ctx, "a", "p", small); err != nil {
			t.Fatalf("small send %d: %v", i, err)
		}
	}
	// Every live connection was dialled after the retirement and has
	// carried only exchanges under the threshold since.
	if ps := tr.PoolStats(); ps.Dials != 2 || ps.Retired != 1 || ps.Reuses != 1+9999 || ps.Idle != 1 {
		t.Fatalf("pool after 10000 small exchanges = %+v, want one new dial reused 9999 times", ps)
	}
}

// TestIdleConnectionExpires: a connection idle past maxIdleAge is not
// the first thing a send tries.
func TestIdleConnectionExpires(t *testing.T) {
	tr := NewTransport()
	defer tr.Close()
	tr.Register("p", echo)
	ctx := context.Background()
	if _, err := tr.Send(ctx, "a", "p", simnet.Message{Type: "x"}); err != nil {
		t.Fatal(err)
	}
	tr.pool.mu.Lock()
	for _, list := range tr.pool.idle {
		for _, c := range list {
			c.idleSince = c.idleSince.Add(-2 * maxIdleAge)
		}
	}
	tr.pool.mu.Unlock()
	if _, err := tr.Send(ctx, "a", "p", simnet.Message{Type: "x"}); err != nil {
		t.Fatal(err)
	}
	if ps := tr.PoolStats(); ps.Dials != 2 || ps.Reuses != 0 || ps.Redials != 0 || ps.Idle != 1 {
		t.Fatalf("pool = %+v, want the aged connection dropped for a fresh dial", ps)
	}
}

// TestCloseWithIdlePooledPeers: two transports hold idle connections to
// each other, so each has idle accepted connections whose senders will
// never close them. Close must end those itself, on both sides, and
// leave no goroutine behind.
func TestCloseWithIdlePooledPeers(t *testing.T) {
	runtime.GC()
	baseline := runtime.NumGoroutine()

	a, b := NewTransport(), NewTransport()
	a.Register("pa", echo)
	b.Register("pb", echo)
	a.AddPeer("pb", b.Addr("pb"))
	b.AddPeer("pa", a.Addr("pa"))
	ctx := context.Background()
	if _, err := a.Send(ctx, "pa", "pb", simnet.Message{Type: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Send(ctx, "pb", "pa", simnet.Message{Type: "x"}); err != nil {
		t.Fatal(err)
	}

	closed := make(chan struct{})
	go func() {
		a.Close()
		b.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on idle pooled connections")
	}
	if ps := a.PoolStats(); ps.Idle != 0 {
		t.Errorf("pool after Close = %+v", ps)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("goroutines leaked: baseline %d, now %d", baseline, n)
	}
}

// TestConcurrentSendersNeverWaitForTheCap: the handler answers nobody
// until all 64 requests are in, so every sender needs a connection of
// its own at the same moment — a Send that queued for a pooled one
// would deadlock here, as nested handler sends would in the overlay.
// Afterwards the pool keeps no more than its cap. Run under -race.
func TestConcurrentSendersNeverWaitForTheCap(t *testing.T) {
	const senders = 64
	tr := NewTransport()
	defer tr.Close()
	var in atomic.Int32
	all := make(chan struct{})
	tr.Register("p", simnet.HandlerFunc(func(_ simnet.PeerID, m simnet.Message) (simnet.Message, error) {
		if in.Add(1) == senders {
			close(all)
		}
		<-all
		return m, nil
	}))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := tr.Send(ctx, "a", "p", simnet.Message{Type: "x"}); err != nil {
				t.Errorf("send: %v", err)
			}
		}()
	}
	wg.Wait()
	ps := tr.PoolStats()
	if ps.Dials != senders || ps.Idle != maxIdlePerAddr {
		t.Errorf("pool = %+v, want %d dials and %d idle", ps, senders, maxIdlePerAddr)
	}
	if msgs, dropped := tr.Stats(); msgs != senders || dropped != 0 {
		t.Errorf("stats = %d/%d, want %d/0", msgs, dropped, senders)
	}
}
