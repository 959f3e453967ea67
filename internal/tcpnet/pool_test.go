package tcpnet

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridvine/internal/codec"
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
		if m.Payload == "slow" {
			close(entered)
			<-release
		}
		return simnet.Message{Payload: "re:" + m.Payload.(string)}, nil
	}))
	// Pool one connection, so the slow request travels on a reused one.
	if _, err := tr.Send(context.Background(), "a", "p", simnet.Message{Payload: "warm"}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-entered
		cancel()
	}()
	if _, err := tr.Send(ctx, "a", "p", simnet.Message{Payload: "slow"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled send: err = %v, want context.Canceled", err)
	}
	if ps := tr.PoolStats(); ps.Idle != 0 {
		t.Fatalf("pool after a cancelled exchange = %+v, want nothing idle", ps)
	}
	close(release) // the late reply goes out now
	for i := 0; i < 3; i++ {
		resp, err := tr.Send(context.Background(), "a", "p", simnet.Message{Payload: "fast"})
		if err != nil || resp.Payload != "re:fast" {
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
		if m.Payload == "race" {
			cancel()
		}
		return m, nil
	}))
	if _, err := tr.Send(ctx, "a", "p", simnet.Message{Payload: "race"}); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the reply or context.Canceled", err)
	}
	if ps := tr.PoolStats(); ps.Idle != 0 {
		t.Fatalf("pool = %+v, want nothing idle", ps)
	}
	if resp, err := tr.Send(context.Background(), "a", "p", simnet.Message{Payload: "next"}); err != nil || resp.Payload != "next" {
		t.Fatalf("next send: resp = %+v, err = %v", resp, err)
	}
}

// TestBigExchangeLeavesOnlyTheFixedReader: a connection holds no codec
// state, so a 1 MB exchange is pooled like any other and what the pool
// then retains is the connection's fixed read buffer — on this end; the
// serving end's is the same bufio.Reader — not a buffer the size of the
// largest message it carried.
func TestBigExchangeLeavesOnlyTheFixedReader(t *testing.T) {
	tr := NewTransport()
	defer tr.Close()
	tr.Register("p", echo)
	ctx := context.Background()
	small := simnet.Message{Payload: "x"}
	if _, err := tr.Send(ctx, "a", "p", small); err != nil {
		t.Fatal(err)
	}
	big := simnet.Message{Payload: strings.Repeat("x", 1<<20)}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	func() { // the reply dies with this frame
		if resp, err := tr.Send(ctx, "a", "p", big); err != nil || resp.Payload != big.Payload {
			t.Fatalf("1 MB exchange: err = %v", err)
		}
	}()
	// One more exchange, so the serving goroutine is past the big one.
	if _, err := tr.Send(ctx, "a", "p", small); err != nil {
		t.Fatalf("small send after the big one: %v", err)
	}
	if ps := tr.PoolStats(); ps.Dials != 1 || ps.Reuses != 2 || ps.Idle != 1 {
		t.Fatalf("pool after a 1 MB exchange = %+v, want the one connection reused and idle again", ps)
	}
	tr.pool.mu.Lock()
	for _, list := range tr.pool.idle {
		for _, c := range list {
			if c.br.Size() != readerSize || c.br.Buffered() != 0 {
				t.Errorf("pooled reader holds %d of %d bytes, want 0 of %d", c.br.Buffered(), c.br.Size(), readerSize)
			}
		}
	}
	tr.pool.mu.Unlock()
	// Both ends live in this process: had either kept the message, the
	// heap would be a megabyte up.
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 256<<10 {
		t.Errorf("heap grew %d bytes across a 1 MB exchange on a pooled connection", grew)
	}
	runtime.KeepAlive(big)
}

// TestIdleConnectionExpires: a connection idle past maxIdleAge is not
// the first thing a send tries.
func TestIdleConnectionExpires(t *testing.T) {
	tr := NewTransport()
	defer tr.Close()
	tr.Register("p", echo)
	ctx := context.Background()
	if _, err := tr.Send(ctx, "a", "p", simnet.Message{Payload: "x"}); err != nil {
		t.Fatal(err)
	}
	tr.pool.mu.Lock()
	for _, list := range tr.pool.idle {
		for _, c := range list {
			c.idleSince = c.idleSince.Add(-2 * maxIdleAge)
		}
	}
	tr.pool.mu.Unlock()
	if _, err := tr.Send(ctx, "a", "p", simnet.Message{Payload: "x"}); err != nil {
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
	if _, err := a.Send(ctx, "pa", "pb", simnet.Message{Payload: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Send(ctx, "pb", "pa", simnet.Message{Payload: "x"}); err != nil {
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
			if _, err := tr.Send(ctx, "a", "p", simnet.Message{Payload: "x"}); err != nil {
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

// scriptedPeer is a raw listener that answers the first request on a
// connection properly and the second with reply, byte for byte — the
// misbehaving end of a live, already pooled connection.
func scriptedPeer(t *testing.T, reply func(good []byte) []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		good, _ := codec.EncodeOverlay(&codec.Envelope{Msg: simnet.Message{Payload: "ok"}})
		for _, out := range [][]byte{good, reply(good)} {
			if _, _, err := codec.ReadFrame(conn, codec.FrameOverlay); err != nil {
				return
			}
			conn.Write(out) //nolint:errcheck // the sender's error is the test
		}
		io.Copy(io.Discard, conn) //nolint:errcheck // hold the connection open until the sender closes it
	}()
	return ln.Addr().String()
}

// TestBadReplyFrameFailsTheExchange: a reply whose checksum does not match,
// whose header claims more than the 64 MB a frame may carry or a type
// the overlay does not use, fails that
// exchange as unreachable — nothing of it is decoded, nothing is allocated
// for the claim — and the connection it arrived on is closed, not pooled:
// the stream's position is unknown.
func TestBadReplyFrameFailsTheExchange(t *testing.T) {
	for name, reply := range map[string]func([]byte) []byte{
		"corrupted checksum": func(good []byte) []byte {
			bad := append([]byte(nil), good...)
			bad[5] ^= 0x01
			return bad
		},
		"over-64MB claim": func([]byte) []byte {
			hdr := make([]byte, codec.FrameHeader)
			hdr[0] = codec.FrameOverlay
			binary.LittleEndian.PutUint32(hdr[1:5], codec.MaxPayload+1)
			return hdr
		},
		"a frame of another type": func(good []byte) []byte {
			bad := append([]byte(nil), good...)
			bad[0] = codec.FrameOverlay + 1
			return bad
		},
	} {
		tr := NewTransport()
		tr.AddPeer("p", scriptedPeer(t, reply))
		ctx := context.Background()
		if resp, err := tr.Send(ctx, "a", "p", simnet.Message{Payload: "x"}); err != nil || resp.Payload != "ok" {
			t.Fatalf("%s: first exchange = %+v, %v", name, resp, err)
		}
		if ps := tr.PoolStats(); ps.Idle != 1 {
			t.Fatalf("%s: pool after a clean exchange = %+v, want the connection idle", name, ps)
		}
		_, err := tr.Send(ctx, "a", "p", simnet.Message{Payload: "x"})
		if !errors.Is(err, simnet.ErrUnreachable) || !strings.Contains(err.Error(), "bad frame") {
			t.Errorf("%s: err = %v, want unreachable over a bad frame", name, err)
		}
		if ps := tr.PoolStats(); ps.Dials != 1 || ps.Reuses != 1 || ps.Redials != 0 || ps.Idle != 0 {
			t.Errorf("%s: pool = %+v, want the reused connection closed and no redial", name, ps)
		}
		tr.Close()
	}
}

// TestUntaggedPayloadIsAnErrorNotADeadPeer: a payload type the codec has
// no tag for fails the Send that carries it, in either direction, with an
// error that names the type — and the peer stays reachable.
func TestUntaggedPayloadIsAnErrorNotADeadPeer(t *testing.T) {
	type unknown struct{ X int }
	tr := NewTransport()
	defer tr.Close()
	tr.Register("p", simnet.HandlerFunc(func(_ simnet.PeerID, m simnet.Message) (simnet.Message, error) {
		if m.Payload == "reply-untagged" {
			return simnet.Message{Payload: unknown{1}}, nil
		}
		return m, nil
	}))
	ctx := context.Background()
	for _, msg := range []simnet.Message{{Payload: unknown{2}}, {Payload: "reply-untagged"}} {
		_, err := tr.Send(ctx, "a", "p", msg)
		if err == nil || errors.Is(err, simnet.ErrUnreachable) || !strings.Contains(err.Error(), "tcpnet.unknown") {
			t.Errorf("%+v: err = %v, want an encoding error naming the type", msg.Payload, err)
		}
	}
	if resp, err := tr.Send(ctx, "a", "p", simnet.Message{Payload: "x"}); err != nil || resp.Payload != "x" {
		t.Errorf("after the failures: resp = %+v, err = %v", resp, err)
	}
	if ps := tr.PoolStats(); ps.Dials != 1 {
		t.Errorf("pool = %+v, want one connection throughout", ps)
	}
}
