// Package tcpnet provides a real-network Transport for GridVine peers:
// each registered peer listens on a local TCP socket and messages are
// exchanged as request/response pairs of internal/codec's checksummed
// frames over persistent connections. A connection carries one exchange at
// a time and no codec state, only a small fixed read buffer, so after the
// first exchange a message costs no dial and a pooled connection retains
// nothing of the messages it carried; between exchanges it waits in a
// small per-address pool. It implements
// simnet.Registrar, so the overlay builders work unchanged over TCP — the
// configuration used by the daemons, the multi-process-style integration
// tests and the gridvine CLI's --tcp mode.
package tcpnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gridvine/internal/codec"
	"gridvine/internal/simnet"
)

const (
	// maxIdlePerAddr caps the idle connections kept per destination
	// address. It bounds what the pool retains, never how many exchanges
	// run at once: a Send that finds no idle connection dials one, and an
	// exchange that finishes with the pool full closes its connection.
	maxIdlePerAddr = 4
	// readerSize is each end's read buffer, all a connection holds between
	// exchanges: a typical frame arrives in one read, a larger payload is
	// read straight into the buffer it is decoded from.
	readerSize = 4 << 10
	// maxIdleAge is how long a connection may sit idle and still be
	// reused: after a quiet period a query dials rather than meet a
	// half-open socket first.
	maxIdleAge = 30 * time.Second
)

// Transport hosts peers on TCP sockets and reaches peers by their
// registered addresses. The zero value is not usable; call NewTransport.
type Transport struct {
	mu      sync.RWMutex
	addrs   map[simnet.PeerID]string
	servers map[simnet.PeerID]*server
	closed  bool

	// Counters are atomic: the hot send path must not contend on the mutex.
	messages  atomic.Int64
	dropped   atomic.Int64
	bytesSent atomic.Int64
	bytesRecv atomic.Int64

	pool pool
}

// NewTransport returns an empty TCP transport.
func NewTransport() *Transport {
	return &Transport{
		addrs:   make(map[simnet.PeerID]string),
		servers: make(map[simnet.PeerID]*server),
		pool:    pool{idle: make(map[string][]*clientConn)},
	}
}

// Register starts a TCP listener for the peer on an ephemeral localhost
// port and serves its handler until Close. Registering the same id again
// replaces the previous server. Implements simnet.Registrar.
func (t *Transport) Register(id simnet.PeerID, h simnet.Handler) {
	if _, err := t.RegisterOn(id, "127.0.0.1:0", h); err != nil {
		// Local ephemeral listen can only fail on resource exhaustion;
		// surface loudly.
		panic(fmt.Sprintf("tcpnet: listen for %s: %v", id, err))
	}
}

// RegisterOn is Register with a caller-chosen listen address (the
// daemon uses it to re-bind a peer to the port recorded before a
// restart, keeping cross-process address books valid). It returns the
// bound address. An addr of "127.0.0.1:0" selects an ephemeral port.
// Any previous server for id is shut down first, its connections
// included — also when the new listen then fails, in which case id is
// left unhosted.
func (t *Transport) RegisterOn(id simnet.PeerID, addr string, h simnet.Handler) (string, error) {
	t.mu.Lock()
	old, hadOld := t.servers[id]
	delete(t.servers, id)
	t.mu.Unlock()
	if hadOld {
		// The old listener may hold the very address we are binding;
		// release it (and drain its connections) before listening.
		old.stop()
		old.wg.Wait()
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &server{ln: ln, handler: h, conns: make(map[net.Conn]struct{})}
	t.mu.Lock()
	t.servers[id] = srv
	t.addrs[id] = ln.Addr().String()
	t.mu.Unlock()

	srv.wg.Add(1)
	go srv.serve()
	return ln.Addr().String(), nil
}

// server is one hosted peer: its listener, its handler and the
// connections it has accepted.
type server struct {
	ln      net.Listener
	handler simnet.Handler
	wg      sync.WaitGroup // the accept loop and every connection handler

	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	stopped bool
}

func (s *server) serve() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		// Connection handlers join the server's WaitGroup so Close (and a
		// replacing RegisterOn) returns only after every in-flight handler
		// has finished — the daemon relies on this to snapshot with no
		// overlay mutation still running. Senders keep connections open
		// between exchanges, so stop ends the idle ones itself; the wait
		// is bounded by the slowest exchange in flight.
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// stop closes the listener and ends every accepted connection: an idle
// one at once, one with an exchange in flight after its reply (only its
// next read fails). No request read after stop returns is handled. It
// does not wait; wg does.
func (s *server) stop() {
	s.ln.Close() //nolint:errcheck // closing twice is harmless
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopped = true
	for c := range s.conns {
		c.SetReadDeadline(time.Now()) //nolint:errcheck // fails only on a connection already closed
	}
}

// track records an accepted connection so stop can end it; false means
// the server stopped first.
func (s *server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *server) isStopped() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopped
}

func (s *server) untrack(c net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, c)
}

// handleConn serves exchanges on one connection, one at a time, until
// the sender closes it or the server stops.
func (s *server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	if !s.track(conn) {
		return
	}
	defer s.untrack(conn)
	br := bufio.NewReaderSize(conn, readerSize)
	for {
		req, err := readEnvelope(br)
		if err != nil {
			return // connection closed, server stopped, or corrupt stream
		}
		// The deadline stop sets cannot fail a read that finds its data
		// already there, so a request can still get this far; it is
		// dropped unhandled, and its sender sees a stale connection.
		if s.isStopped() {
			return
		}
		msg, err := s.handler.HandleMessage(req.From, req.Msg)
		resp := codec.Envelope{Msg: msg}
		if err != nil {
			resp.Err = err.Error()
		}
		frame, err := codec.EncodeOverlay(&resp)
		if err != nil {
			// A reply that does not encode (a payload type without a tag)
			// is the handler's failure, reported as one: dropping the
			// connection would make a bug look like a dead peer.
			frame, err = codec.EncodeOverlay(&codec.Envelope{Err: "tcpnet: reply: " + err.Error()})
		}
		if err == nil {
			_, err = conn.Write(frame)
		}
		if err != nil {
			return
		}
	}
}

// readEnvelope reads and decodes one frame.
func readEnvelope(r *bufio.Reader) (codec.Envelope, error) {
	_, payload, err := codec.ReadFrame(r, codec.FrameOverlay)
	if err != nil {
		return codec.Envelope{}, err
	}
	return codec.DecodeOverlay(payload)
}

// Addr returns the peer's listen address, or "" if unknown.
func (t *Transport) Addr(id simnet.PeerID) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.addrs[id]
}

// AddPeer records a remote peer's address without hosting it locally —
// used when peers are spread across processes.
func (t *Transport) AddPeer(id simnet.PeerID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addrs[id] = addr
}

// Send implements simnet.Transport: one request/response exchange on a
// connection to the destination — an idle pooled one when there is one,
// a freshly dialled one otherwise; Send never waits for a connection,
// because handlers send nested messages and a blocking cap could
// deadlock. Connection failures surface as simnet.ErrUnreachable so the
// overlay's failure handling works identically over TCP. A pooled
// connection that fails before any byte of the response arrived was
// closed by the other end while it sat idle (its peer restarted or
// failed): Send redials once, and only a failed redial is reported — the
// request may then have been handled twice, which overlay handlers
// tolerate. The dial honours ctx, and cancelling ctx while the exchange
// is in flight unblocks the socket read immediately (the connection
// deadline is slammed shut), so a deadline-expired query never waits out
// a slow peer.
func (t *Transport) Send(ctx context.Context, from, to simnet.PeerID, msg simnet.Message) (simnet.Message, error) {
	t.messages.Add(1)
	t.mu.RLock()
	addr, ok := t.addrs[to]
	closed := t.closed
	t.mu.RUnlock()
	if !ok {
		t.dropped.Add(1)
		return simnet.Message{}, fmt.Errorf("%w: %s (no address)", simnet.ErrUnreachable, to)
	}
	if closed {
		t.dropped.Add(1)
		return simnet.Message{}, fmt.Errorf("%w: transport closed", simnet.ErrUnreachable)
	}
	if err := ctx.Err(); err != nil {
		return simnet.Message{}, err
	}

	frame, err := codec.EncodeOverlay(&codec.Envelope{From: from, Msg: msg})
	if err != nil {
		return simnet.Message{}, fmt.Errorf("tcpnet: request to %s: %w", to, err)
	}
	c := t.pool.get(addr)
	reused := c != nil
	for {
		if c == nil {
			var err error
			if c, err = t.dial(ctx, addr); err != nil {
				t.dropped.Add(1)
				if cerr := ctx.Err(); cerr != nil {
					return simnet.Message{}, cerr
				}
				return simnet.Message{}, fmt.Errorf("%w: %s: %v", simnet.ErrUnreachable, to, err)
			}
		}
		resp, err := t.exchange(ctx, addr, c, frame)
		if err == nil {
			if resp.Err != "" {
				return simnet.Message{}, errors.New(resp.Err)
			}
			return resp.Msg, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return simnet.Message{}, cerr
		}
		if !reused || c.recv > 0 {
			return simnet.Message{}, fmt.Errorf("%w: %s: %v", simnet.ErrUnreachable, to, err)
		}
		// Stale pooled connection. Its idle siblings date from the same
		// listener, so they go too.
		t.pool.redials.Add(1)
		t.pool.flush(addr)
		c, reused = nil, false
	}
}

func (t *Transport) dial(ctx context.Context, addr string) (*clientConn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	t.pool.dials.Add(1)
	c := &clientConn{Conn: conn}
	c.br = bufio.NewReaderSize(c, readerSize)
	return c, nil
}

// exchange performs one request/response on c, then pools c or closes
// it; the caller does not touch the connection again.
func (t *Transport) exchange(ctx context.Context, addr string, c *clientConn, frame []byte) (codec.Envelope, error) {
	c.recv = 0
	// Propagate cancellation into the blocking reads/writes: a fired ctx
	// forces an immediate deadline so the read below unblocks.
	stop := context.AfterFunc(ctx, func() {
		c.Conn.SetDeadline(time.Now()) //nolint:errcheck
	})
	var resp codec.Envelope
	n, err := c.Conn.Write(frame)
	t.bytesSent.Add(int64(n))
	if err != nil {
		err = fmt.Errorf("writing: %w", err)
	} else if resp, err = readEnvelope(c.br); err != nil {
		err = fmt.Errorf("reading: %w", err)
	}
	t.bytesRecv.Add(c.recv)
	// A connection is reusable only when the stream is known to sit
	// between two exchanges with no deadline pending: not after a failure
	// (the reply may still arrive, and the next Send would read it as its
	// own), and not when ctx fired — stop reports false — even if the
	// reply beat the deadline.
	if fired := !stop(); err != nil || fired || !t.pool.put(addr, c) {
		c.Close() //nolint:errcheck
	}
	return resp, err
}

// clientConn is the sending end of one persistent connection and its read
// buffer. One goroutine owns it at a time: the Send running an exchange
// on it, or nobody while it is pooled.
type clientConn struct {
	net.Conn
	br        *bufio.Reader // reads through Read below
	recv      int64         // response bytes the current exchange has read
	idleSince time.Time
}

func (c *clientConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.recv += int64(n)
	return n, err
}

// pool holds a transport's idle connections, per destination address,
// most recently used last.
type pool struct {
	mu     sync.Mutex
	idle   map[string][]*clientConn
	closed bool

	dials, reuses, redials atomic.Uint64
}

// get takes the most recently used idle connection to addr, or nil.
func (p *pool) get(addr string) *clientConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	list := p.idle[addr]
	if len(list) == 0 {
		return nil
	}
	c := list[len(list)-1]
	if time.Since(c.idleSince) > maxIdleAge {
		// The freshest is too old, so all are.
		p.flushLocked(addr)
		return nil
	}
	list[len(list)-1] = nil
	p.idle[addr] = list[:len(list)-1]
	p.reuses.Add(1)
	return c
}

// put pools c; false means the pool is closed or full and the caller
// closes c.
func (p *pool) put(addr string, c *clientConn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || len(p.idle[addr]) >= maxIdlePerAddr {
		return false
	}
	c.idleSince = time.Now()
	p.idle[addr] = append(p.idle[addr], c)
	return true
}

// flush closes every idle connection to addr.
func (p *pool) flush(addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.flushLocked(addr)
}

func (p *pool) flushLocked(addr string) {
	for _, c := range p.idle[addr] {
		c.Close() //nolint:errcheck
	}
	delete(p.idle, addr)
}

// close closes every idle connection and refuses further puts.
func (p *pool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for addr := range p.idle {
		p.flushLocked(addr)
	}
}

// PoolStats counts what the connection pool has done: connections
// opened, exchanges that started on a pooled connection, reused
// connections found stale and replaced by a fresh dial, and connections
// idle right now. Reuses/(Dials+Reuses) is the share of exchanges that
// paid no dial.
type PoolStats struct {
	Dials, Reuses, Redials uint64
	Idle                   int
}

// PoolStats returns a snapshot of the pool's counters.
func (t *Transport) PoolStats() PoolStats {
	p := &t.pool
	st := PoolStats{
		Dials:   p.dials.Load(),
		Reuses:  p.reuses.Load(),
		Redials: p.redials.Load(),
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, list := range p.idle {
		st.Idle += len(list)
	}
	return st
}

// Fail stops a peer's server, simulating a crash: the listener and every
// idle connection close (the address stays registered, so dials fail
// with connection errors and pooled connections turn out stale); an
// exchange already in flight still gets its reply.
func (t *Transport) Fail(id simnet.PeerID) {
	t.mu.RLock()
	srv, ok := t.servers[id]
	t.mu.RUnlock()
	if ok {
		srv.stop()
	}
}

// Stats reports (attempted, dropped) message counts.
func (t *Transport) Stats() (messages, dropped int) {
	return int(t.messages.Load()), int(t.dropped.Load())
}

// Bytes reports the wire volume this transport's outgoing calls have moved
// (request frame bytes sent, response frame bytes received) — the
// bandwidth counterpart of the message counters, so batched operations
// that collapse many exchanges into few still account for every byte they
// carry.
func (t *Transport) Bytes() (sent, received int64) {
	return t.bytesSent.Load(), t.bytesRecv.Load()
}

// Close closes the pooled connections, shuts down every hosted server
// and waits for in-flight connection handlers to finish, so no handler
// invocation (and thus no store mutation or WAL append) is running once
// Close returns.
func (t *Transport) Close() {
	t.mu.Lock()
	t.closed = true
	servers := make([]*server, 0, len(t.servers))
	for _, s := range t.servers {
		servers = append(servers, s)
	}
	t.mu.Unlock()
	t.pool.close()
	for _, s := range servers {
		s.stop()
	}
	for _, s := range servers {
		s.wg.Wait()
	}
}

var _ simnet.Registrar = (*Transport)(nil)
