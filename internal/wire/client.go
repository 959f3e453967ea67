package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrClientClosed terminates every pending call when the connection
// read loop exits (Close, network error, or server teardown).
var ErrClientClosed = errors.New("wire: connection closed")

// Client is one wire connection. It is safe for concurrent use:
// requests multiplex over the connection by ID and a demux read loop
// routes response frames to their callers. Note the shared-fate
// caveat of multiplexing: a caller that stops draining its Cursor
// stalls the read loop (and so every other request on this
// connection) until it resumes or closes.
type Client struct {
	c net.Conn

	wmu sync.Mutex

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan any
	err     error
}

// Dial connects to a daemon's client address.
func Dial(addr string) (*Client, error) {
	c, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	cl := &Client{c: c, pending: map[uint64]chan any{}}
	go cl.readLoop()
	return cl, nil
}

// Close tears down the connection; every pending call fails with
// ErrClientClosed.
func (c *Client) Close() error { return c.c.Close() }

func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.c, 64<<10)
	for {
		_, msg, err := ReadFrame(br)
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrClientClosed, err))
			return
		}
		id := MessageID(msg)
		if id == 0 {
			// Connection-level trailer: the server turned this connection
			// away (request IDs start at 1). Fail every caller with the
			// server's reason rather than a bare EOF.
			if tr, ok := msg.(*Trailer); ok && tr.Err != "" {
				c.fail(fmt.Errorf("%w: %s", ErrClientClosed, tr.Err))
				return
			}
			continue
		}
		c.mu.Lock()
		ch := c.pending[id]
		c.mu.Unlock()
		if ch == nil {
			continue // response to an abandoned request
		}
		// Blocking delivery is the backpressure: the consumer's pace
		// bounds how far the server can run ahead on this connection.
		ch <- msg
	}
}

func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pending := c.pending
	c.pending = map[uint64]chan any{}
	c.mu.Unlock()
	// Closed only once the reason is recorded: a writer that trips over
	// the closed connection reports the reason, not the symptom.
	c.c.Close()
	for _, ch := range pending {
		close(ch)
	}
}

// closedErr is what a pending call reports when the connection died:
// the recorded failure reason (always wrapping ErrClientClosed), so a
// server-side rejection surfaces its message instead of a bare EOF.
func (c *Client) closedErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return ErrClientClosed
}

// register allocates a request ID and its response channel.
func (c *Client) register() (uint64, chan any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, nil, c.err
	}
	c.nextID++
	id := c.nextID
	ch := make(chan any, 4)
	c.pending[id] = ch
	return id, ch, nil
}

func (c *Client) unregister(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

func (c *Client) writeFrame(t Type, msg any) error {
	buf, err := EncodeFrame(t, msg)
	if err != nil {
		return err
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.c.Write(buf); err != nil {
		c.mu.Lock()
		failed := c.err
		c.mu.Unlock()
		if failed != nil {
			return failed
		}
		return fmt.Errorf("wire: send: %w", err)
	}
	return nil
}

// Cursor is the client-side image of mediation.Cursor: rows stream in
// chunk frames and the trailer carries the terminal error and stats.
// Not safe for concurrent use by multiple consumers.
type Cursor struct {
	c    *Client
	id   uint64
	ch   chan any
	buf  [][]string
	next int

	canceled bool
	done     bool
	cols     []string
	stats    Stats
	err      error
}

// Query starts a streamed query. The ID field of q is assigned by the
// client. ctx only bounds call setup; per-row waits take their own ctx
// in Next, and Close propagates cancellation server-side.
func (c *Client) Query(ctx context.Context, q Query) (*Cursor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	id, ch, err := c.register()
	if err != nil {
		return nil, err
	}
	q.ID = id
	if err := c.writeFrame(TQuery, &q); err != nil {
		c.unregister(id)
		return nil, err
	}
	return &Cursor{c: c, id: id, ch: ch}, nil
}

// Next yields the next row. ok=false means the stream ended (consult
// Err) or ctx fired first; like mediation.Cursor.Next, a fired ctx
// neither cancels the query nor poisons the cursor.
func (cur *Cursor) Next(ctx context.Context) ([]string, bool) {
	for {
		if cur.next < len(cur.buf) {
			row := cur.buf[cur.next]
			cur.next++
			return row, true
		}
		if cur.done {
			return nil, false
		}
		var msg any
		var ok bool
		select {
		case msg, ok = <-cur.ch:
		default:
			select {
			case msg, ok = <-cur.ch:
			case <-ctx.Done():
				return nil, false
			}
		}
		if !cur.absorb(msg, ok) {
			return nil, false
		}
	}
}

// absorb folds one demuxed message into the cursor; false means the
// stream is over.
func (cur *Cursor) absorb(msg any, ok bool) bool {
	if !ok {
		cur.done = true
		cur.err = cur.c.closedErr()
		cur.c.unregister(cur.id)
		return false
	}
	switch m := msg.(type) {
	case *RowChunk:
		if m.Columns != nil && cur.cols == nil {
			cur.cols = m.Columns
		}
		cur.buf = m.Rows
		cur.next = 0
		return true
	case *Trailer:
		cur.done = true
		if m.Columns != nil {
			cur.cols = m.Columns
		}
		cur.stats = m.Stats
		if m.Err != "" {
			cur.err = errors.New(m.Err)
		}
		cur.c.unregister(cur.id)
		return false
	default:
		cur.done = true
		cur.err = fmt.Errorf("wire: unexpected %T in query stream", msg)
		cur.c.unregister(cur.id)
		return false
	}
}

// Close cancels the query server-side (a Cancel frame) and drains the
// stream to its trailer, so the server's engine context is released
// and the connection carries no stale frames. Idempotent.
func (cur *Cursor) Close() error {
	if !cur.done && !cur.canceled {
		cur.canceled = true
		cur.c.writeFrame(TCancel, &Cancel{ID: cur.id})
	}
	for !cur.done {
		msg, ok := <-cur.ch
		cur.absorb(msg, ok)
	}
	return cur.err
}

// Columns returns the output column names once known.
func (cur *Cursor) Columns() []string { return cur.cols }

// Err returns the terminal error after the stream ended.
func (cur *Cursor) Err() error { return cur.err }

// Stats returns the trailer's execution stats; valid once the stream
// ended.
func (cur *Cursor) Stats() Stats { return cur.stats }

// Write applies a batch and waits for its receipt. Cancelling ctx
// sends a Cancel frame (stopping the server-side engine between write
// groups) and still waits for the receipt, which reports what was
// applied before the cut.
func (c *Client) Write(ctx context.Context, w Write) (*Receipt, error) {
	id, ch, err := c.register()
	if err != nil {
		return nil, err
	}
	defer c.unregister(id)
	w.ID = id
	if err := c.writeFrame(TWrite, &w); err != nil {
		return nil, err
	}
	done := ctx.Done()
	for {
		select {
		case msg, ok := <-ch:
			if !ok {
				return nil, c.closedErr()
			}
			rec, isRec := msg.(*Receipt)
			if !isRec {
				return nil, fmt.Errorf("wire: unexpected %T awaiting receipt", msg)
			}
			if rec.Err != "" {
				return rec, errors.New(rec.Err)
			}
			return rec, nil
		case <-done:
			// A closed channel is ready on every turn; once the Cancel is
			// out, wait for the receipt alone (a nil channel never fires).
			done = nil
			c.writeFrame(TCancel, &Cancel{ID: id})
		}
	}
}

// Stats fetches the daemon's operational counters.
func (c *Client) Stats(ctx context.Context) (*DaemonStats, error) {
	msg, err := c.call(ctx, TStatsReq, func(id uint64) any { return &StatsReq{ID: id} })
	if err != nil {
		return nil, err
	}
	st, ok := msg.(*DaemonStats)
	if !ok {
		return nil, fmt.Errorf("wire: unexpected %T awaiting stats", msg)
	}
	return st, nil
}

// Dump fetches per-peer store dumps; peer narrows to one hosted peer,
// empty dumps all.
func (c *Client) Dump(ctx context.Context, peer string) (*Dump, error) {
	msg, err := c.call(ctx, TDumpReq, func(id uint64) any { return &DumpReq{ID: id, Peer: peer} })
	if err != nil {
		return nil, err
	}
	d, ok := msg.(*Dump)
	if !ok {
		return nil, fmt.Errorf("wire: unexpected %T awaiting dump", msg)
	}
	if d.Err != "" {
		return d, errors.New(d.Err)
	}
	return d, nil
}

// call is the unary request helper: register, send, await one reply.
func (c *Client) call(ctx context.Context, t Type, mk func(id uint64) any) (any, error) {
	id, ch, err := c.register()
	if err != nil {
		return nil, err
	}
	defer c.unregister(id)
	if err := c.writeFrame(t, mk(id)); err != nil {
		return nil, err
	}
	select {
	case msg, ok := <-ch:
		if !ok {
			return nil, c.closedErr()
		}
		return msg, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
