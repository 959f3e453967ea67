// Package simnet provides the message substrate the GridVine layers run on:
// a Transport abstraction with a deterministic in-memory implementation,
// per-message statistics, and failure injection.
package simnet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// PeerID identifies a logical peer on a transport.
type PeerID string

// Message is a request or response exchanged between peers. Its payload's
// type is its kind: a handler dispatches on it. Over TCP a payload must be
// of a type with a tag in internal/codec's kinds table — an untagged one
// does not encode.
type Message struct {
	Payload any
}

// Handler processes an incoming request and produces a response.
// Implementations must be safe for concurrent use when the transport
// delivers concurrently (the in-memory transport delivers synchronously on
// the caller's goroutine; the TCP transport delivers on server goroutines).
type Handler interface {
	HandleMessage(from PeerID, msg Message) (Message, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from PeerID, msg Message) (Message, error)

// HandleMessage calls f.
func (f HandlerFunc) HandleMessage(from PeerID, msg Message) (Message, error) {
	return f(from, msg)
}

// Transport delivers request/response messages between peers.
type Transport interface {
	// Send delivers msg from→to and returns the response. It returns
	// ErrUnreachable if the destination is unknown, failed, or the message
	// was dropped by failure injection. Cancelling ctx abandons the
	// exchange: implementations return ctx.Err() (possibly wrapped) as soon
	// as they notice, so a query with a deadline stops paying transit
	// delays, dials, and reads the moment it expires.
	Send(ctx context.Context, from, to PeerID, msg Message) (Message, error)
}

// Registrar is a Transport that can also host peers: overlay builders use
// it to attach node handlers. The in-memory Network and the TCP transport
// both implement it.
type Registrar interface {
	Transport
	Register(id PeerID, h Handler)
}

// ErrUnreachable reports that a destination peer could not be contacted.
var ErrUnreachable = errors.New("simnet: peer unreachable")

// Stats aggregates transport activity. All counters are monotone.
type Stats struct {
	Messages int // requests attempted (including dropped)
	Dropped  int // requests lost to failure injection or dead peers
	// Duplicated counts extra handler deliveries injected by a FaultPlan's
	// duplication rate (at-least-once delivery stress).
	Duplicated int
	// PayloadUnits accumulates the sizer-measured volume of delivered
	// request and response payloads (see SetPayloadDelay) — the bandwidth
	// counterpart of Messages, so batched operations that collapse many
	// messages into few still account for every datum they carry. Zero
	// when no sizer is installed.
	PayloadUnits int
}

// Network is the deterministic in-memory Transport: messages are delivered
// by direct handler invocation on the caller's goroutine, so tests and
// experiments are reproducible. Peers fail and recover through Fail and
// Recover; message loss, duplication and jitter come from a FaultPlan.
type Network struct {
	mu       sync.Mutex
	handlers map[PeerID]Handler
	failed   map[PeerID]bool
	stats    Stats
	delay    time.Duration
	perUnit  time.Duration
	sizer    func(payload any) (int, error)
	sizeErr  error
	fault    *FaultPlan
}

// NewNetwork returns an empty in-memory network.
func NewNetwork() *Network {
	return &Network{
		handlers: make(map[PeerID]Handler),
		failed:   make(map[PeerID]bool),
	}
}

// Register attaches a handler for a peer. Re-registering replaces the
// handler (used when a peer rejoins after a failure).
func (n *Network) Register(id PeerID, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handlers[id] = h
}

// Fail marks a peer as crashed: requests to it return ErrUnreachable until
// Recover is called. The handler is retained.
func (n *Network) Fail(id PeerID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.failed[id] = true
}

// Recover clears the failed mark on a peer.
func (n *Network) Recover(id PeerID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.failed, id)
}

// Failed reports whether the peer is currently marked crashed.
func (n *Network) Failed(id PeerID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.failed[id]
}

// SetSendDelay imposes a fixed wall-clock transit delay on every delivered
// message. The default (zero) delivers immediately; a non-zero delay makes
// the in-memory network behave like a real one for wall-clock measurements,
// so benchmarks can observe the benefit of overlapping round-trips
// (concurrent senders sleep concurrently). The sleep happens outside the
// network lock and does not affect determinism of delivery or statistics.
func (n *Network) SetSendDelay(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.delay = d
}

// SetPayloadDelay adds a bandwidth model on top of SetSendDelay: every
// request and response additionally sleeps perUnit × size(payload), where
// size is a caller-provided measure (the experiments' is the length of the
// payload's overlay frame — the transport itself knows nothing about
// payload types). A nil size disables the model entirely; a zero perUnit
// with a non-nil size disables the sleep but still accounts delivered
// volume in Stats.PayloadUnits, so experiments can audit bandwidth without
// paying wall-clock. The sleeps affect wall-clock only, never delivery
// semantics, so benchmarks can observe the cost of shipping large answer
// sets over a network with finite bandwidth. A payload size cannot measure
// travels uncounted and SizeErr reports it.
func (n *Network) SetPayloadDelay(perUnit time.Duration, size func(payload any) (int, error)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.perUnit = perUnit
	n.sizer = size
}

// SizeErr returns the first error the payload sizer reported: a run whose
// bandwidth figures miss a message must not report them.
func (n *Network) SizeErr() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sizeErr
}

// SetFaultPlan attaches (or, with nil, detaches) a FaultPlan: every
// subsequent Send consults the plan for partition/drop/duplication/jitter
// decisions. Scheduled crashes and restarts are applied separately through
// FaultPlan.Step.
func (n *Network) SetFaultPlan(p *FaultPlan) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.fault = p
}

// Stats returns a snapshot of the counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// ResetStats zeroes the counters.
func (n *Network) ResetStats() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats = Stats{}
}

// Peers returns the identifiers of all registered peers (failed included).
func (n *Network) Peers() []PeerID {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]PeerID, 0, len(n.handlers))
	for id := range n.handlers {
		out = append(out, id)
	}
	return out
}

// Send implements Transport. A message in transit when ctx is cancelled is
// abandoned: the modelled transit/bandwidth sleep is cut short and ctx.Err()
// returned without invoking the destination handler — the in-memory
// equivalent of the issuer walking away from the socket.
func (n *Network) Send(ctx context.Context, from, to PeerID, msg Message) (Message, error) {
	n.mu.Lock()
	fault := n.fault
	n.mu.Unlock()
	var drop, dup bool
	var extraDelay time.Duration
	if fault != nil {
		drop, dup, extraDelay = fault.decide(from, to)
	}

	n.mu.Lock()
	n.stats.Messages++
	h, ok := n.handlers[to]
	failed := !ok || n.failed[to] || drop
	if failed {
		n.stats.Dropped++
	}
	delay := n.delay + extraDelay
	perUnit, sizer := n.perUnit, n.sizer
	n.mu.Unlock()

	if failed {
		return Message{}, fmt.Errorf("%w: %s", ErrUnreachable, to)
	}
	if err := ctx.Err(); err != nil {
		return Message{}, err
	}
	transfer := func(payload any) error {
		if sizer == nil {
			return nil
		}
		units, err := sizer(payload)
		n.mu.Lock()
		if err != nil && n.sizeErr == nil {
			n.sizeErr = err
		}
		if units > 0 {
			n.stats.PayloadUnits += units
		}
		n.mu.Unlock()
		if units <= 0 || perUnit <= 0 {
			return nil
		}
		return sleepCtx(ctx, time.Duration(units)*perUnit)
	}
	if delay > 0 {
		if err := sleepCtx(ctx, delay); err != nil {
			return Message{}, err
		}
	}
	if err := transfer(msg.Payload); err != nil {
		return Message{}, err
	}
	resp, err := h.HandleMessage(from, msg)
	if err == nil && dup {
		// At-least-once delivery: hand the handler the same request again
		// and discard the duplicate's response. Senders never observe the
		// duplicate; only idempotency bugs in handlers do.
		n.mu.Lock()
		n.stats.Duplicated++
		n.mu.Unlock()
		_, _ = h.HandleMessage(from, msg)
	}
	if err == nil {
		if terr := transfer(resp.Payload); terr != nil {
			return Message{}, terr
		}
	}
	return resp, err
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first,
// returning ctx.Err() in the latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

var _ Transport = (*Network)(nil)
