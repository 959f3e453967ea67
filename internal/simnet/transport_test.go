package simnet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"
)

func echoHandler(id PeerID) Handler {
	return HandlerFunc(func(from PeerID, msg Message) (Message, error) {
		return Message{Payload: msg.Payload}, nil
	})
}

func TestSendAndReceive(t *testing.T) {
	n := NewNetwork()
	n.Register("b", echoHandler("b"))
	resp, err := n.Send(context.Background(), "a", "b", Message{Payload: 42})
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if resp.Payload != 42 {
		t.Errorf("payload = %v", resp.Payload)
	}
	if s := n.Stats(); s.Messages != 1 || s.Dropped != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSendToUnknownPeer(t *testing.T) {
	n := NewNetwork()
	_, err := n.Send(context.Background(), "a", "ghost", Message{Payload: "ping"})
	if !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
	if s := n.Stats(); s.Dropped != 1 {
		t.Errorf("dropped = %d, want 1", s.Dropped)
	}
}

func TestFailAndRecover(t *testing.T) {
	n := NewNetwork()
	n.Register("b", echoHandler("b"))
	n.Fail("b")
	if !n.Failed("b") {
		t.Error("b should be failed")
	}
	if _, err := n.Send(context.Background(), "a", "b", Message{Payload: "ping"}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("send to failed peer: %v", err)
	}
	n.Recover("b")
	if n.Failed("b") {
		t.Error("b should have recovered")
	}
	if _, err := n.Send(context.Background(), "a", "b", Message{Payload: "ping"}); err != nil {
		t.Errorf("send after recover: %v", err)
	}
}

func TestResetStats(t *testing.T) {
	n := NewNetwork()
	n.Register("b", echoHandler("b"))
	n.Send(context.Background(), "a", "b", Message{})
	n.ResetStats()
	if s := n.Stats(); s.Messages != 0 {
		t.Errorf("stats after reset = %+v", s)
	}
}

func TestPeers(t *testing.T) {
	n := NewNetwork()
	n.Register("x", echoHandler("x"))
	n.Register("y", echoHandler("y"))
	ids := n.Peers()
	strs := make([]string, len(ids))
	for i, id := range ids {
		strs[i] = string(id)
	}
	sort.Strings(strs)
	if len(strs) != 2 || strs[0] != "x" || strs[1] != "y" {
		t.Errorf("Peers = %v", strs)
	}
}

func TestHandlerError(t *testing.T) {
	n := NewNetwork()
	wantErr := errors.New("boom")
	n.Register("b", HandlerFunc(func(PeerID, Message) (Message, error) {
		return Message{}, wantErr
	}))
	if _, err := n.Send(context.Background(), "a", "b", Message{}); !errors.Is(err, wantErr) {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestSetPayloadDelaySleepsProportionally(t *testing.T) {
	n := NewNetwork()
	n.Register("a", HandlerFunc(func(from PeerID, msg Message) (Message, error) {
		return Message{Payload: 40}, nil
	}))
	n.SetPayloadDelay(time.Millisecond, func(p any) (int, error) {
		if v, ok := p.(int); ok {
			return v, nil
		}
		return 0, fmt.Errorf("cannot size a %T", p)
	})
	start := time.Now()
	resp, err := n.Send(context.Background(), "b", "a", Message{Payload: 10})
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if resp.Payload != 40 {
		t.Errorf("resp = %v", resp.Payload)
	}
	// 10 request units + 40 response units at 1ms each ⇒ ≥50ms.
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Errorf("elapsed = %v, want ≥50ms of modeled transfer", elapsed)
	}
	if err := n.SizeErr(); err != nil {
		t.Fatalf("SizeErr before an unsizable payload = %v", err)
	}
	// An unsizable payload is still delivered, uncounted; SizeErr keeps the
	// first refusal.
	before := n.Stats().PayloadUnits
	if _, err := n.Send(context.Background(), "b", "a", Message{Payload: "odd"}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if got := n.Stats().PayloadUnits - before; got != 40 {
		t.Errorf("counted %d units, want only the 40 of the sizable answer", got)
	}
	if err := n.SizeErr(); err == nil || err.Error() != "cannot size a string" {
		t.Errorf("SizeErr = %v, want the sizer's refusal of the string", err)
	}
	// Disabling restores immediate delivery.
	n.SetPayloadDelay(0, nil)
	start = time.Now()
	if _, err := n.Send(context.Background(), "b", "a", Message{Payload: 10}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Millisecond {
		t.Errorf("disabled payload delay still slept %v", elapsed)
	}
}

func TestSendDelayHonorsCancellation(t *testing.T) {
	n := NewNetwork()
	handled := false
	n.Register("b", HandlerFunc(func(from PeerID, msg Message) (Message, error) {
		handled = true
		return Message{}, nil
	}))
	n.SetSendDelay(5 * time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := n.Send(ctx, "a", "b", Message{Payload: "slow"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancelled send took %v — the transit sleep was not interrupted", elapsed)
	}
	if handled {
		t.Error("handler ran despite the message being abandoned in transit")
	}
}

func TestSendPayloadDelayHonorsCancellation(t *testing.T) {
	n := NewNetwork()
	n.Register("b", HandlerFunc(func(from PeerID, msg Message) (Message, error) {
		return Message{}, nil
	}))
	n.SetPayloadDelay(time.Second, func(any) (int, error) { return 100, nil })

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := n.Send(ctx, "a", "b", Message{Payload: "big"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancelled transfer took %v", elapsed)
	}
}
