package simnet

import (
	"context"
	"errors"
	"testing"
	"time"
)

// dropPattern runs msgs sends through a fresh network with a fresh plan and
// returns which sends were dropped.
func dropPattern(seed int64, rate float64, msgs int) []bool {
	n := NewNetwork()
	n.Register("b", echoHandler("b"))
	p := NewFaultPlan(seed)
	p.SetDropRate(rate)
	n.SetFaultPlan(p)
	out := make([]bool, msgs)
	for i := range out {
		_, err := n.Send(context.Background(), "a", "b", Message{Payload: "ping"})
		out[i] = errors.Is(err, ErrUnreachable)
	}
	return out
}

func TestFaultPlanDropDeterminism(t *testing.T) {
	a := dropPattern(42, 0.3, 200)
	b := dropPattern(42, 0.3, 200)
	drops := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("drop pattern diverged at message %d with identical seeds", i)
		}
		if a[i] {
			drops++
		}
	}
	if drops == 0 || drops == len(a) {
		t.Errorf("drops = %d of %d, want a proper subset at rate 0.3", drops, len(a))
	}
	c := dropPattern(43, 0.3, 200)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical drop patterns")
	}
}

func TestFaultPlanLinkDropOverride(t *testing.T) {
	n := NewNetwork()
	n.Register("b", echoHandler("b"))
	n.Register("c", echoHandler("c"))
	p := NewFaultPlan(1)
	p.SetLinkDropRate("a", "b", 1)
	n.SetFaultPlan(p)
	if _, err := n.Send(context.Background(), "a", "b", Message{Payload: "ping"}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("a→b should drop, got %v", err)
	}
	if _, err := n.Send(context.Background(), "a", "c", Message{Payload: "ping"}); err != nil {
		t.Errorf("a→c should deliver, got %v", err)
	}
	if _, err := n.Send(context.Background(), "b", "c", Message{Payload: "ping"}); err != nil {
		t.Errorf("b→c should deliver, got %v", err)
	}
	p.SetLinkDropRate("a", "b", 0)
	if _, err := n.Send(context.Background(), "a", "b", Message{Payload: "ping"}); err != nil {
		t.Errorf("a→b after removing override: %v", err)
	}
}

func TestFaultPlanPartition(t *testing.T) {
	n := NewNetwork()
	for _, id := range []PeerID{"a", "b", "c"} {
		n.Register(id, echoHandler(id))
	}
	p := NewFaultPlan(1)
	p.Partition([]PeerID{"a"}, []PeerID{"b"})
	n.SetFaultPlan(p)
	if _, err := n.Send(context.Background(), "a", "b", Message{Payload: "ping"}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("cross-island a→b should drop, got %v", err)
	}
	// c is unnamed → island 0, isolated from both named islands.
	if _, err := n.Send(context.Background(), "a", "c", Message{Payload: "ping"}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("a→c should drop, got %v", err)
	}
	p.Heal()
	if _, err := n.Send(context.Background(), "a", "b", Message{Payload: "ping"}); err != nil {
		t.Errorf("a→b after heal: %v", err)
	}
}

func TestFaultPlanSchedule(t *testing.T) {
	n := NewNetwork()
	n.Register("b", echoHandler("b"))
	p := NewFaultPlan(1)
	p.At(1, Crash("b"))
	p.At(3, Restart("b"))
	n.SetFaultPlan(p)

	if got := p.PendingEvents(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("PendingEvents = %v, want [1 3]", got)
	}
	applied := p.Step(n)
	if len(applied) != 1 || applied[0].Kind != FaultCrash || applied[0].Peer != "b" {
		t.Errorf("step 1 applied %v", applied)
	}
	if !n.Failed("b") {
		t.Error("b should be crashed after step 1")
	}
	if applied := p.Step(n); len(applied) != 0 {
		t.Errorf("step 2 applied %v, want none", applied)
	}
	p.Step(n)
	if n.Failed("b") {
		t.Error("b should have restarted at step 3")
	}
	if got := p.CurrentStep(); got != 3 {
		t.Errorf("CurrentStep = %d, want 3", got)
	}
	if got := p.PendingEvents(); len(got) != 0 {
		t.Errorf("PendingEvents after drain = %v, want empty", got)
	}
}

func TestFaultPlanDuplication(t *testing.T) {
	n := NewNetwork()
	calls := 0
	n.Register("b", HandlerFunc(func(from PeerID, msg Message) (Message, error) {
		calls++
		return Message{Payload: "echo"}, nil
	}))
	p := NewFaultPlan(7)
	p.SetDuplicateRate(1)
	n.SetFaultPlan(p)
	const sends = 10
	for i := 0; i < sends; i++ {
		if _, err := n.Send(context.Background(), "a", "b", Message{Payload: "ping"}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	if calls != 2*sends {
		t.Errorf("handler calls = %d, want %d (every delivery duplicated)", calls, 2*sends)
	}
	if s := n.Stats(); s.Duplicated != sends {
		t.Errorf("Duplicated = %d, want %d", s.Duplicated, sends)
	}
}

func TestFaultPlanJitterHonoursContext(t *testing.T) {
	n := NewNetwork()
	n.Register("b", echoHandler("b"))
	p := NewFaultPlan(1)
	p.SetJitter(time.Nanosecond) // tiny but nonzero: exercises the delay path
	n.SetFaultPlan(p)
	if _, err := n.Send(context.Background(), "a", "b", Message{Payload: "ping"}); err != nil {
		t.Fatalf("Send with jitter: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := n.Send(ctx, "a", "b", Message{Payload: "ping"}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx: err = %v, want context.Canceled", err)
	}
}
