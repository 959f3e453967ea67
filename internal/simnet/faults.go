package simnet

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// FaultPlan is a seeded, deterministic fault-injection layer over a
// Network: crash/restart schedules keyed to a logical step counter, link
// partitions, per-link and global drop probability, message duplication,
// and transit-delay jitter. It composes with the Network's own Fail/Recover
// primitives — the plan never bypasses them, it drives them (schedules) or
// adds independent loss on top (probabilities).
//
// Every random decision is drawn from the plan's seeded rng, so a churn
// scenario replays bit-identically from its seed as long as the message
// sequence is deterministic (the experiment harness pins Parallelism to 1
// for exactly this reason; under concurrent senders the draw order — and
// with it the exact set of dropped messages — depends on scheduling, while
// the configured rates still hold).
type FaultPlan struct {
	mu  sync.Mutex
	rng *rand.Rand

	step     int
	schedule map[int][]FaultEvent

	dropRate float64
	linkDrop map[linkKey]float64
	dupRate  float64
	jitter   time.Duration

	// islands maps peers to partition groups; peers not named live in
	// island 0. Messages between different islands are dropped.
	islands map[PeerID]int
}

type linkKey struct{ from, to PeerID }

// FaultKind classifies a scheduled event.
type FaultKind int

// Scheduled event kinds.
const (
	FaultCrash FaultKind = iota
	FaultRestart
)

// FaultEvent is one scheduled crash or restart.
type FaultEvent struct {
	Kind FaultKind
	Peer PeerID
}

// Crash schedules a peer failure (Network.Fail).
func Crash(id PeerID) FaultEvent { return FaultEvent{Kind: FaultCrash, Peer: id} }

// Restart schedules a peer recovery (Network.Recover).
func Restart(id PeerID) FaultEvent { return FaultEvent{Kind: FaultRestart, Peer: id} }

// NewFaultPlan returns an empty plan seeded for deterministic replay.
func NewFaultPlan(seed int64) *FaultPlan {
	return &FaultPlan{
		rng:      rand.New(rand.NewSource(seed)),
		schedule: make(map[int][]FaultEvent),
		linkDrop: make(map[linkKey]float64),
		islands:  make(map[PeerID]int),
	}
}

// At appends events to the schedule for the given logical step (steps are
// advanced by Step; the first Step moves to step 1).
func (p *FaultPlan) At(step int, events ...FaultEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.schedule[step] = append(p.schedule[step], events...)
}

// Step advances logical time by one and applies the events scheduled for
// the new step to net (crashes via Fail, restarts via Recover), returning
// the applied events in schedule order.
func (p *FaultPlan) Step(net *Network) []FaultEvent {
	p.mu.Lock()
	p.step++
	events := p.schedule[p.step]
	delete(p.schedule, p.step)
	p.mu.Unlock()

	for _, e := range events {
		switch e.Kind {
		case FaultCrash:
			net.Fail(e.Peer)
		case FaultRestart:
			net.Recover(e.Peer)
		}
	}
	return events
}

// CurrentStep returns the logical step the plan has advanced to.
func (p *FaultPlan) CurrentStep() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.step
}

// SetDropRate sets the global per-message drop probability (0 disables).
func (p *FaultPlan) SetDropRate(rate float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dropRate = rate
}

// SetLinkDropRate sets a directional per-link drop probability that
// overrides the global rate for that link (a zero rate removes the
// override).
func (p *FaultPlan) SetLinkDropRate(from, to PeerID, rate float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if rate == 0 {
		delete(p.linkDrop, linkKey{from, to})
		return
	}
	p.linkDrop[linkKey{from, to}] = rate
}

// SetDuplicateRate sets the probability that a delivered message is handed
// to its destination handler a second time (at-least-once delivery; the
// duplicate's response is discarded and counted in Stats.Duplicated).
func (p *FaultPlan) SetDuplicateRate(rate float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dupRate = rate
}

// SetJitter sets the maximum extra transit delay added per delivered
// message; the actual delay is drawn uniformly from [0, d). Zero disables.
// Jitter affects wall-clock only, never delivery semantics.
func (p *FaultPlan) SetJitter(d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.jitter = d
}

// Partition splits the named peers into isolated groups: messages between
// peers of different groups (or between a named peer and an unnamed one,
// which stays in the default group 0) are dropped until Heal. Calling
// Partition replaces any previous partition.
func (p *FaultPlan) Partition(groups ...[]PeerID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.islands = make(map[PeerID]int)
	for i, g := range groups {
		for _, id := range g {
			p.islands[id] = i + 1
		}
	}
}

// Heal removes the partition.
func (p *FaultPlan) Heal() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.islands = make(map[PeerID]int)
}

// PendingEvents returns the steps that still have scheduled events, sorted
// (diagnostics: a drained schedule means the scenario ran to completion).
func (p *FaultPlan) PendingEvents() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	steps := make([]int, 0, len(p.schedule))
	for s := range p.schedule {
		steps = append(steps, s)
	}
	sort.Ints(steps)
	return steps
}

// decide draws the fate of one message: dropped by partition or loss,
// duplicated, and/or delayed by jitter. Called once per Send by Network.
func (p *FaultPlan) decide(from, to PeerID) (drop, dup bool, extra time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.islands) > 0 && p.islands[from] != p.islands[to] {
		return true, false, 0
	}
	rate := p.dropRate
	if r, ok := p.linkDrop[linkKey{from, to}]; ok {
		rate = r
	}
	if rate > 0 && p.rng.Float64() < rate {
		return true, false, 0
	}
	if p.dupRate > 0 && p.rng.Float64() < p.dupRate {
		dup = true
	}
	if p.jitter > 0 {
		extra = time.Duration(p.rng.Int63n(int64(p.jitter)))
	}
	return false, dup, extra
}
