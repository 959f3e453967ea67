package main

import (
	"context"
	"sort"
	"sync"
	"time"
)

// openLoop sends n ops on a fixed schedule, op i due at i/rate, whether or
// not earlier ops have come back. Latency counts from the due time, not
// from when the op actually left, so a stall anywhere — the server, the
// connection, the generator itself — is charged to every op it delayed.
type openLoop struct {
	rate    float64 // ops per second
	n       int
	maxOpen int // in-flight cap; arrivals beyond it are refused

	now    func() time.Duration // since the loop began
	sleep  func(time.Duration)
	launch func(func())      // runs an op without blocking the schedule
	do     func(i int) error // the op itself; blocks until its reply
}

type openResult struct {
	latencies []float64 // ms from due time, finished ops, ascending
	late      []float64 // ms the generator dispatched each op after it was due
	attempted int
	failed    int // ops that came back with an error or a wrong answer
	refused   int // arrivals turned away at the in-flight cap
	backlog   int // ops still in flight when the last one was due
}

func (g *openLoop) run() openResult {
	var (
		mu   sync.Mutex
		res  openResult
		open int
		wg   sync.WaitGroup
	)
	for i := 0; i < g.n; i++ {
		due := time.Duration(float64(i) / g.rate * float64(time.Second))
		if d := due - g.now(); d > 0 {
			g.sleep(d)
		}
		late := g.now() - due
		mu.Lock()
		res.attempted++
		res.late = append(res.late, ms(late))
		if open >= g.maxOpen {
			res.refused++
			mu.Unlock()
			continue
		}
		open++
		mu.Unlock()
		wg.Add(1)
		i := i
		g.launch(func() {
			defer wg.Done()
			err := g.do(i)
			lat := g.now() - due
			mu.Lock()
			open--
			if err != nil {
				res.failed++
			} else {
				res.latencies = append(res.latencies, ms(lat))
			}
			mu.Unlock()
		})
	}
	mu.Lock()
	res.backlog = open
	mu.Unlock()
	wg.Wait()
	sort.Float64s(res.latencies)
	return res
}

// runOpenLoop drives ep at the workload's arrival rate for dur, requests
// multiplexed on the same connections the closed loop uses.
func runOpenLoop(ctx context.Context, ep *endpoint, w *workload, dur time.Duration) openResult {
	ctx, cancel := context.WithTimeout(ctx, dur+safetyDeadline*time.Second)
	defer cancel()
	start := time.Now()
	g := &openLoop{
		rate:    w.spec.OpenRate,
		n:       int(w.spec.OpenRate * dur.Seconds()),
		maxOpen: openLoopMaxOpen,
		now:     func() time.Duration { return time.Since(start) },
		sleep:   time.Sleep,
		launch:  func(f func()) { go f() },
		do: func(i int) error {
			c := i % clients
			// Write payloads must not collide with the closed loop's: the
			// open loop numbers its ops from the top of the op space.
			seq := i / clients
			o := w.ops[c][(len(w.ops[c])-1-seq)%len(w.ops[c])]
			_, _, _, err := execOp(ctx, ep, w, c%len(ep.clients), c, -1-seq, o)
			return err
		},
	}
	return g.run()
}
