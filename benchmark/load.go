package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gridvine/internal/triple"
	"gridvine/internal/wire"
)

// sample is one finished op as the client saw it.
type sample struct {
	kind   opKind
	slice  int           // index of the slice of the timed window it ran in
	total  time.Duration // send → cursor closed, or Write → durable Receipt
	first  time.Duration // send → first Cursor.Next returned (queries)
	failed bool
}

// execOp sends one op on connection d of ep and waits for its full reply.
// c and seq identify the op for write payloads. A query whose row count
// differs from the check phase's answer is a failure: a wrong answer must
// never produce a fast number.
func execOp(ctx context.Context, ep *endpoint, w *workload, d, c, seq int, o op) (first, total time.Duration, acked []triple.Triple, err error) {
	hosted := ep.peerIDs[d]
	peer := hosted[int(o.Issuer)%len(hosted)]
	t0 := time.Now()
	if o.Kind == opWrite {
		ts := w.writePayload(c, seq)
		rec, err := ep.clients[d].Write(ctx, wire.Write{Peer: peer, Inserts: ts, Parallelism: ep.parallelism})
		total = time.Since(t0)
		if err != nil {
			return 0, total, nil, err
		}
		if rec.Applied != len(ts) {
			return 0, total, nil, fmt.Errorf("write via %s applied %d of %d", peer, rec.Applied, len(ts))
		}
		w.userBytes.Add(triplesBytes(ts))
		return 0, total, ts, nil
	}
	pq := &w.pool[o.Pool]
	q := pq.query
	q.Peer = peer
	q.Options.Parallelism = ep.parallelism
	cur, err := ep.clients[d].Query(ctx, q)
	if err != nil {
		return 0, time.Since(t0), nil, err
	}
	rows := 0
	for {
		_, ok := cur.Next(ctx)
		if rows == 0 {
			first = time.Since(t0)
		}
		if !ok {
			break
		}
		rows++
	}
	err = cur.Close()
	total = time.Since(t0)
	if err == nil {
		err = ctx.Err()
	}
	if err == nil && rows != len(pq.rows) {
		err = fmt.Errorf("wrong answer: pool query %d via %s returned %d rows, check phase saw %d",
			o.Pool, peer, rows, len(pq.rows))
	}
	return first, total, nil, err
}

// resourceMark is a reading of the process's cumulative CPU time and heap
// allocation.
type resourceMark struct {
	at    time.Duration
	cpu   time.Duration
	alloc uint64
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func markResources(since time.Time) resourceMark {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // RUSAGE_SELF cannot fail
	metrics.Read(allocSample)
	return resourceMark{
		at:    time.Since(since),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: allocSample[0].Value.Uint64(),
	}
}

// loopSlice is one stretch of the timed window: all clients running from
// `from` until the last of them has parked at `to`, and the machine's speed
// factor measured with the cluster idle just before and just after it.
type loopSlice struct {
	from, to resourceMark
	speed    float64
}

// loopResult is the closed-loop phase: every timed sample and the slices
// they were taken in.
type loopResult struct {
	samples   []sample
	slices    []loopSlice
	attempted int
	failed    int
	firstErr  error
	acked     [][]triple.Triple // a sample of acknowledged writes
}

// gate parks the closed loop's clients between ops while the controller
// calibrates. slice is the index of the running slice, -1 during warm-up.
type gate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	paused  bool
	stopped bool
	parked  int
	active  int
	slice   int
}

func newGate(active int) *gate {
	g := &gate{active: active, slice: -1}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// pass is called by a client between two ops. It blocks while the gate is
// paused and reports the slice the next op belongs to; ok is false once
// the loop has been stopped.
func (g *gate) pass() (slice int, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.paused && !g.stopped {
		g.parked++
		g.cond.Broadcast()
		for g.paused && !g.stopped {
			g.cond.Wait()
		}
		g.parked--
	}
	return g.slice, !g.stopped
}

// leave is called by a client that returns.
func (g *gate) leave() {
	g.mu.Lock()
	g.active--
	g.cond.Broadcast()
	g.mu.Unlock()
}

// pause returns once every client still running is parked between two ops.
func (g *gate) pause() {
	g.mu.Lock()
	g.paused = true
	for g.parked < g.active {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

func (g *gate) resume(slice int) {
	g.mu.Lock()
	g.paused, g.slice = false, slice
	g.cond.Broadcast()
	g.mu.Unlock()
}

func (g *gate) stop() {
	g.mu.Lock()
	g.stopped = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// closedLoop runs `clients` clients, each sending its next op only after
// the previous reply, for warm (untimed) plus dur. With a calibrator the
// timed window is cut into slices of sliceLen: between two slices the
// clients park, the cluster is idle and calib measures the machine's speed
// (see calibrate.go). Without one the window is a single slice of speed 1.
func closedLoop(ctx context.Context, ep *endpoint, w *workload, warm, dur time.Duration, calib *calibrator) (*loopResult, error) {
	ctx, cancel := context.WithTimeout(ctx, warm+2*dur+safetyDeadline*time.Second)
	defer cancel()

	res := &loopResult{}
	var mu sync.Mutex // guards res.firstErr, res.acked
	fail := func(err error) {
		mu.Lock()
		if res.firstErr == nil {
			res.firstErr = err
		}
		mu.Unlock()
	}
	perClient := make([][]sample, clients)
	var attempted, failed atomic.Int64
	g := newGate(clients)

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer g.leave()
			d := c % len(ep.clients)
			ops := w.ops[c]
			out := make([]sample, 0, 1<<16)
			defer func() { perClient[c] = out }()
			for seq := 0; ; seq++ {
				slice, ok := g.pass()
				if !ok {
					return
				}
				o := ops[seq%len(ops)]
				first, total, acked, err := execOp(ctx, ep, w, d, c, seq, o)
				timed := slice >= 0
				if timed || err != nil { // a warm-up failure is still a failure of the run
					attempted.Add(1)
				}
				if err != nil {
					failed.Add(1)
					fail(err)
					if ctx.Err() != nil {
						return
					}
				}
				if !timed {
					continue
				}
				if acked != nil && seq%64 == 0 {
					mu.Lock()
					res.acked = append(res.acked, acked)
					mu.Unlock()
				}
				out = append(out, sample{kind: o.Kind, slice: slice, total: total, first: first, failed: err != nil})
			}
		}(c)
	}
	finish := func() {
		g.stop()
		wg.Wait()
	}

	sliceLen, speeds := dur, []float64{1, 1}
	if calib != nil {
		sliceLen = calibSlice
	}
	n := int((dur + sliceLen - 1) / sliceLen)
	time.Sleep(warm)
	g.pause()
	if calib != nil {
		s, err := calib.measure()
		if err != nil {
			finish()
			return nil, err
		}
		speeds = []float64{s}
	}
	for i := 0; i < n; i++ {
		began := time.Now()
		var sl loopSlice
		sl.from = markResources(began)
		g.resume(i)
		time.Sleep(sliceLen)
		g.pause()
		sl.to = markResources(began)
		if calib != nil {
			s, err := calib.measure()
			if err != nil {
				finish()
				return nil, err
			}
			speeds = append(speeds, s)
		}
		sl.speed = (speeds[len(speeds)-2] + speeds[len(speeds)-1]) / 2
		res.slices = append(res.slices, sl)
	}
	finish()

	for _, s := range perClient {
		res.samples = append(res.samples, s...)
	}
	res.attempted = int(attempted.Load())
	res.failed = int(failed.Load())
	return res, nil
}

// closedLoopMetrics turns the phase into the gated metrics. Everything is
// taken over the whole timed window (all slices pooled): the ops completed
// in it, the CPU and allocation the process spent during it, percentiles of
// all its query latencies. Every time is first divided by the speed factor
// of its slice, so the values are times on a machine of nominal speed; raw
// holds the same metrics undivided, for the printout.
func closedLoopMetrics(res *loopResult) (norm, raw map[string]float64, counts map[string]int, err error) {
	var wall, wallN, cpu, cpuN, alloc float64
	var speeds []float64
	for _, sl := range res.slices {
		w, c := (sl.to.at - sl.from.at).Seconds(), ms(sl.to.cpu-sl.from.cpu)
		wall, wallN = wall+w, wallN+w/sl.speed
		cpu, cpuN = cpu+c, cpuN+c/sl.speed
		alloc += float64(sl.to.alloc - sl.from.alloc)
		speeds = append(speeds, sl.speed)
	}
	var lat, first, latN, firstN []float64
	ops := 0
	for _, s := range res.samples {
		if s.failed {
			continue
		}
		ops++
		if s.kind == opQuery {
			speed := res.slices[s.slice].speed
			lat, latN = append(lat, ms(s.total)), append(latN, ms(s.total)/speed)
			first, firstN = append(first, ms(s.first)), append(firstN, ms(s.first)/speed)
		}
	}
	if ops == 0 || wall <= 0 {
		return nil, nil, nil, fmt.Errorf("closed loop finished no op")
	}
	norm = map[string]float64{
		"ops_per_s":       float64(ops) / wallN,
		"cpu_ms_per_op":   cpuN / float64(ops),
		"alloc_kb_per_op": alloc / 1024 / float64(ops),
	}
	raw = map[string]float64{
		"ops_per_s":     float64(ops) / wall,
		"cpu_ms_per_op": cpu / float64(ops),
		"speed_factor":  median(speeds),
		"speed_mean":    mean(speeds),
		"speed_min":     minOf(speeds),
		"speed_max":     maxOf(speeds),
	}
	for _, pick := range []struct {
		name string
		p    float64
		xs   []float64
		into map[string]float64
	}{
		{"query_p50_ms", 50, latN, norm}, {"query_p90_ms", 90, latN, norm}, {"first_row_p50_ms", 50, firstN, norm},
		{"query_p50_ms", 50, lat, raw}, {"query_p90_ms", 90, lat, raw}, {"first_row_p50_ms", 50, first, raw},
	} {
		sort.Float64s(pick.xs)
		v, ok := percentile(pick.xs, pick.p)
		if !ok {
			return nil, nil, nil, fmt.Errorf("%s: %d query samples leave fewer than %d beyond it", pick.name, len(pick.xs), beyondMin)
		}
		pick.into[pick.name] = v
	}
	counts = map[string]int{"timed_ops": ops, "query_samples": len(lat), "write_samples": ops - len(lat), "slices": len(res.slices)}
	return norm, raw, counts, nil
}

// writeLatencies returns the sorted write latencies of the phase in ms.
func writeLatencies(samples []sample) []float64 {
	var out []float64
	for _, s := range samples {
		if s.kind == opWrite && !s.failed {
			out = append(out, ms(s.total))
		}
	}
	sort.Float64s(out)
	return out
}

// heapMB is HeapAlloc after a forced collection: what the process holds on
// to, which is where a cache shows.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
