// Package loadgen drives a GridVine cluster through the wire protocol
// at scale: thousands of concurrent client connections, each issuing a
// mixed stream of writes and streamed queries, with per-operation
// latency recorded client-side. It is the measurement engine behind
// `gridvinectl load`.
package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridvine/internal/triple"
	"gridvine/internal/wire"
)

// Config parameterizes one load run.
type Config struct {
	// Addrs are the daemons' wire client addresses; connections are
	// spread round-robin. Required.
	Addrs []string
	// Connections is the number of concurrent client connections
	// (default 64). Each connection is an independent worker.
	Connections int
	// Duration is how long to sustain the load (default 5s).
	Duration time.Duration
	// WriteRatio is the fraction of operations that are writes, in
	// [0,1]: 0 — the zero value — issues only queries, 1 only writes.
	// Values outside the range fall back to 0.2.
	WriteRatio float64
	// QueryPredicate is the predicate the query mix matches on
	// (default "Bench#p" — the preload namespace, so result sets are
	// stable under concurrent writes into the Load# namespace).
	QueryPredicate string
	// WritePredicate is the predicate written triples carry (default
	// "Load#p"). Keeping it disjoint from QueryPredicate keeps the
	// benchmark queries equivalence-checkable.
	WritePredicate string
	// QueryLimit caps rows per query (default 64).
	QueryLimit int
	// Seed makes the op mix deterministic per connection.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Connections <= 0 {
		c.Connections = 64
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.WriteRatio < 0 || c.WriteRatio > 1 {
		c.WriteRatio = 0.2
	}
	if c.QueryPredicate == "" {
		c.QueryPredicate = "Bench#p"
	}
	if c.WritePredicate == "" {
		c.WritePredicate = "Load#p"
	}
	if c.QueryLimit <= 0 {
		c.QueryLimit = 64
	}
	return c
}

// Result is one load run's aggregate: counts, sustained throughput,
// and client-observed latency percentiles across all operations.
type Result struct {
	Connections int           `json:"connections"`
	Elapsed     time.Duration `json:"-"`
	ElapsedMS   int64         `json:"elapsed_ms"`
	Ops         int64         `json:"ops"`
	Queries     int64         `json:"queries"`
	Writes      int64         `json:"writes"`
	Rows        int64         `json:"rows"`
	Errors      int64         `json:"errors"`
	QPS         float64       `json:"qps"`
	P50Micros   int64         `json:"p50_us"`
	P99Micros   int64         `json:"p99_us"`
}

// Run sustains the configured load until Duration elapses (or ctx
// fires early) and aggregates the workers' measurements. Individual
// operation failures are counted, not fatal — workers re-dial and keep
// going, so the run also measures behaviour across daemon restarts.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("loadgen: no addresses")
	}
	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		allLats []int64
		queries atomic.Int64
		writes  atomic.Int64
		rows    atomic.Int64
		errs    atomic.Int64
	)
	start := time.Now()
	for i := 0; i < cfg.Connections; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lats := worker(runCtx, cfg, i, &queries, &writes, &rows, &errs)
			mu.Lock()
			allLats = append(allLats, lats...)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &Result{
		Connections: cfg.Connections,
		Elapsed:     elapsed,
		ElapsedMS:   elapsed.Milliseconds(),
		Queries:     queries.Load(),
		Writes:      writes.Load(),
		Rows:        rows.Load(),
		Errors:      errs.Load(),
	}
	res.Ops = res.Queries + res.Writes
	if elapsed > 0 {
		res.QPS = float64(res.Ops) / elapsed.Seconds()
	}
	sort.Slice(allLats, func(a, b int) bool { return allLats[a] < allLats[b] })
	res.P50Micros = percentile(allLats, 0.50)
	res.P99Micros = percentile(allLats, 0.99)
	return res, nil
}

// percentile reads the q-quantile from an ascending-sorted sample.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// worker owns one connection's lifetime: dial, issue ops until the run
// context fires, re-dial on failure. It returns the latencies (µs) of
// its successful operations.
func worker(ctx context.Context, cfg Config, id int, queries, writes, rows, errs *atomic.Int64) []int64 {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(id)))
	addr := cfg.Addrs[id%len(cfg.Addrs)]
	pat := triple.Pattern{S: triple.Var("s"), P: triple.Const(cfg.QueryPredicate), O: triple.Var("o")}
	var cl *wire.Client
	defer func() {
		if cl != nil {
			cl.Close()
		}
	}()
	var lats []int64
	for seq := 0; ctx.Err() == nil; seq++ {
		if cl == nil {
			c, err := wire.Dial(addr)
			if err != nil {
				errs.Add(1)
				select {
				case <-ctx.Done():
				case <-time.After(50 * time.Millisecond):
				}
				continue
			}
			cl = c
		}
		isWrite := rng.Float64() < cfg.WriteRatio
		began := time.Now()
		var err error
		if isWrite {
			err = doWrite(ctx, cl, cfg, id, seq)
		} else {
			err = doQuery(ctx, cl, cfg, &pat, rows)
		}
		if err != nil {
			if ctx.Err() != nil {
				break // run over; the failure is the cancellation
			}
			errs.Add(1)
			cl.Close()
			cl = nil
			continue
		}
		lats = append(lats, time.Since(began).Microseconds())
		if isWrite {
			writes.Add(1)
		} else {
			queries.Add(1)
		}
	}
	return lats
}

func doWrite(ctx context.Context, cl *wire.Client, cfg Config, id, seq int) error {
	opCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	rec, err := cl.Write(opCtx, wire.Write{Inserts: []triple.Triple{{
		Subject:   fmt.Sprintf("load-c%d-s%d", id, seq),
		Predicate: cfg.WritePredicate,
		Object:    fmt.Sprintf("v%d", seq),
	}}})
	if err != nil {
		return err
	}
	if rec.Applied == 0 {
		return fmt.Errorf("loadgen: write not applied")
	}
	return nil
}

func doQuery(ctx context.Context, cl *wire.Client, cfg Config, pat *triple.Pattern, rows *atomic.Int64) error {
	opCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	cur, err := cl.Query(opCtx, wire.Query{Pattern: pat, Limit: cfg.QueryLimit})
	if err != nil {
		return err
	}
	n := int64(0)
	for {
		if _, ok := cur.Next(opCtx); !ok {
			break
		}
		n++
	}
	if err := cur.Close(); err != nil {
		return err
	}
	rows.Add(n)
	return nil
}
