package mediation

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"gridvine/internal/pgrid"
	"gridvine/internal/rdql"
	"gridvine/internal/triple"
)

// The query surface. Peer.Run is the one engine entry point for every query
// shape — one triple pattern (with or without reformulation), a
// conjunctive pattern set, or an RDQL text query — and pushes rows out as
// the engine produces them, not after a full barrier. Peer.Query is Run
// pulled lazily, and CollectPattern, CollectSet and CollectRows return the
// whole answer at once.
//
// The request's context governs the whole query: cancelling it (or letting
// its deadline expire) stops the engine mid-fan-out — between routing hops,
// between pool items, between waves and between pushdown chunks — releases
// every pooled worker, and ends the query with ctx.Err() after the rows
// already produced. Request.Limit propagates into the engine, so a top-k
// query stops issuing overlay lookups once enough rows exist.

// Request unifies the query surface. Exactly one of Pattern, Patterns and
// RDQL must be set.
type Request struct {
	// Pattern asks for a triple-pattern search (paper §2.3:
	// SearchFor(x? : (s, p, o))). Rows carry the matched triple and its
	// reformulation provenance in Result.
	Pattern *triple.Pattern
	// Patterns asks for a conjunctive query over the planning engine. Rows
	// carry the joined variable values, aligned with the output columns.
	Patterns []triple.Pattern
	// RDQL is an RDQL text query: its WHERE patterns form the conjunction,
	// its SELECT clause the output columns (projected rows are
	// deduplicated), and an RDQL LIMIT clause merges into Limit (the
	// smaller wins).
	RDQL string
	// Reformulate additionally traverses the schema-mapping network,
	// rewriting predicates by view unfolding (paper §4).
	Reformulate bool
	// Limit caps how many rows the query yields; 0 means unlimited. The
	// limit reaches into the engine: a limited pattern search ships its
	// reformulated variants after every wave instead of once at the end, so
	// a satisfied one looks no further mappings up, and a satisfied
	// conjunctive query skips the remaining pushdown lookups of its final
	// join stage.
	Limit int
	// Options tunes reformulation and the conjunctive planner.
	Options SearchOptions
}

// newRunner validates req and parses its RDQL text, if any: the WHERE
// patterns become Patterns and an RDQL LIMIT merges into Limit.
func newRunner(req *Request, emit func([]QueryRow, []string) bool) (*runner, error) {
	set := 0
	if req.Pattern != nil {
		set++
	}
	if len(req.Patterns) > 0 {
		set++
	}
	if req.RDQL != "" {
		set++
	}
	if set != 1 {
		return nil, errors.New("mediation: request must set exactly one of Pattern, Patterns, RDQL")
	}
	if req.Limit < 0 {
		return nil, fmt.Errorf("mediation: negative request limit %d", req.Limit)
	}
	r := &runner{req: *req, emit: emit}
	if req.RDQL == "" {
		return r, nil
	}
	q, err := rdql.Parse(req.RDQL)
	if err != nil {
		return nil, err
	}
	r.parsed, r.req.Patterns = &q, q.Patterns
	if q.Limit > 0 && (req.Limit == 0 || q.Limit < req.Limit) {
		r.req.Limit = q.Limit
	}
	return r, nil
}

// QueryRow is one streamed answer.
type QueryRow struct {
	// Values are the output column values, positionally aligned with the
	// output columns: the joined (or SELECT-projected) variable values for
	// conjunctive and RDQL requests, the pattern's variable bindings for
	// pattern requests.
	Values []string
	// Result carries the matched triple and its reformulation provenance;
	// set for pattern requests only.
	Result *Result
}

// QueryStats reports how a query executed. A Cursor's Rows grows as the
// engine hands rows over; every figure is final once the stream has ended.
type QueryStats struct {
	// Rows is the number of rows the engine handed over.
	Rows int
	// Messages is the number of overlay messages the request sent (for
	// conjunctive requests, Conjunctive.RouteMessages).
	Messages int
	// Reformulations counts mapping-graph rewrites performed.
	Reformulations int
	// Route is the overlay route of the primary lookup (pattern requests).
	Route pgrid.Route
	// Conjunctive carries the planner's full execution statistics
	// (conjunctive and RDQL requests).
	Conjunctive ConjunctiveStats
	// Degraded reports that the answer was assembled while routing around
	// unreachable peers — a lookup fell back to a live replica, or a
	// reformulation branch failed and was tolerated — so the stream may be
	// missing writes that have not finished an anti-entropy round. The
	// query still succeeds; consumers needing strict answers can check this
	// flag and retry after the overlay converges.
	Degraded bool
	// FirstRow is the time from the engine's start to its first hand-over;
	// zero while no row has been produced.
	FirstRow time.Duration
	// Elapsed is the total engine wall-clock, set when the engine finishes.
	Elapsed time.Duration
}

// rowChunk is the most rows the engine hands the consumer at a time — the
// most one wire.RowChunk frame carries.
const rowChunk = 128

// Run executes req on the calling goroutine and hands its rows to emit a
// chunk at a time (at most rowChunk rows, never none), with the output
// columns they align with: when a chunk is full, whenever the engine goes
// back to the overlay with rows emitted (before a flush ships, before a
// wave's lookups, between pushdown chunks) and as it exits. emit owns what
// it is handed — the engine never touches the chunk or its rows again — and
// returning false stops the engine at once, skipping the lookups the
// remaining rows would have needed. Run returns the output columns (also
// for no rows), the final statistics and the error: a validation or RDQL
// parse error, the engine's failure, or ctx.Err() when ctx fired or emit
// refused under a fired ctx; the rows emitted before it stand. Only wider
// Options.Parallelism pools start workers, all gone when Run returns.
func (p *Peer) Run(ctx context.Context, req Request, emit func(rows []QueryRow, cols []string) bool) ([]string, QueryStats, error) {
	r, err := newRunner(&req, emit)
	if err != nil {
		return nil, QueryStats{}, err
	}
	err = r.run(ctx, p)
	return r.cols, r.stats, err
}

// runner is one query's engine-side state: the validated request, the rows
// emitted since the last hand-over, the output columns and the statistics
// so far. It lives on the heap, the engine's frames take no copy of the
// request and the sinks are built in functions of their own: a query a
// Cursor pulls runs on a goroutine started for it, whose stack is copied
// each time it outgrows it (see reformulation.flush).
type runner struct {
	req     Request
	parsed  *rdql.Query
	emit    func([]QueryRow, []string) bool
	chunk   []QueryRow
	cols    []string
	stats   QueryStats
	started time.Time
	refused bool // emit returned false: no more rows are handed over
}

// run executes the request and hands the last rows over.
func (r *runner) run(ctx context.Context, p *Peer) error {
	r.started = time.Now()
	var err error
	if r.req.Pattern != nil {
		err = r.runPattern(ctx, p)
	} else {
		err = r.runConjunctive(ctx, p)
	}
	if !r.handOver() && err == nil {
		err = ctx.Err() // the consumer refused rows: the stream is cut short
	}
	r.stats.Elapsed = time.Since(r.started)
	return err
}

// send queues one row and hands a full chunk over; false stops the engine.
func (r *runner) send(row QueryRow) bool {
	if r.chunk == nil {
		r.chunk = make([]QueryRow, 0, rowChunk)
	}
	r.chunk = append(r.chunk, row)
	return len(r.chunk) < rowChunk || r.handOver()
}

// handOver passes the rows sent since the last hand-over to emit as one
// chunk; false reports that emit refused this chunk or an earlier one.
func (r *runner) handOver() bool {
	if r.refused || len(r.chunk) == 0 {
		return !r.refused
	}
	if r.stats.Rows == 0 {
		r.stats.FirstRow = time.Since(r.started)
	}
	r.stats.Rows += len(r.chunk)
	rows := r.chunk
	r.chunk = nil
	r.refused = !r.emit(rows, r.cols)
	return !r.refused
}

// runPattern executes a pattern request, emitting each raw result as the
// engine's flushes deliver it.
func (r *runner) runPattern(ctx context.Context, p *Peer) error {
	rs, err := p.streamPattern(ctx, *r.req.Pattern, nil, r.req.Reformulate, r.req.Options, r.req.Limit > 0, r.patternSink())
	if rs != nil {
		r.stats.Messages = rs.Messages
		r.stats.Reformulations = rs.Reformulations
		r.stats.Route = rs.Route
		r.stats.Degraded = rs.Degraded
	}
	return err
}

// patternSink turns each answer of a pattern request into rows, enforcing
// Request.Limit.
func (r *runner) patternSink() answerSink {
	q, limit := *r.req.Pattern, r.req.Limit
	vars := q.Variables()
	r.cols = vars
	positions := make([]triple.Position, len(vars))
	for i, v := range vars {
		positions[i] = firstVarPosition(q, v)
	}
	emitted := 0
	emit := func(ts []triple.Triple, via Provenance) bool {
		if limit > 0 {
			ts = ts[:min(len(ts), limit-emitted)]
		}
		// One provenance, one array of results and one of values per answer,
		// not per row.
		results := make([]Result, len(ts))
		values := make([]string, len(ts)*len(vars))
		if r.chunk == nil {
			r.chunk = make([]QueryRow, 0, min(len(ts), rowChunk))
		}
		for i, t := range ts {
			results[i] = Result{Triple: t, Provenance: &via}
			row := values[i*len(vars) : (i+1)*len(vars) : (i+1)*len(vars)]
			for j := range row {
				// Reformulation rewrites only the constant predicate, so the
				// variable positions of every reformulated variant coincide
				// with the original pattern's.
				row[j] = t.Component(positions[j])
			}
			if !r.send(QueryRow{Values: row, Result: &results[i]}) {
				return false
			}
		}
		emitted += len(ts)
		return limit == 0 || emitted < limit
	}
	return answerSink{emit: emit, flush: r.handOver}
}

// runConjunctive executes a conjunctive (or RDQL) request through the
// planning engine, emitting joined rows as the final join stage produces
// them.
func (r *runner) runConjunctive(ctx context.Context, p *Peer) error {
	stats, err := p.streamConjunctive(ctx, r.req.Patterns, r.req.Reformulate, r.req.Options, r.conjunctiveSink())
	r.stats.Conjunctive = stats
	r.stats.Messages = stats.RouteMessages
	r.stats.Reformulations = stats.Reformulations
	r.stats.Degraded = stats.Degraded
	return err
}

// conjunctiveSink delivers a conjunctive request's rows, enforcing
// Request.Limit. RDQL requests are projected to their SELECT variables with
// duplicate rows collapsed.
func (r *runner) conjunctiveSink() rowSink {
	// deliver pushes one output row: false stops the engine (which skips
	// the remaining lookups of its final stage).
	limit, emitted := r.req.Limit, 0
	deliver := func(row []string) bool {
		if limit > 0 && emitted >= limit {
			return false
		}
		if !r.send(QueryRow{Values: row}) {
			return false
		}
		emitted++
		return limit == 0 || emitted < limit
	}
	parsed := r.parsed
	if parsed == nil {
		return rowSink{
			cols:  func(vars []string, _ bool) { r.cols = vars },
			emit:  deliver,
			flush: r.handOver,
		}
	}
	var colIdx []int
	missing := false
	var dedupe projectionDedupe
	// Projected rows are carved from free, which is renewed for twice as
	// many rows each time, up to a chunk's worth.
	var free []string
	grow := 8
	return rowSink{
		flush: r.handOver,
		cols: func(vars []string, ascending bool) {
			r.cols = append([]string(nil), parsed.Select...)
			colIdx = make([]int, len(parsed.Select))
			dedupe.lead = -1
			for i, v := range parsed.Select {
				colIdx[i] = -1
				for j, bv := range vars {
					if bv == v {
						colIdx[i] = j
						break
					}
				}
				if colIdx[i] < 0 {
					missing = true
				}
				if colIdx[i] == 0 && ascending {
					dedupe.lead = i
				}
			}
		},
		emit: func(row []string) bool {
			if missing {
				// A selected variable no row binds: nothing projects.
				return false
			}
			if len(free) < len(colIdx) {
				free = make([]string, len(colIdx)*grow)
				grow = min(2*grow, rowChunk)
			}
			out := free[:len(colIdx):len(colIdx)]
			for i, idx := range colIdx {
				out[i] = row[idx]
			}
			if dedupe.repeat(out) {
				return true // the next row overwrites out
			}
			free = free[len(colIdx):]
			return deliver(out)
		},
	}
}

// Cursor yields the rows of one query pulled lazily: Peer.Query runs Run
// on a goroutine of its own, whose emit passes each chunk through a
// one-chunk buffer to the consumer. It is not safe for concurrent use by
// multiple consumers. Always Close a cursor (draining it to exhaustion also
// suffices) — Close cancels the engine and waits for every worker it
// spawned to exit, so abandoned cursors never leak goroutines.
type Cursor struct {
	// ch carries the rows a chunk at a time (at most rowChunk, never none):
	// the engine and the consumer meet once per chunk, not once per row.
	ch chan []QueryRow
	// chunk and next are the consumer's: the chunk Next is handing out and
	// how far into it Next is.
	chunk []QueryRow
	next  int

	done   chan struct{}
	cancel context.CancelFunc
	// reqCtx is the caller's request context; Close consults it to tell a
	// caller-initiated cancellation (an error worth reporting) apart from
	// the one Close itself provokes.
	reqCtx context.Context

	mu    sync.Mutex
	cols  []string
	err   error
	stats QueryStats
}

// Query validates req and starts its execution on a goroutine of its own,
// returning a cursor over its rows. The returned error covers request
// validation (and RDQL parsing) only; execution errors surface through
// Cursor.Err once the stream ends. ctx governs the whole query — see the
// package notes above. A consumer that takes every row as it comes calls
// Run instead and pays no goroutine.
func (p *Peer) Query(ctx context.Context, req Request) (*Cursor, error) {
	r, err := newRunner(&req, nil)
	if err != nil {
		return nil, err
	}
	qctx, cancel := context.WithCancel(ctx)
	c := &Cursor{ch: make(chan []QueryRow, 1), done: make(chan struct{}), cancel: cancel, reqCtx: ctx}
	r.emit = func(rows []QueryRow, cols []string) bool { return c.handOver(qctx, rows, cols) }
	go func() {
		err := r.run(qctx, p)
		c.mu.Lock()
		c.cols, c.err, c.stats = r.cols, err, r.stats
		c.mu.Unlock()
		close(c.ch)
		close(c.done)
	}()
	return c, nil
}

// handOver is the cursor's emit: it passes one chunk to the consumer,
// blocking until the buffer takes it or ctx fires. A chunk the buffer has
// room for is delivered even when ctx has already fired: rows produced
// ahead of a cancellation stand.
func (c *Cursor) handOver(ctx context.Context, rows []QueryRow, cols []string) bool {
	c.mu.Lock()
	first := c.stats.Rows == 0
	c.cols = cols // known before the consumer sees the rows
	c.stats.Rows += len(rows)
	c.mu.Unlock()
	select {
	case c.ch <- rows:
	default:
		select {
		case c.ch <- rows:
		case <-ctx.Done():
			return false
		}
	}
	if first {
		// The consumer the send just woke waits in this processor's run
		// queue. In a daemon the engine's next overlay operation is a read
		// of a co-hosted peer, delivered on this goroutine, so it never
		// gives the processor up: yield, so the first rows leave before the
		// engine goes on.
		runtime.Gosched()
	}
	return true
}

// Next yields the next row. ok=false means either the stream ended —
// exhausted, failed, or query-cancelled; consult Err to distinguish — or
// the per-call wait ctx fired first. The wait ctx only bounds this call:
// it neither stops the engine nor marks the cursor failed (check your own
// ctx.Err() to tell a timed-out wait from exhaustion), so a later Next with
// a fresh ctx keeps yielding. Buffered rows are drained before ctx is
// considered, so rows produced ahead of a cancellation are not lost.
func (c *Cursor) Next(ctx context.Context) (QueryRow, bool) {
	if c.next == len(c.chunk) && !c.receive(ctx) {
		return QueryRow{}, false
	}
	row := c.chunk[c.next]
	c.next++
	return row, true
}

// NextChunk is Next by the hand-over: it yields every row the engine passed
// on at once — what is left of the chunk Next was reading, else the next
// one whole, never none — under Next's rules for ok and ctx. The rows are
// the caller's to keep.
func (c *Cursor) NextChunk(ctx context.Context) ([]QueryRow, bool) {
	if c.next == len(c.chunk) && !c.receive(ctx) {
		return nil, false
	}
	rows := c.chunk[c.next:]
	c.next = len(c.chunk)
	return rows, true
}

// receive waits for the engine's next hand-over; false means the stream
// ended or ctx fired first.
func (c *Cursor) receive(ctx context.Context) bool {
	// Prefer already-produced rows over a concurrently-firing ctx.
	select {
	case c.chunk = <-c.ch:
	default:
		select {
		case c.chunk = <-c.ch:
		case <-ctx.Done():
			return false
		}
	}
	c.next = 0
	return len(c.chunk) > 0 // none: closed, the stream ended
}

// Columns returns the output column names (the variable schema rows align
// with). They are known once the first rows are handed over, or the stream
// has ended; before that, nil.
func (c *Cursor) Columns() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.cols))
	copy(out, c.cols)
	return out
}

// Err returns the stream's terminal error: nil after clean exhaustion, the
// engine's failure, or the context error when the query was cancelled or
// its deadline expired (the rows yielded before that stand).
func (c *Cursor) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Stats returns a snapshot of the execution statistics; totals are final
// once the stream has ended.
func (c *Cursor) Stats() QueryStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Close cancels the engine and waits until every worker goroutine has
// exited. It is idempotent and returns the terminal error, except the
// context.Canceled an early Close itself provokes — a cancellation of the
// request context counts as a real error and is returned.
func (c *Cursor) Close() error {
	c.cancel()
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	if errors.Is(c.err, context.Canceled) && c.reqCtx.Err() == nil {
		return nil
	}
	return c.err
}

// runScan is how many rows of a run projectionDedupe compares a row with
// one by one before it keys the run in a map.
const runScan = 8

// projectionDedupe drops the repeated rows of an RDQL projection. When the
// engine's rows ascend in their column 0 and the projection keeps it (at
// lead), equal projected rows share that value, so a repeat can only sit in
// the current run of it: a row is compared with the run's rows, one by one
// up to runScan and through a map of the run's keys beyond. Otherwise
// (lead < 0) one map holds the key of every row kept.
type projectionDedupe struct {
	lead int
	run  [][]string
	seen map[string]struct{}
	key  []byte
}

// repeat reports whether row repeats a row already kept, and keeps it if
// not. A kept row must not change afterwards.
func (d *projectionDedupe) repeat(row []string) bool {
	if d.lead >= 0 {
		if len(d.run) > 0 && d.run[0][d.lead] != row[d.lead] {
			d.run = d.run[:0]
			if len(d.seen) > 0 {
				clear(d.seen)
			}
		}
		if len(d.run) < runScan {
			for _, kept := range d.run {
				if slices.Equal(kept, row) {
					return true
				}
			}
			d.run = append(d.run, row)
			return false
		}
		if len(d.seen) == 0 {
			// The run outgrew the scan: key the rows it holds.
			for _, kept := range d.run {
				d.keep(kept)
			}
		}
	}
	return !d.keep(row)
}

// keep adds row's key to the seen map and reports whether it was new.
func (d *projectionDedupe) keep(row []string) bool {
	d.key = triple.AppendRowKey(d.key[:0], row)
	if _, dup := d.seen[string(d.key)]; dup {
		return false
	}
	if d.seen == nil {
		d.seen = make(map[string]struct{})
	}
	d.seen[string(d.key)] = struct{}{}
	return true
}

// CollectRows is CollectSet with the sorted rows as RDQL projected rows.
func CollectRows(ctx context.Context, p *Peer, req Request) ([]rdql.Row, ConjunctiveStats, error) {
	bs, stats, err := CollectSet(ctx, p, req)
	if err != nil {
		return nil, stats, err
	}
	var rows []rdql.Row
	for _, row := range bs.Rows {
		rows = append(rows, row)
	}
	return rows, stats, nil
}
