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

// The streaming query surface. Peer.Query is the single entry point for
// every query shape GridVine answers — one triple pattern (with or without
// reformulation), a conjunctive pattern set, or an RDQL text query — and
// returns a Cursor that yields rows incrementally — a reformulating
// pattern's own rows after one routed operation, its reformulated rows as
// their key groups are answered, joined rows as pipeline stages complete —
// instead of after a full barrier.
//
// The request's context governs the whole query: cancelling it (or letting
// its deadline expire) stops the engine mid-fan-out — between routing hops,
// between pool items, between waves and between pushdown chunks — releases
// every pooled worker, and terminates the cursor with ctx.Err() after the
// rows already produced. Request.Limit propagates into the engine, so a
// top-k query stops issuing overlay lookups once enough rows exist.
//
// Callers that want the whole answer at once drain the cursor with
// CollectPattern, CollectSet or CollectRows.

// Request unifies the query surface. Exactly one of Pattern, Patterns and
// RDQL must be set.
type Request struct {
	// Pattern asks for a triple-pattern search (paper §2.3:
	// SearchFor(x? : (s, p, o))). Rows carry the matched triple and its
	// reformulation provenance in Result.
	Pattern *triple.Pattern
	// Patterns asks for a conjunctive query over the planning engine. Rows
	// carry the joined variable values, aligned with Cursor.Columns().
	Patterns []triple.Pattern
	// RDQL is an RDQL text query: its WHERE patterns form the conjunction,
	// its SELECT clause the output columns (projected rows are
	// deduplicated), and an RDQL LIMIT clause merges into Limit (the
	// smaller wins).
	RDQL string
	// Reformulate additionally traverses the schema-mapping network,
	// rewriting predicates by view unfolding (paper §4).
	Reformulate bool
	// Limit caps how many rows the cursor yields; 0 means unlimited. The
	// limit reaches into the engine: a limited pattern search ships its
	// reformulated variants after every wave instead of once at the end, so
	// a satisfied one looks no further mappings up, and a satisfied
	// conjunctive query skips the remaining pushdown lookups of its final
	// join stage.
	Limit int
	// Options tunes reformulation and the conjunctive planner.
	Options SearchOptions
}

// kind classifies a validated request.
func (r Request) kind() (pattern bool, err error) {
	set := 0
	if r.Pattern != nil {
		set++
	}
	if len(r.Patterns) > 0 {
		set++
	}
	if r.RDQL != "" {
		set++
	}
	if set != 1 {
		return false, errors.New("mediation: request must set exactly one of Pattern, Patterns, RDQL")
	}
	if r.Limit < 0 {
		return false, fmt.Errorf("mediation: negative request limit %d", r.Limit)
	}
	return r.Pattern != nil, nil
}

// QueryRow is one streamed answer.
type QueryRow struct {
	// Values are the output column values, positionally aligned with
	// Cursor.Columns(): the joined (or SELECT-projected) variable values
	// for conjunctive and RDQL requests, the pattern's variable bindings
	// for pattern requests.
	Values []string
	// Result carries the matched triple and its reformulation provenance;
	// set for pattern requests only.
	Result *Result
}

// QueryStats reports how a streamed query executed. Row, message and
// timing counters are safe to read mid-stream (they grow as the engine
// runs); the totals are final once the cursor is exhausted or closed.
type QueryStats struct {
	// Rows is the number of rows the engine has handed over so far — taken
	// by the consumer or sitting in the cursor's buffer ahead of it.
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
	// FirstRow is the time from Query to the first row becoming available
	// to the consumer; zero while no row has been produced.
	FirstRow time.Duration
	// Elapsed is the total engine wall-clock, set when the engine finishes.
	Elapsed time.Duration
}

// Cursor yields the rows of one streamed query. It is not safe for
// concurrent use by multiple consumers. Always Close a cursor (draining it
// to exhaustion also suffices) — Close cancels the engine and waits for
// every worker it spawned to exit, so abandoned cursors never leak
// goroutines.
type Cursor struct {
	// ch carries the rows a chunk at a time (at most rowChunk, never none):
	// the engine and the consumer meet once per chunk, not once per row.
	ch chan []QueryRow
	// chunk and next are the consumer's: the chunk Next is handing out and
	// how far into it Next is.
	chunk []QueryRow
	next  int
	// pending is the engine goroutine's: the rows emitted since the last
	// hand-over.
	pending []QueryRow

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

	// CollectPattern bookkeeping: the aggregate ResultSet is rebuilt from
	// the engine's summary.
	pattern *ResultSet

	started time.Time
}

// Query starts req's execution and returns a cursor over its rows. The
// returned error covers request validation (and RDQL parsing) only;
// execution errors surface through Cursor.Err once the stream ends. ctx
// governs the whole query — see the package notes above.
func (p *Peer) Query(ctx context.Context, req Request) (*Cursor, error) {
	isPattern, err := req.kind()
	if err != nil {
		return nil, err
	}
	var parsed *rdql.Query
	if req.RDQL != "" {
		q, err := rdql.Parse(req.RDQL)
		if err != nil {
			return nil, err
		}
		parsed = &q
		req.Patterns = q.Patterns
		if q.Limit > 0 && (req.Limit == 0 || q.Limit < req.Limit) {
			req.Limit = q.Limit
		}
	}

	qctx, cancel := context.WithCancel(ctx)
	c := &Cursor{
		ch:      make(chan []QueryRow, 1),
		done:    make(chan struct{}),
		cancel:  cancel,
		reqCtx:  ctx,
		started: time.Now(),
	}
	go func() {
		var err error
		if isPattern {
			err = c.runPattern(qctx, p, req)
		} else {
			err = c.runConjunctive(qctx, p, req, parsed)
		}
		if !c.handOver(qctx) && err == nil {
			err = qctx.Err() // the last rows were dropped: the stream is cut short
		}
		c.mu.Lock()
		if c.err == nil {
			c.err = err
		}
		c.stats.Elapsed = time.Since(c.started)
		c.mu.Unlock()
		close(c.ch)
		close(c.done)
	}()
	return c, nil
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
// the caller's to keep. A consumer that forwards rows (the wire server: one
// RowChunk frame a hand-over) sees them as early as the engine lets go of
// them, without meeting the engine once a row.
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
// with). For conjunctive requests they are known once the first join stage
// completes; before that, nil.
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

// setCols records the output schema (first caller wins).
func (c *Cursor) setCols(cols []string) {
	c.mu.Lock()
	if c.cols == nil {
		c.cols = cols
	}
	c.mu.Unlock()
}

// rowChunk is the most rows the engine hands the consumer at a time — the
// most one wire.RowChunk frame carries.
const rowChunk = 128

// send queues one row for the consumer and hands a full chunk over, blocking
// until it is accepted or the query context fires; false reports that the
// rows could not be delivered.
func (c *Cursor) send(ctx context.Context, row QueryRow) bool {
	if c.pending == nil {
		c.pending = make([]QueryRow, 0, rowChunk)
	}
	c.pending = append(c.pending, row)
	return len(c.pending) < rowChunk || c.handOver(ctx)
}

// handOver passes the rows sent since the last hand-over to the consumer as
// one chunk. The engine calls it whenever it goes back to the overlay after
// emitting, and as it exits, so a row never waits on an operation it does
// not depend on. A chunk the buffer has room for is delivered even when ctx
// has already fired: rows produced ahead of a cancellation stand.
func (c *Cursor) handOver(ctx context.Context) bool {
	if len(c.pending) == 0 {
		return true
	}
	select {
	case c.ch <- c.pending:
	default:
		select {
		case c.ch <- c.pending:
		case <-ctx.Done():
			return false
		}
	}
	c.mu.Lock()
	first := c.stats.Rows == 0
	if first {
		c.stats.FirstRow = time.Since(c.started)
	}
	c.stats.Rows += len(c.pending)
	c.mu.Unlock()
	c.pending = nil
	if first {
		// The consumer the send just woke waits in this processor's run
		// queue. In a daemon the engine's next overlay operation is a read
		// of a co-hosted peer, delivered on this goroutine, so it never
		// gives the processor up: yield, so the first rows leave (one wire
		// RowChunk) before the engine goes on.
		runtime.Gosched()
	}
	return true
}

// runPattern executes a pattern request, emitting each raw result as the
// engine's flushes deliver it.
func (c *Cursor) runPattern(ctx context.Context, p *Peer, req Request) error {
	q := *req.Pattern
	vars := q.Variables()
	c.setCols(vars)
	positions := make([]triple.Position, len(vars))
	for i, v := range vars {
		positions[i] = firstVarPosition(q, v)
	}

	emitted := 0
	emit := func(ts []triple.Triple, via Provenance) bool {
		if req.Limit > 0 {
			ts = ts[:min(len(ts), req.Limit-emitted)]
		}
		// One provenance, one array of results and one of values per answer,
		// not per row.
		results := make([]Result, len(ts))
		values := make([]string, len(ts)*len(vars))
		if c.pending == nil {
			c.pending = make([]QueryRow, 0, min(len(ts), rowChunk))
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
			if !c.send(ctx, QueryRow{Values: row, Result: &results[i]}) {
				return false
			}
		}
		emitted += len(ts)
		return req.Limit == 0 || emitted < req.Limit
	}
	sink := answerSink{emit: emit, flush: func() { c.handOver(ctx) }}

	rs, err := p.streamPattern(ctx, q, nil, req.Reformulate, req.Options, req.Limit > 0, sink)
	c.mu.Lock()
	if rs != nil {
		c.pattern = rs
		c.stats.Messages = rs.Messages
		c.stats.Reformulations = rs.Reformulations
		c.stats.Route = rs.Route
		c.stats.Degraded = rs.Degraded
	}
	c.mu.Unlock()
	return err
}

// runConjunctive executes a conjunctive (or RDQL) request through the
// planning engine, emitting joined rows as the final join stage produces
// them. RDQL requests are projected to their SELECT variables with
// duplicate rows collapsed.
func (c *Cursor) runConjunctive(ctx context.Context, p *Peer, req Request, parsed *rdql.Query) error {
	// deliver pushes one output row, enforcing Request.Limit: false stops
	// the engine (which skips the remaining lookups of its final stage).
	emitted := 0
	deliver := func(row []string) bool {
		if req.Limit > 0 && emitted >= req.Limit {
			return false
		}
		if !c.send(ctx, QueryRow{Values: row}) {
			return false
		}
		emitted++
		return req.Limit == 0 || emitted < req.Limit
	}

	sink := rowSink{
		cols:  func(vars []string, _ bool) { c.setCols(vars) },
		emit:  deliver,
		flush: func() { c.handOver(ctx) },
	}
	if parsed != nil {
		var colIdx []int
		missing := false
		var dedupe projectionDedupe
		// Projected rows are carved from free, which is renewed for twice as
		// many rows each time, up to a chunk's worth.
		var free []string
		grow := 8
		sink = rowSink{
			flush: sink.flush,
			cols: func(vars []string, ascending bool) {
				c.setCols(append([]string(nil), parsed.Select...))
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

	stats, err := p.streamConjunctive(ctx, req.Patterns, req.Reformulate, req.Options, sink)
	c.mu.Lock()
	c.stats.Conjunctive = stats
	c.stats.Messages = stats.RouteMessages
	c.stats.Reformulations = stats.Reformulations
	c.stats.Degraded = stats.Degraded
	c.mu.Unlock()
	return err
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

// CollectRows drains a cursor under ctx into the deduplicated, sorted
// projected-row representation of an RDQL answer, alongside the execution
// statistics. It closes the cursor. Pair it with Peer.Query and
// Request.RDQL to get the whole answer at once.
func CollectRows(ctx context.Context, cur *Cursor) ([]rdql.Row, ConjunctiveStats, error) {
	var rows []rdql.Row
	for {
		row, ok := cur.Next(ctx)
		if !ok {
			break
		}
		rows = append(rows, rdql.Row(row.Values))
	}
	cur.Close()
	stats := cur.Stats().Conjunctive
	if err := cur.Err(); err != nil {
		return nil, stats, err
	}
	rdql.SortRows(rows)
	return rows, stats, nil
}
