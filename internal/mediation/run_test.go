package mediation

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"gridvine/internal/triple"
)

// handOver is one chunk a consumer received: its rows (values, and the
// triple with its provenance for pattern requests) and the columns known
// with it.
type handOver struct {
	rows []QueryRow
	cols []string
}

// untimed drops the wall-clock figures of stats, the only ones two runs of
// one query may disagree on.
func untimed(st QueryStats) QueryStats {
	st.FirstRow, st.Elapsed = 0, 0
	return st
}

// TestRunMatchesCursorChunkForChunk: Run pushes exactly what a Cursor
// yields — the same hand-overs, rows in the same order, the same columns,
// statistics and error — for every query shape. Each side runs on its own
// copy of one network, since a peer's routing learns from the queries it
// issues.
func TestRunMatchesCursorChunkForChunk(t *testing.T) {
	const entities = 800
	_, runPeers := conjNetwork(t, 16, entities)
	_, curPeers := conjNetwork(t, 16, entities)
	serial := SearchOptions{Parallelism: 1}
	subject := triple.Pattern{S: triple.Const("s010"), P: triple.Var("p"), O: triple.Var("o")}
	org := triple.Pattern{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Const("species-2")}
	none := triple.Pattern{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Const("species-none")}
	join := func(species string) []triple.Pattern {
		return []triple.Pattern{
			{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Const(species)},
			{S: triple.Var("x"), P: triple.Const("A#len"), O: triple.Var("len")},
		}
	}
	for _, tc := range []struct {
		name   string
		req    Request
		chunks int // at least this many hand-overs
		check  func(QueryStats) bool
	}{
		{"plain pattern", Request{Pattern: &subject, Options: serial}, 1, nil},
		{"reformulating pattern", Request{Pattern: &org, Reformulate: true, Options: serial}, 3, nil},
		{"limit inside a chunk", Request{Pattern: &org, Reformulate: true, Limit: rowChunk + 5, Options: serial}, 2, nil},
		{"semi-join", Request{Patterns: join("species-2"), Options: SearchOptions{Parallelism: 1, PushdownLimit: -1}}, 2,
			func(st QueryStats) bool { return st.Conjunctive.SemiJoins > 0 }},
		{"pushdown", Request{Patterns: join("species-rare"), Options: SearchOptions{Parallelism: 1, PushdownLimit: 64}}, 2,
			func(st QueryStats) bool { return st.Conjunctive.Pushdowns > 0 }},
		{"rdql projection", Request{RDQL: `SELECT ?r WHERE (?x, <A#org>, "species-2"), (?x, <A#ref>, ?r)`, Reformulate: true, Options: serial}, 1, nil},
		{"zero rows", Request{Pattern: &none, Reformulate: true, Options: serial}, 0, nil},
		{"zero rows, joined", Request{Patterns: join("species-none"), Options: serial}, 0, nil},
	} {
		var pushed []handOver
		cols, stats, err := runPeers[5].Run(context.Background(), tc.req, func(rows []QueryRow, cols []string) bool {
			pushed = append(pushed, handOver{rows, cols})
			return true
		})

		cur, qerr := curPeers[5].Query(context.Background(), tc.req)
		if qerr != nil {
			t.Fatalf("%s: Query: %v", tc.name, qerr)
		}
		var pulled []handOver
		for {
			rows, ok := cur.NextChunk(context.Background())
			if !ok {
				break
			}
			pulled = append(pulled, handOver{rows, cur.Columns()})
		}
		cur.Close()

		if err != nil || cur.Err() != nil {
			t.Errorf("%s: Run error %v, cursor error %v", tc.name, err, cur.Err())
		}
		if len(pushed) < tc.chunks || (tc.check != nil && !tc.check(stats)) {
			t.Errorf("%s: %d hand-overs, stats %+v: the request does not exercise its shape", tc.name, len(pushed), stats)
		}
		if !reflect.DeepEqual(pushed, pulled) {
			t.Errorf("%s: Run handed over %d chunks, the cursor %d, or their rows or columns differ", tc.name, len(pushed), len(pulled))
		}
		if !reflect.DeepEqual(cols, cur.Columns()) || len(cols) == 0 {
			t.Errorf("%s: Run's columns %q, the cursor's %q", tc.name, cols, cur.Columns())
		}
		if !reflect.DeepEqual(untimed(stats), untimed(cur.Stats())) {
			t.Errorf("%s: stats differ:\nRun    %+v\ncursor %+v", tc.name, untimed(stats), untimed(cur.Stats()))
		}
		if n := tc.req.Limit; n > 0 && stats.Rows != n {
			t.Errorf("%s: %d rows under limit %d", tc.name, stats.Rows, n)
		}
	}
}

// TestRunStartsNoGoroutine: with a one-worker pool the engine runs on
// Run's caller, and emit is called on it, so no goroutine exists that did
// not before.
func TestRunStartsNoGoroutine(t *testing.T) {
	_, peers := conjNetwork(t, 16, 200)
	org := triple.Pattern{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Const("species-2")}
	for _, req := range []Request{
		{Pattern: &org, Reformulate: true, Options: SearchOptions{Parallelism: 1}},
		{RDQL: `SELECT ?x, ?len WHERE (?x, <A#org>, "species-rare"), (?x, <A#len>, ?len)`, Options: SearchOptions{Parallelism: 1}},
	} {
		before := countGoroutines(t)
		calls := 0
		_, _, err := peers[5].Run(context.Background(), req, func([]QueryRow, []string) bool {
			calls++
			if n := runtime.NumGoroutine(); n != before {
				t.Errorf("%d goroutines inside emit, %d before Run", n, before)
			}
			return true
		})
		if err != nil || calls == 0 {
			t.Fatalf("Run: %v after %d hand-overs", err, calls)
		}
	}
}

// TestRunCancelInsideEmit: a ctx cancelled from inside emit ends Run with
// ctx.Err() before the engine's next overlay operation; the rows emitted
// before stand.
func TestRunCancelInsideEmit(t *testing.T) {
	_, peers := chainNetwork(t, 8, 14)
	issuer := peers[3]
	q := triple.Pattern{S: triple.Var("x"), P: triple.Const("S0#org"), O: triple.Const("aspergillus")}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows := 0
	_, stats, err := issuer.Run(ctx, Request{Pattern: &q, Reformulate: true, Options: SearchOptions{Parallelism: 1}},
		func(chunk []QueryRow, _ []string) bool {
			rows += len(chunk)
			cancel() // the root's row, handed over before the first wave's lookups
			return true
		})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Run = %v, want context.Canceled", err)
	}
	if rows != 1 || stats.Rows != 1 {
		t.Errorf("%d rows emitted, stats %d; want the root's one row", rows, stats.Rows)
	}
}

// TestRunEmitRefusalSkipsLookups: emit returning false stops the engine
// at once — a search refused its first hand-over (the root's row) spends
// what one limited to that row spends, fewer messages than the full run
// (TestQueryLimitStopsFanOut's measure), and Run returns without error.
func TestRunEmitRefusalSkipsLookups(t *testing.T) {
	_, peers := chainNetwork(t, 8, 14)
	issuer := peers[3]
	q := triple.Pattern{S: triple.Var("x"), P: triple.Const("S0#org"), O: triple.Const("aspergillus")}
	run := func(limit int, refuse bool) QueryStats {
		t.Helper()
		_, stats, err := issuer.Run(context.Background(), Request{Pattern: &q, Reformulate: true, Limit: limit, Options: SearchOptions{Parallelism: 1}},
			func([]QueryRow, []string) bool { return !refuse })
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return stats
	}
	run(0, false) // the issuer learns its routes
	full := run(0, false)
	one := run(1, false)
	refused := run(0, true)
	if refused.Messages != one.Messages || refused.Messages >= full.Messages || refused.Rows != 1 {
		t.Errorf("refused after %d rows for %d messages; limit 1 spent %d, the full run %d",
			refused.Rows, refused.Messages, one.Messages, full.Messages)
	}
}
