package mediation

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"gridvine/internal/keyspace"
	"gridvine/internal/schema"
	"gridvine/internal/simnet"
	"gridvine/internal/triple"
)

// testMapping builds a trusted bidirectional equivalence mapping for one
// attribute pair.
func testMapping(source, target, srcAttr, dstAttr string) schema.Mapping {
	m := schema.NewMapping(source, target, schema.Equivalence, schema.Manual,
		[]schema.Correspondence{{SourceAttr: srcAttr, TargetAttr: dstAttr, Confidence: 1}})
	m.Bidirectional = true
	return m
}

// chainNetwork builds a mapping chain S0→S1→…→S(n-1) with one matching
// triple per schema, so a reformulating query against S0#org traverses n-1
// waves and finds n triples.
func chainNetwork(t *testing.T, schemas int, seed int64) (*simnet.Network, []*Peer) {
	t.Helper()
	net, ps := testNetwork(t, 32, seed)
	publishChain(t, ps[0], schemas)
	return net, ps
}

// publishChain writes chainNetwork's schemas, mappings and triples through p.
func publishChain(t *testing.T, p *Peer, schemas int) {
	t.Helper()
	for i := 0; i < schemas; i++ {
		name := fmt.Sprintf("S%d", i)
		if _, err := p.InsertTripleContext(context.Background(), triple.Triple{
			Subject: fmt.Sprintf("acc:%d", i), Predicate: name + "#org", Object: "aspergillus",
		}); err != nil {
			t.Fatalf("InsertTriple: %v", err)
		}
		if i+1 < schemas {
			if _, err := p.InsertMappingContext(context.Background(), testMapping(name, fmt.Sprintf("S%d", i+1), "org", "org")); err != nil {
				t.Fatalf("InsertMapping: %v", err)
			}
		}
	}
}

// countGoroutines samples the goroutine count after letting short-lived
// workers drain; used to assert query paths leak nothing.
func countGoroutines(t *testing.T) int {
	t.Helper()
	// Two GCs give timers and pool workers time to unwind.
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	return runtime.NumGoroutine()
}

// waitNoLeak asserts the goroutine count returns to (at most) the baseline,
// polling briefly to absorb scheduler lag.
func waitNoLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	var last int
	for time.Now().Before(deadline) {
		last = runtime.NumGoroutine()
		if last <= baseline {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: baseline %d, now %d", baseline, last)
}

// TestQueryPatternStreamsPerWave: a reformulation chain streams its first
// row before the traversal completes, and CollectPattern returns the
// byte-identical aggregate.
func TestQueryPatternStreamsPerWave(t *testing.T) {
	_, peers := chainNetwork(t, 5, 11)
	issuer := peers[20]
	q := triple.Pattern{S: triple.Var("x"), P: triple.Const("S0#org"), O: triple.Const("aspergillus")}

	cur, err := issuer.Query(context.Background(), Request{Pattern: &q, Reformulate: true})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	var streamed []Result
	for {
		row, ok := cur.Next(context.Background())
		if !ok {
			break
		}
		if row.Result == nil {
			t.Fatal("pattern row without Result")
		}
		if len(row.Values) != 1 || row.Values[0] != row.Result.Triple.Subject {
			t.Errorf("row values = %v for triple %+v", row.Values, row.Result.Triple)
		}
		streamed = append(streamed, *row.Result)
	}
	cur.Close()
	if err := cur.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	if len(streamed) != 5 {
		t.Fatalf("streamed %d results, want 5", len(streamed))
	}
	st := cur.Stats()
	if st.Rows != 5 || st.Messages == 0 || st.Reformulations != 4 {
		t.Errorf("stats = %+v", st)
	}
	if st.FirstRow <= 0 || st.FirstRow > st.Elapsed {
		t.Errorf("first-row %v vs elapsed %v", st.FirstRow, st.Elapsed)
	}

	// CollectPattern aggregates the same stream. (Message counts
	// are not compared: routing tie-break randomness advances between runs,
	// so two executions of the same query may spend different hop counts.)
	rs, err := blockingSearchReformulated(issuer, q, SearchOptions{})
	if err != nil {
		t.Fatalf("SearchWithReformulation: %v", err)
	}
	if len(rs.Results) != 5 || rs.Messages == 0 || rs.Reformulations != st.Reformulations {
		t.Errorf("wrapper: %d results, %d msgs, %d reforms; cursor stats %+v",
			len(rs.Results), rs.Messages, rs.Reformulations, st)
	}
}

// TestResultsShareOneProvenancePerAnswer: every Result, streamed or
// collected, plain or reformulated, carries a non-nil Provenance, and the
// rows of one variant's answer share it.
func TestResultsShareOneProvenancePerAnswer(t *testing.T) {
	_, peers := chainNetwork(t, 3, 13)
	issuer := peers[7]
	var more Batch
	for i := 0; i < 3; i++ {
		for k := 0; k < 3; k++ {
			more.InsertTriple(triple.Triple{Subject: fmt.Sprintf("acc:%d-%d", i, k), Predicate: fmt.Sprintf("S%d#org", i), Object: "aspergillus"})
		}
	}
	if rec, err := issuer.Write(context.Background(), &more); err != nil || rec.FirstErr() != nil {
		t.Fatalf("write: %v / %v", err, rec.FirstErr())
	}
	q := triple.Pattern{S: triple.Var("x"), P: triple.Const("S0#org"), O: triple.Const("aspergillus")}

	// check wants answers distinct provenances, one per variant reached, each
	// shared by that variant's 4 rows.
	check := func(name string, rows []Result, answers int) {
		t.Helper()
		shared := map[string]*Provenance{}
		for _, r := range rows {
			if r.Provenance == nil {
				t.Fatalf("%s: %v has no provenance", name, r.Triple)
			}
			if prev, ok := shared[r.Pattern.P.Value]; ok && prev != r.Provenance {
				t.Errorf("%s: rows of the %s answer carry different provenances", name, r.Pattern.P.Value)
			}
			shared[r.Pattern.P.Value] = r.Provenance
		}
		if len(rows) != 4*answers || len(shared) != answers {
			t.Errorf("%s: %d rows over %d answers, want %d over %d", name, len(rows), len(shared), 4*answers, answers)
		}
	}
	streamed, _ := streamRows(t, issuer, q, 0, SearchOptions{})
	check("streamed", streamed, 3)
	rs, err := blockingSearchReformulated(issuer, q, SearchOptions{})
	if err != nil {
		t.Fatalf("collected: %v", err)
	}
	check("collected", rs.Results, 3)
	plain, err := blockingSearchFor(issuer, q)
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	check("plain", plain.Results, 1)
	if p := plain.Results[0].Provenance; p.Pattern != q || p.MappingPath != nil || p.Confidence != 1 {
		t.Errorf("plain answer's provenance = %+v, want the query itself at confidence 1", *p)
	}
}

// TestQueryCancelMidWave cancels a reformulating query while later waves
// are still fanning out: the rows already produced stand, Err reports
// context.Canceled, and no goroutine outlives the cursor.
func TestQueryCancelMidWave(t *testing.T) {
	net, peers := chainNetwork(t, 8, 12)
	issuer := peers[25]
	q := triple.Pattern{S: triple.Var("x"), P: triple.Const("S0#org"), O: triple.Const("aspergillus")}

	baseline := countGoroutines(t)
	// Each hop sleeps, so the 7-wave traversal is slow enough to cancel.
	net.SetSendDelay(2 * time.Millisecond)
	defer net.SetSendDelay(0)

	ctx, cancel := context.WithCancel(context.Background())
	cur, err := issuer.Query(ctx, Request{Pattern: &q, Reformulate: true, Options: SearchOptions{Parallelism: 2}})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	var rows int
	for {
		row, ok := cur.Next(context.Background())
		if !ok {
			break
		}
		_ = row
		rows++
		cancel() // cancel as soon as the first row arrives
	}
	// A caller-initiated cancellation is a real error: Close must not
	// swallow it (only the Canceled an early Close itself provokes is).
	if cerr := cur.Close(); !errors.Is(cerr, context.Canceled) {
		t.Errorf("Close = %v, want context.Canceled for a caller-cancelled query", cerr)
	}
	if err := cur.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
	if rows == 0 {
		t.Error("expected the rows produced before cancellation to be yielded")
	}
	if rows >= 8 {
		t.Errorf("cancellation yielded all %d rows — nothing was cut short", rows)
	}
	cancel()
	waitNoLeak(t, baseline)
}

// TestQueryDeadlineExpires runs a reformulating query whose deadline
// expires mid-traversal under transit delay: partial (possibly zero) rows,
// context.DeadlineExceeded, and prompt return well before the undelayed
// full traversal would finish.
func TestQueryDeadlineExpires(t *testing.T) {
	net, peers := chainNetwork(t, 8, 13)
	issuer := peers[9]
	q := triple.Pattern{S: triple.Var("x"), P: triple.Const("S0#org"), O: triple.Const("aspergillus")}

	net.SetSendDelay(5 * time.Millisecond)
	defer net.SetSendDelay(0)

	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	start := time.Now()
	cur, err := issuer.Query(ctx, Request{Pattern: &q, Reformulate: true, Options: SearchOptions{Parallelism: 1}})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	rows := 0
	for {
		if _, ok := cur.Next(context.Background()); !ok {
			break
		}
		rows++
	}
	cur.Close()
	if err := cur.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err = %v, want context.DeadlineExceeded (rows %d)", err, rows)
	}
	if rows >= 8 {
		t.Errorf("deadline query still yielded every row (%d)", rows)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("deadline-bound query took %v", elapsed)
	}
}

// TestQueryLimitStopsFanOut: a top-k pattern query stops launching waves
// once the limit is reached, spending fewer messages than the full run.
func TestQueryLimitStopsFanOut(t *testing.T) {
	_, peers := chainNetwork(t, 8, 14)
	issuer := peers[3]
	q := triple.Pattern{S: triple.Var("x"), P: triple.Const("S0#org"), O: triple.Const("aspergillus")}

	run := func(limit int) QueryStats {
		cur, err := issuer.Query(context.Background(), Request{
			Pattern: &q, Reformulate: true, Limit: limit,
			Options: SearchOptions{Parallelism: 1},
		})
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		n := 0
		for {
			if _, ok := cur.Next(context.Background()); !ok {
				break
			}
			n++
		}
		cur.Close()
		if err := cur.Err(); err != nil {
			t.Fatalf("Err: %v", err)
		}
		if limit > 0 && n != limit {
			t.Fatalf("limit %d yielded %d rows", limit, n)
		}
		return cur.Stats()
	}

	full := run(0)
	topk := run(2)
	if topk.Messages >= full.Messages {
		t.Errorf("limit 2 spent %d messages, unbounded %d — limit did not cut fan-out",
			topk.Messages, full.Messages)
	}
}

// TestQueryConjunctiveLimitCutsLookups: a bounded conjunctive top-k skips
// the pushdown lookups its unreached rows would have needed.
func TestQueryConjunctiveLimitCutsLookups(t *testing.T) {
	_, peers := testNetwork(t, 16, 15)
	p := peers[0]
	for i := 0; i < 40; i++ {
		subj := fmt.Sprintf("acc:J%03d", i)
		mustInsert(t, p, subj, "A#grp", "hot")
		mustInsert(t, p, subj, "A#len", fmt.Sprint(100+i))
	}
	patterns := []triple.Pattern{
		{S: triple.Var("x"), P: triple.Const("A#grp"), O: triple.Const("hot")},
		{S: triple.Var("x"), P: triple.Const("A#len"), O: triple.Var("len")},
	}
	issuer := peers[11]
	opts := SearchOptions{Parallelism: 1, PushdownLimit: 64}

	run := func(limit int) (int, QueryStats) {
		cur, err := issuer.Query(context.Background(), Request{Patterns: patterns, Limit: limit, Options: opts})
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		rows := 0
		for {
			if _, ok := cur.Next(context.Background()); !ok {
				break
			}
			rows++
		}
		cur.Close()
		if err := cur.Err(); err != nil {
			t.Fatalf("Err: %v", err)
		}
		return rows, cur.Stats()
	}

	fullRows, full := run(0)
	if fullRows != 40 {
		t.Fatalf("unbounded rows = %d, want 40", fullRows)
	}
	topRows, top := run(3)
	if topRows != 3 {
		t.Fatalf("limited rows = %d, want 3", topRows)
	}
	if top.Conjunctive.PatternLookups >= full.Conjunctive.PatternLookups {
		t.Errorf("top-k issued %d lookups, unbounded %d — limit did not reach the planner",
			top.Conjunctive.PatternLookups, full.Conjunctive.PatternLookups)
	}
}

// TestQueryRDQLLimit wires an RDQL LIMIT clause through the streaming
// engine.
func TestQueryRDQLLimit(t *testing.T) {
	_, peers := testNetwork(t, 16, 17)
	p := peers[0]
	for i := 0; i < 10; i++ {
		subj := fmt.Sprintf("acc:L%03d", i)
		mustInsert(t, p, subj, "A#grp", "hot")
		mustInsert(t, p, subj, "A#len", fmt.Sprint(100+i))
	}
	rows, err := blockingRDQL(peers[4],
		`SELECT ?x, ?len WHERE (?x, <A#grp>, hot), (?x, <A#len>, ?len) LIMIT 4`,
		false, SearchOptions{Parallelism: 1})
	if err != nil {
		t.Fatalf("QueryRDQL: %v", err)
	}
	if len(rows) != 4 {
		t.Errorf("LIMIT 4 returned %d rows", len(rows))
	}
	// Request.Limit merges with the clause: the smaller wins.
	cur, err := peers[4].Query(context.Background(), Request{
		RDQL:    `SELECT ?x WHERE (?x, <A#grp>, hot) LIMIT 6`,
		Limit:   2,
		Options: SearchOptions{Parallelism: 1},
	})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	n := 0
	for {
		if _, ok := cur.Next(context.Background()); !ok {
			break
		}
		n++
	}
	cur.Close()
	if n != 2 {
		t.Errorf("merged limit yielded %d rows, want 2", n)
	}
}

// TestCursorCloseAbandonsStream: closing a cursor early cancels the engine
// and leaks nothing, even with rows never consumed.
func TestCursorCloseAbandonsStream(t *testing.T) {
	_, peers := testNetwork(t, 16, 18)
	p := peers[0]
	for i := 0; i < 200; i++ {
		mustInsert(t, p, fmt.Sprintf("acc:C%03d", i), "A#grp", "hot")
	}
	baseline := countGoroutines(t)
	for i := 0; i < 5; i++ {
		cur, err := peers[9].Query(context.Background(), Request{
			Patterns: []triple.Pattern{{S: triple.Var("x"), P: triple.Const("A#grp"), O: triple.Const("hot")}},
		})
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		if _, ok := cur.Next(context.Background()); !ok {
			t.Fatal("no first row")
		}
		if err := cur.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	waitNoLeak(t, baseline)
}

// TestNextWaitContextDoesNotPoisonCursor: a ctx that bounds one Next call
// neither stops the engine nor marks the cursor failed — a later Next with
// a fresh ctx keeps yielding and a clean finish reports Err() == nil.
func TestNextWaitContextDoesNotPoisonCursor(t *testing.T) {
	net, peers := chainNetwork(t, 4, 19)
	issuer := peers[6]
	q := triple.Pattern{S: triple.Var("x"), P: triple.Const("S0#org"), O: triple.Const("aspergillus")}
	net.SetSendDelay(3 * time.Millisecond)
	defer net.SetSendDelay(0)

	cur, err := issuer.Query(context.Background(), Request{Pattern: &q, Reformulate: true})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	defer cur.Close()

	// An immediately-expired wait: no row, but the cursor is unharmed.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ok := cur.Next(expired); ok {
		// A row may already be buffered — drain semantics prefer it; both
		// outcomes are fine, the point is what follows.
		_ = ok
	}
	rows := 0
	for {
		if _, ok := cur.Next(context.Background()); !ok {
			break
		}
		rows++
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("Err after timed-out wait = %v, want nil (wait ctx must not poison the cursor)", err)
	}
	if rows < 3 {
		t.Errorf("cursor stopped yielding after a timed-out Next: %d rows", rows)
	}
	if cerr := cur.Close(); cerr != nil {
		t.Errorf("Close after clean drain = %v", cerr)
	}
}

// mustInsert inserts one triple or fails the test.
func mustInsert(t *testing.T, p *Peer, s, pred, o string) {
	t.Helper()
	if _, err := p.InsertTripleContext(context.Background(), triple.Triple{Subject: s, Predicate: pred, Object: o}); err != nil {
		t.Fatalf("InsertTriple(%s,%s,%s): %v", s, pred, o, err)
	}
}

// sameBindingsSet compares two binding lists as sets: the planner collapses
// duplicate rows where the naive evaluator keeps one binding per matching
// triple, so only distinct membership is comparable.
func sameBindingsSet(t *testing.T, a, b []triple.Bindings) bool {
	t.Helper()
	key := func(bs triple.Bindings) string {
		return fmt.Sprintf("%v", bs)
	}
	am, bm := map[string]bool{}, map[string]bool{}
	for _, x := range a {
		am[key(x)] = true
	}
	for _, x := range b {
		bm[key(x)] = true
	}
	if len(am) != len(bm) {
		return false
	}
	for k := range am {
		if !bm[k] {
			return false
		}
	}
	return true
}

// hotJoin stores n subjects with a group and a length each and returns the
// two-pattern join over them; with a pushdown cap above n the second
// pattern resolves by one point lookup per subject, streamed.
func hotJoin(t *testing.T, p *Peer, n int) []triple.Pattern {
	t.Helper()
	for i := 0; i < n; i++ {
		subj := fmt.Sprintf("acc:H%03d", i)
		mustInsert(t, p, subj, "A#grp", "hot")
		mustInsert(t, p, subj, "A#len", fmt.Sprint(100+i))
	}
	return []triple.Pattern{
		{S: triple.Var("x"), P: triple.Const("A#grp"), O: triple.Const("hot")},
		{S: triple.Var("x"), P: triple.Const("A#len"), O: triple.Var("len")},
	}
}

// TestCursorHandsRowsOverBeforeGoingBackToTheOverlay: rows travel to the
// consumer a chunk at a time, but a row emitted before the engine starts
// another overlay operation is handed over first — Next returns it while
// that operation is still in flight, not when a chunk fills or the engine
// exits.
func TestCursorHandsRowsOverBeforeGoingBackToTheOverlay(t *testing.T) {
	const delay = 4 * time.Millisecond
	net, peers := chainNetwork(t, 6, 31)
	patterns := hotJoin(t, peers[0], 24)
	q := triple.Pattern{S: triple.Var("x"), P: triple.Const("S0#org"), O: triple.Const("aspergillus")}
	net.SetSendDelay(delay)
	defer net.SetSendDelay(0)
	// The hash keeps order, so one peer holds every acc:H… subject; issued
	// from there the pushdown lookups would never cross the network.
	issuer := peers[13]
	for _, p := range peers {
		if !p.Node().Responsible(keyspace.HashDefault("acc:H000")) && !p.Node().Responsible(keyspace.HashDefault("schema:S1")) {
			issuer = p
		}
	}

	for _, tc := range []struct {
		name string
		req  Request
		rows int
	}{
		// The root's row, then five waves of mapping lookups and data.
		{"pattern", Request{Pattern: &q, Reformulate: true, Options: SearchOptions{Parallelism: 1}}, 6},
		// One row per pushdown lookup, 24 lookups one after the other.
		{"pushdown", Request{Patterns: patterns, Options: SearchOptions{Parallelism: 1, PushdownLimit: 64}}, 24},
	} {
		cur, err := issuer.Query(context.Background(), tc.req)
		if err != nil {
			t.Fatalf("%s: Query: %v", tc.name, err)
		}
		var first time.Time
		rows := 0
		for {
			if _, ok := cur.Next(context.Background()); !ok {
				break
			}
			if rows++; rows == 1 {
				first = time.Now()
				select {
				case <-cur.done:
					t.Errorf("%s: the first row only arrived once the engine had finished", tc.name)
				default:
				}
			}
		}
		rest := time.Since(first)
		if err := cur.Close(); err != nil || rows != tc.rows {
			t.Fatalf("%s: %d rows, want %d; Close: %v", tc.name, rows, tc.rows, err)
		}
		if rest < 3*delay {
			t.Errorf("%s: the stream ended %v after its first row — the row waited on lookups it did not depend on", tc.name, rest)
		}
		if st := cur.Stats(); st.Rows != tc.rows || st.FirstRow <= 0 || st.Elapsed-st.FirstRow < 3*delay {
			t.Errorf("%s: stats %d rows, first row at %v of %v", tc.name, st.Rows, st.FirstRow, st.Elapsed)
		}
	}
}

// TestCursorLimitInsideAChunk: Request.Limit counts rows, not chunks — a
// limit that falls inside a chunk, or past the first one, yields exactly
// that many rows.
func TestCursorLimitInsideAChunk(t *testing.T) {
	_, peers := testNetwork(t, 16, 32)
	patterns := hotJoin(t, peers[0], 150)
	grp := patterns[0]
	for _, tc := range []struct {
		name  string
		req   Request
		limit int
	}{
		{"pattern, inside the first chunk", Request{Pattern: &grp}, 5},
		{"pattern, inside the second chunk", Request{Pattern: &grp}, rowChunk + 2},
		{"join, inside the first chunk", Request{Patterns: patterns}, 7},
		{"join, inside the second chunk", Request{Patterns: patterns}, rowChunk + 3},
		{"rdql", Request{RDQL: `SELECT ?x WHERE (?x, <A#grp>, hot), (?x, <A#len>, ?len)`}, rowChunk + 1},
	} {
		tc.req.Limit = tc.limit
		// By the row, then one row and the rest by the hand-over: NextChunk
		// picks up inside the chunk Next was reading.
		for _, byChunk := range []bool{false, true} {
			cur, err := peers[5].Query(context.Background(), tc.req)
			if err != nil {
				t.Fatalf("%s: Query: %v", tc.name, err)
			}
			rows := 0
			for {
				if byChunk && rows > 0 {
					chunk, ok := cur.NextChunk(context.Background())
					if !ok {
						break
					}
					if len(chunk) == 0 || len(chunk) > rowChunk || rows < rowChunk && rows+len(chunk) != min(tc.limit, rowChunk) {
						t.Errorf("%s: a chunk of %d rows after %d", tc.name, len(chunk), rows)
					}
					rows += len(chunk)
					continue
				}
				if _, ok := cur.Next(context.Background()); !ok {
					break
				}
				rows++
			}
			if err := cur.Close(); err != nil {
				t.Fatalf("%s: Close: %v", tc.name, err)
			}
			if rows != tc.limit || cur.Stats().Rows != tc.limit {
				t.Errorf("%s (by chunk: %v): limit %d yielded %d rows, stats %d", tc.name, byChunk, tc.limit, rows, cur.Stats().Rows)
			}
		}
	}
}

// TestCursorCancelInsideAChunk cancels the query while the consumer is
// halfway through a chunk: the rest of the chunk was produced ahead of the
// cancellation and is still yielded — even to a Next whose own ctx has
// fired — the stream then ends short with context.Canceled, and nothing
// leaks.
func TestCursorCancelInsideAChunk(t *testing.T) {
	net, peers := testNetwork(t, 16, 33)
	patterns := hotJoin(t, peers[0], 40)
	baseline := countGoroutines(t)
	net.SetSendDelay(2 * time.Millisecond)
	defer net.SetSendDelay(0)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Four pushdown lookups at a time: every hand-over carries four rows.
	cur, err := peers[7].Query(ctx, Request{Patterns: patterns, Options: SearchOptions{Parallelism: 4, PushdownLimit: 64}})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if _, ok := cur.Next(context.Background()); !ok {
		t.Fatalf("no first row: %v", cur.Err())
	}
	cancel()
	rows := 1
	for {
		if _, ok := cur.Next(ctx); !ok {
			break
		}
		rows++
	}
	if rows < 4 {
		t.Errorf("%d rows: the chunk the consumer was reading when the query was cancelled holds four", rows)
	}
	if rows >= 40 {
		t.Errorf("cancellation yielded all %d rows — nothing was cut short", rows)
	}
	if err := cur.Close(); !errors.Is(err, context.Canceled) {
		t.Errorf("Close = %v, want context.Canceled", err)
	}
	waitNoLeak(t, baseline)
}

// TestRowsWithNULValuesStayDistinct: the join, bind and projection dedupe
// keys are injective, so values that differ only in where a NUL byte sits
// are different rows from the stored triples to the projected answer.
func TestRowsWithNULValuesStayDistinct(t *testing.T) {
	_, peers := testNetwork(t, 16, 34)
	mustInsert(t, peers[0], "a\x00", "N#p", "b")
	mustInsert(t, peers[0], "a", "N#p", "\x00b")
	mustInsert(t, peers[0], "a\x00", "N#q", "b")
	rows, err := blockingRDQL(peers[3], `SELECT ?x, ?y WHERE (?x, <N#p>, ?y)`, false, SearchOptions{})
	if err != nil || len(rows) != 2 {
		t.Errorf("projection: %q, %v; want both triples' rows", rows, err)
	}
	rows, err = blockingRDQL(peers[3], `SELECT ?x, ?y WHERE (?x, <N#p>, ?y), (?x, <N#q>, ?y)`, false, SearchOptions{})
	if err != nil || len(rows) != 1 || rows[0][0] != "a\x00" {
		t.Errorf("join on both columns: %q, %v; want only the subject that has both", rows, err)
	}
}

// TestRDQLProjectionDedupesPerRun: a join whose rows repeat their projection
// inside runs of one subject yields each projected row once, in the order
// the engine emits it. With pushdown off the final set ascends in ?x and
// the projection dedupes run by run; a run of twelve distinct projected
// rows outgrows the linear scan. With pushdown the streamed rows come with
// no order promise and take the query-wide map, and so does a projection
// that drops ?x.
func TestRDQLProjectionDedupesPerRun(t *testing.T) {
	_, peers := testNetwork(t, 16, 44)
	const subjects, as, bs = 3, 2, 12
	for i := 0; i < subjects; i++ {
		x := fmt.Sprintf("acc:R%d", i)
		for a := 0; a < as; a++ {
			mustInsert(t, peers[0], x, "R#a", fmt.Sprint("a", a))
		}
		for b := 0; b < bs; b++ {
			mustInsert(t, peers[0], x, "R#b", fmt.Sprintf("b%02d", b))
		}
	}
	const where = `WHERE (?x, <R#a>, ?a), (?x, <R#b>, ?b)`
	for _, tc := range []struct {
		name, query string
		pushdown    bool
		want        int
	}{
		{"long runs", `SELECT ?x, ?b ` + where, false, subjects * bs},
		{"one row a run", `SELECT ?x ` + where, false, subjects},
		{"subject not first", `SELECT ?b, ?x ` + where, false, subjects * bs},
		{"subject dropped", `SELECT ?b ` + where, false, bs},
		{"streamed", `SELECT ?x, ?b ` + where, true, subjects * bs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := SearchOptions{Parallelism: 1, PushdownLimit: -1}
			if tc.pushdown {
				opts.PushdownLimit = 0
			}
			ctx := context.Background()
			cur, err := peers[5].Query(ctx, Request{RDQL: tc.query, Options: opts})
			if err != nil {
				t.Fatalf("Query: %v", err)
			}
			seen := map[string]bool{}
			for {
				row, ok := cur.Next(ctx)
				if !ok {
					break
				}
				key := strings.Join(row.Values, "|")
				if seen[key] {
					t.Fatalf("row %q yielded twice", row.Values)
				}
				seen[key] = true
			}
			if err := cur.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if len(seen) != tc.want {
				t.Fatalf("%d distinct rows, want %d", len(seen), tc.want)
			}
			if pushed := cur.Stats().Conjunctive.Pushdowns > 0; pushed != tc.pushdown {
				t.Fatalf("pushdown ran: %v, want %v", pushed, tc.pushdown)
			}
		})
	}
}

// Property: over rows that ascend in their column 0, the run-by-run dedupe
// keeps exactly the rows, in exactly the order, that one query-wide set
// keeps — for every projected position of that column, runs long and short.
func TestProjectionDedupeMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 300; trial++ {
		n, runLength, values := rng.Intn(120), 1+rng.Intn(30), 1+rng.Intn(20)
		lead := rng.Intn(2)
		rows := make([][]string, n)
		first := 0
		for i := range rows {
			if rng.Intn(runLength) == 0 {
				first++
			}
			x, v := fmt.Sprintf("x%03d", first), fmt.Sprint("v", rng.Intn(values))
			rows[i] = []string{x, v}
			if lead == 1 {
				rows[i] = []string{v, x}
			}
		}
		ordered, unordered := projectionDedupe{lead: lead}, projectionDedupe{lead: -1}
		for i, row := range rows {
			if a, b := ordered.repeat(row), unordered.repeat(row); a != b {
				t.Fatalf("trial %d row %d %q: per-run dedupe says repeat=%v, query-wide set %v", trial, i, row, a, b)
			}
		}
	}
}
