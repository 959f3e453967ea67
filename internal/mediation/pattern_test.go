package mediation

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"gridvine/internal/keyspace"
	"gridvine/internal/triple"
)

// TestRoutedRequestCensus interposes on every peer's query handler and runs
// the four shapes of search over simnet: a plain lookup, a reformulated one,
// and a conjunctive query resolved by semi-join and by pushdown. Every
// routed query must be one PatternQuery answered by one []triple.Triple,
// and each shape spends the messages and routed queries pinned here.
func TestRoutedRequestCensus(t *testing.T) {
	_, ps := conjNetwork(t, 32, 2000)
	issuer := ps[7]
	rare := triple.Pattern{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Const("species-rare")}
	lenOf := triple.Pattern{S: triple.Var("x"), P: triple.Const("A#len"), O: triple.Var("len")}
	selective := []triple.Pattern{lenOf, rare}
	serial := SearchOptions{Parallelism: 1}
	semiJoin := SearchOptions{Parallelism: 1, PushdownLimit: 4} // below the 8 rare matches

	var mu sync.Mutex
	var strays []string
	queries := 0
	for _, p := range ps {
		p := p
		p.Node().SetQueryHandler(func(key keyspace.Key, payload any) (any, error) {
			answer, err := p.handleQuery(key, payload)
			mu.Lock()
			defer mu.Unlock()
			queries++
			if _, ok := payload.(PatternQuery); !ok {
				strays = append(strays, fmt.Sprintf("request %T", payload))
			}
			if _, ok := answer.([]triple.Triple); !ok {
				strays = append(strays, fmt.Sprintf("answer %T", answer))
			}
			return answer, err
		})
	}

	for _, tc := range []struct {
		name              string
		req               Request
		rows              int
		messages, queries int
	}{
		{"plain lookup", Request{Pattern: &rare, Options: serial}, 8, 1, 1},
		{"reformulated lookup", Request{Pattern: &rare, Reformulate: true, Options: serial}, 8, 4, 2},
		{"semi-join", Request{Patterns: selective, Options: semiJoin}, 8, 4, 2},
		{"pushdown", Request{Patterns: selective, Options: serial}, 8, 9, 9},
	} {
		mu.Lock()
		strays, queries = nil, 0
		mu.Unlock()
		ctx := context.Background()
		cur, err := issuer.Query(ctx, tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rows := 0
		for {
			if _, ok := cur.Next(ctx); !ok {
				break
			}
			rows++
		}
		if err := cur.Close(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		st := cur.Stats()
		mu.Lock()
		if len(strays) > 0 {
			t.Errorf("%s: routed %v", tc.name, strays)
		}
		if rows != tc.rows || st.Messages != tc.messages || queries != tc.queries {
			t.Errorf("%s: %d rows for %d messages and %d routed queries, want %d rows for %d and %d",
				tc.name, rows, st.Messages, queries, tc.rows, tc.messages, tc.queries)
		}
		mu.Unlock()
	}
}

// BenchmarkPatternSearch times one pattern search in process, issuer to
// cursor drained: /plain is a subject lookup, the request every lookup op
// of the serving benchmark makes, one routed operation answered by 3 rows;
// /reformulated follows the A↔B mapping, one mapping lookup and two key
// groups answered by 50 rows. The -handler variants time the served shape:
// like a wire server's worker, one long-lived goroutine is handed each op
// and runs the engine with Run, so the stack it grew stays grown.
func BenchmarkPatternSearch(b *testing.B) {
	_, ps := conjNetwork(b, 16, 200)
	issuer := ps[5]
	subject := triple.Pattern{S: triple.Const("s010"), P: triple.Var("p"), O: triple.Var("o")}
	org := triple.Pattern{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Const("species-2")}
	ctx := context.Background()
	for _, bc := range []struct {
		name string
		req  Request
		rows int
	}{
		{"plain", Request{Pattern: &subject, Options: SearchOptions{Parallelism: 1}}, 3},
		{"reformulated", Request{Pattern: &org, Reformulate: true, Options: SearchOptions{Parallelism: 1}}, 50},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cur, err := issuer.Query(ctx, bc.req)
				if err != nil {
					b.Fatal(err)
				}
				rows := 0
				for {
					chunk, ok := cur.NextChunk(ctx)
					if !ok {
						break
					}
					rows += len(chunk)
				}
				if err := cur.Close(); err != nil || rows != bc.rows {
					b.Fatalf("%d rows (%v), want %d", rows, err, bc.rows)
				}
			}
		})
		b.Run(bc.name+"-handler", func(b *testing.B) {
			b.ReportAllocs()
			work, served := make(chan struct{}), make(chan error)
			defer close(work)
			rows := 0
			go func() {
				for range work {
					_, _, err := issuer.Run(ctx, bc.req, func(chunk []QueryRow, _ []string) bool {
						rows += len(chunk)
						return true
					})
					served <- err
				}
			}()
			for i := 0; i < b.N; i++ {
				rows = 0
				work <- struct{}{}
				if err := <-served; err != nil || rows != bc.rows {
					b.Fatalf("%d rows (%v), want %d", rows, err, bc.rows)
				}
			}
		})
	}
}
