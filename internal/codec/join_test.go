package codec

import (
	"context"
	"fmt"
	"testing"

	"gridvine/internal/mediation"
	"gridvine/internal/simnet"
	"gridvine/internal/triple"
)

// joinCluster stores rows subjects with two attributes each on 16 peers
// behind the codec and returns an issuer with the benchmark's join shape
// over them: SELECT ?x, ?b WHERE (?x, <S#organism>, ?a), (?x, <S#length>, ?b).
func joinCluster(tb testing.TB, rows int) (*mediation.Peer, mediation.Request) {
	tb.Helper()
	var peers []*mediation.Peer
	for _, n := range buildOverlay(tb, codecNet{simnet.NewNetwork(), tb}, 16, 91).Nodes() {
		peers = append(peers, mediation.NewPeer(n))
	}
	b := &mediation.Batch{Parallelism: 1}
	for i := 0; i < rows; i++ {
		s := fmt.Sprintf("acc:%05d", i)
		b.InsertTriple(triple.Triple{Subject: s, Predicate: "S#organism", Object: fmt.Sprintf("species-%d", i%17)})
		b.InsertTriple(triple.Triple{Subject: s, Predicate: "S#length", Object: fmt.Sprint(1000 + i)})
	}
	if rec, err := peers[0].Write(context.Background(), b); err != nil || rec.Failed != 0 {
		tb.Fatalf("Write: %+v, %v", rec, err)
	}
	return peers[5], mediation.Request{
		RDQL:    `SELECT ?x, ?b WHERE (?x, <S#organism>, ?a), (?x, <S#length>, ?b)`,
		Options: mediation.SearchOptions{Parallelism: 1},
	}
}

// runJoin drains one join through the cursor and returns its row count and
// the triples it shipped.
func runJoin(tb testing.TB, issuer *mediation.Peer, req mediation.Request) (rows, shipped int) {
	ctx := context.Background()
	cur, err := issuer.Query(ctx, req)
	if err != nil {
		tb.Fatalf("Query: %v", err)
	}
	for {
		if _, ok := cur.Next(ctx); !ok {
			break
		}
		rows++
	}
	if err := cur.Close(); err != nil {
		tb.Fatalf("Close: %v", err)
	}
	return rows, cur.Stats().Conjunctive.TriplesShipped
}

// TestJoinAllocationBudget is the whole life of a joined row with the codec
// in the path — σ, frame, decode, bind, semi-join filter, hash join,
// projection, cursor — as one ceiling in allocations per shipped triple. A
// triple's three strings are decoded out of the frame, so one allocation a
// triple is the floor the frame sets; a stage that went back to allocating
// per row adds one or more on top. It gates in the un-raced test job.
func TestJoinAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime inflates testing.AllocsPerRun")
	}
	const rows = 256
	issuer, req := joinCluster(t, rows)
	got, shipped := runJoin(t, issuer, req)
	if got != rows || shipped != 2*rows {
		t.Fatalf("%d rows from %d shipped triples, want %d from %d", got, shipped, rows, 2*rows)
	}
	perTriple := testing.AllocsPerRun(10, func() { runJoin(t, issuer, req) }) / float64(shipped)
	t.Logf("%.2f allocations per shipped triple", perTriple)
	if perTriple > 0.4 {
		t.Errorf("%.2f allocations per shipped triple, budget 0.4", perTriple)
	}
}

// BenchmarkConjunctiveJoin is the benchmark's join op below the wire
// protocol: a two-pattern, 256-row RDQL join resolved over 16 peers with
// every overlay message encoded and decoded.
func BenchmarkConjunctiveJoin(b *testing.B) {
	issuer, req := joinCluster(b, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows, _ := runJoin(b, issuer, req); rows != 256 {
			b.Fatalf("%d rows", rows)
		}
	}
}
