package mediation

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gridvine/internal/pgrid"
	"gridvine/internal/schema"
	"gridvine/internal/simnet"
	"gridvine/internal/triple"
)

// buildPeers is the testing.TB-agnostic network builder shared by the
// parallel tests and BenchmarkParallelReformulation.
func buildPeers(peers int, seed int64) (*simnet.Network, []*Peer, error) {
	net := simnet.NewNetwork()
	ov, err := pgrid.Build(net, pgrid.BuildOptions{
		Peers:         peers,
		ReplicaFactor: 2,
		Rng:           rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		return nil, nil, err
	}
	out := make([]*Peer, 0, peers)
	for _, n := range ov.Nodes() {
		out = append(out, NewPeer(n))
	}
	return net, out, nil
}

// fanNetwork builds a mapping graph with real fan-out: a root schema S0
// mapped to spokes T0..Tn-1, each spoke holding its own triples for the
// shared entity set. Wide enough that the reformulation worker pool has
// actual parallel work.
func fanNetwork(t testing.TB, peers, spokes, entities int) (*simnet.Network, []*Peer) {
	t.Helper()
	net, ps, err := buildPeers(peers, 42)
	if err != nil {
		t.Fatalf("buildPeers: %v", err)
	}
	for s := 0; s < spokes; s++ {
		target := fmt.Sprintf("T%d", s)
		if _, err := ps[0].InsertMappingContext(context.Background(), makeMapping("S0", target)); err != nil {
			t.Fatalf("InsertMapping: %v", err)
		}
		for e := 0; e < entities; e++ {
			tr := triple.Triple{
				Subject:   fmt.Sprintf("%s-e%d", target, e),
				Predicate: target + "#org",
				Object:    fmt.Sprintf("species-%d", e%7),
			}
			if _, err := ps[e%len(ps)].InsertTripleContext(context.Background(), tr); err != nil {
				t.Fatalf("InsertTriple: %v", err)
			}
		}
	}
	for e := 0; e < entities; e++ {
		tr := triple.Triple{
			Subject:   fmt.Sprintf("S0-e%d", e),
			Predicate: "S0#org",
			Object:    fmt.Sprintf("species-%d", e%7),
		}
		if _, err := ps[e%len(ps)].InsertTripleContext(context.Background(), tr); err != nil {
			t.Fatalf("InsertTriple: %v", err)
		}
	}
	return net, ps
}

func makeMapping(source, target string) schema.Mapping {
	m := schema.NewMapping(source, target, schema.Equivalence, schema.Manual,
		[]schema.Correspondence{{SourceAttr: "org", TargetAttr: "org", Confidence: 1}})
	m.Bidirectional = true
	return m
}

// resultKey flattens a Result for comparison.
func resultKey(r Result) string {
	return fmt.Sprintf("%v|%v|%v|%.6f", r.Triple, r.Pattern, r.MappingPath, r.Confidence)
}

// The parallel fan-out must return exactly the serial traversal's result
// set, in the same deterministic order.
func TestParallelMatchesSerial(t *testing.T) {
	_, ps := fanNetwork(t, 32, 6, 21)
	q := triple.Pattern{S: triple.Var("x"), P: triple.Const("S0#org"), O: triple.Const("species-3")}

	serial, err := blockingSearchReformulated(ps[3], q, SearchOptions{Parallelism: 1})
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	if len(serial.Results) == 0 || serial.Reformulations < 6 {
		t.Fatalf("serial results=%d reformulations=%d — workload too small to mean anything",
			len(serial.Results), serial.Reformulations)
	}
	for _, width := range []int{2, 4, 8} {
		par, err := blockingSearchReformulated(ps[3], q, SearchOptions{Parallelism: width})
		if err != nil {
			t.Fatalf("parallel(%d): %v", width, err)
		}
		if len(par.Results) != len(serial.Results) {
			t.Fatalf("parallel(%d) = %d results, serial = %d",
				width, len(par.Results), len(serial.Results))
		}
		for i := range par.Results {
			if resultKey(par.Results[i]) != resultKey(serial.Results[i]) {
				t.Errorf("parallel(%d) result %d = %s, serial %s",
					width, i, resultKey(par.Results[i]), resultKey(serial.Results[i]))
			}
		}
		if par.Reformulations != serial.Reformulations {
			t.Errorf("parallel(%d) reformulations = %d, serial = %d",
				width, par.Reformulations, serial.Reformulations)
		}
	}
}

// Race test: many issuers run reformulating searches concurrently while
// writers keep inserting. Run with -race this exercises the full stack —
// triple store, parallel fan-out, overlay routing (shared per-node rngs).
func TestConcurrentReformulatingSearches(t *testing.T) {
	_, ps := fanNetwork(t, 32, 4, 12)
	q := triple.Pattern{S: triple.Var("x"), P: triple.Const("S0#org"), O: triple.Const("species-1")}

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			issuer := ps[w%len(ps)]
			for i := 0; i < 10; i++ {
				if _, err := blockingSearchReformulated(issuer, q, SearchOptions{Parallelism: 4}); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			tr := triple.Triple{
				Subject:   fmt.Sprintf("live-%d", i),
				Predicate: "T1#org",
				Object:    fmt.Sprintf("species-%d", i%7),
			}
			if _, err := ps[i%len(ps)].InsertTripleContext(context.Background(), tr); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

func TestSearchOptionsParallelismDefaults(t *testing.T) {
	if got := (SearchOptions{}).withDefaults().Parallelism; got != DefaultParallelism {
		t.Errorf("zero Parallelism → %d, want DefaultParallelism %d", got, DefaultParallelism)
	}
	if got := (SearchOptions{Parallelism: -3}).withDefaults().Parallelism; got != 1 {
		t.Errorf("negative Parallelism → %d, want 1", got)
	}
	if got := (SearchOptions{Parallelism: 2}).withDefaults().Parallelism; got != 2 {
		t.Errorf("explicit Parallelism → %d, want 2", got)
	}
}

// BenchmarkParallelReformulation measures one reformulating search over a
// 16-spoke mapping fan with a ≥10k-triple workload, serial (Parallelism: 1,
// the seed's behaviour) vs pooled fan-out. A small per-message transit
// delay stands in for real network latency — what the worker pool overlaps;
// without it a single-core host makes every width look the same.
func BenchmarkParallelReformulation(b *testing.B) {
	build := func(b *testing.B) []*Peer {
		net, ps := fanNetwork(b, 64, 16, 650) // 17 schemas × 650 entities ≈ 11k triples
		net.SetSendDelay(200 * time.Microsecond)
		return ps
	}
	q := triple.Pattern{S: triple.Var("x"), P: triple.Const("S0#org"), O: triple.Const("species-2")}

	for _, width := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("iterative/parallelism=%d", width), func(b *testing.B) {
			ps := build(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := blockingSearchReformulated(ps[5], q, SearchOptions{Parallelism: width}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
