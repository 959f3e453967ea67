package gridvine

// Benchmark harness: BenchmarkExperiment/<ID> runs the experiments of
// DESIGN.md §3 from the registry (each regenerates a quantitative claim of
// the paper and reports its headline numbers as custom metrics), plus
// micro-benchmarks of the core operations.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks execute one full run per iteration; the heavy
// ones take seconds per run, so -benchtime=1x is the sensible setting for
// them.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"gridvine/internal/experiments"
)

// experimentBenchmarks is the table behind BenchmarkExperiment: which
// registry entries run, at which scale and seed, and the headline figures
// each reports as custom metrics. K, L, M, N and R run their -quick
// parameter sets (their paper-scale figures live in BENCH_*.json); the
// others are cheap enough to reproduce at paper scale.
var experimentBenchmarks = []struct {
	id     string
	quick  bool
	seed   int64
	report func(b *testing.B, r experiments.Result)
}{
	// §2.3: 340 peers, ≈17000 triples, 23000 queries; paper 40% <1s, 75% <5s.
	{"A", false, 1, func(b *testing.B, res experiments.Result) {
		r := res.(experiments.DeploymentResult)
		b.ReportMetric(r.Within1s, "frac<1s")
		b.ReportMetric(r.Within5s, "frac<5s")
		b.ReportMetric(r.MeanHops, "hops/query")
		b.ReportMetric(float64(r.Triples), "triples")
	}},
	// §2.1: Retrieve in O(log |Π|) messages, 64…4096 peers, when cold.
	{"B", false, 2, func(b *testing.B, res experiments.Result) {
		last := lastOf(res.(experiments.RoutingResult).Points)
		b.ReportMetric(last.ColdMeanHops, fmt.Sprintf("cold-hops@%d", last.Peers))
		b.ReportMetric(last.MeanPerLog, "cold-hops/log2N")
		b.ReportMetric(last.ShortcutShare, "shortcut-share")
	}},
	// §3.1: the ci zero crossing tracks the giant component.
	{"C", false, 3, func(b *testing.B, res experiments.Result) {
		r := res.(experiments.ConnectivityResult)
		b.ReportMetric(float64(r.CrossoverMappings()), "crossover-mappings")
		b.ReportMetric(lastOf(r.Points).MeanWCCFrac, "final-WCC-frac")
	}},
	// §4: recall grows as self-organization creates mappings.
	{"D", false, 4, func(b *testing.B, res experiments.Result) {
		r := res.(experiments.RecallResult)
		b.ReportMetric(r.Points[0].MeanRecall, "recall-initial")
		b.ReportMetric(lastOf(r.Points).MeanRecall, "recall-final")
		b.ReportMetric(float64(lastOf(r.Points).ActiveMappings), "mappings-final")
	}},
	// §3.2: precision/recall of the Bayesian deprecation.
	{"E", false, 5, func(b *testing.B, res experiments.Result) {
		r := res.(experiments.DeprecationResult)
		var prec, rec float64
		for _, p := range r.Points {
			prec += p.Precision
			rec += p.Recall
		}
		n := float64(len(r.Points))
		b.ReportMetric(prec/n, "precision")
		b.ReportMetric(rec/n, "recall")
	}},
	{"K", true, 9, func(b *testing.B, res experiments.Result) {
		r := res.(experiments.ConjunctiveResult)
		b.ReportMetric(r.ByteReduction, "byte-cut")
		b.ReportMetric(r.Speedup, "speedup")
		b.ReportMetric(r.PlannedMessages, "planned-msgs/query")
		b.ReportMetric(r.NaiveMessages, "naive-msgs/query")
	}},
	{"L", true, 9, func(b *testing.B, res experiments.Result) {
		r := res.(experiments.SemiJoinResult)
		b.ReportMetric(r.ShippingReduction, "shipping-cut")
		b.ReportMetric(r.Speedup, "speedup")
	}},
	{"M", true, 10, func(b *testing.B, res experiments.Result) {
		r := res.(experiments.StreamingResult)
		b.ReportMetric(r.FirstRowMs, "first-row-ms")
		b.ReportMetric(r.FullWallMs, "full-wall-ms")
		b.ReportMetric(r.FirstRowSpeedup, "first-row-speedup")
		b.ReportMetric(r.LookupReduction, "topk-lookup-cut")
	}},
	{"N", true, 11, func(b *testing.B, res experiments.Result) {
		r := res.(experiments.BulkLoadResult)
		b.ReportMetric(r.MessageReduction, "msg-reduction")
		b.ReportMetric(float64(r.Groups), "groups")
		b.ReportMetric(r.WallSpeedup, "wan-wall-speedup")
	}},
	{"O", false, 12, func(b *testing.B, res experiments.Result) {
		r := res.(experiments.ChurnStressResult)
		b.ReportMetric(r.Recall, "recall")
		b.ReportMetric(float64(r.ConvergenceRounds), "converge-rounds")
		b.ReportMetric(float64(r.DigestRepairBytes), "digest-repair-B")
		b.ReportMetric(float64(r.FullRepairBytes), "full-repair-B")
		b.ReportMetric(r.ByteReduction, "byte-reduction")
	}},
	{"P", false, 12, func(b *testing.B, res experiments.Result) {
		r := res.(experiments.DurabilityResult)
		b.ReportMetric(r.RecoveryMillis, "recovery-ms")
		b.ReportMetric(float64(r.RestartRepairBytes), "restart-repair-B")
		b.ReportMetric(float64(r.ColdResyncBytes), "cold-resync-B")
		b.ReportMetric(r.RepairReduction, "repair-reduction")
	}},
	{"R", true, 10, func(b *testing.B, res experiments.Result) {
		p := lastOf(res.(experiments.ComposeResult).Points)
		b.ReportMetric(p.MessageReduction, fmt.Sprintf("msg-cut@%d", p.Depth))
		b.ReportMetric(p.CompositeMsgsPerQuery, "comp-msgs/query")
		b.ReportMetric(p.TraversalMsgsPerQuery, "traversal-msgs/query")
	}},
}

func lastOf[T any](xs []T) T { return xs[len(xs)-1] }

// TestExperimentBenchmarksAreRegistered resolves every row of
// experimentBenchmarks under plain go test: a row naming a retired
// experiment would otherwise fail only when the benchmarks run.
func TestExperimentBenchmarksAreRegistered(t *testing.T) {
	for _, row := range experimentBenchmarks {
		if _, ok := experiments.Lookup(row.id); !ok {
			t.Errorf("experimentBenchmarks row %q names no registered experiment", row.id)
		}
	}
}

// BenchmarkExperiment/<ID> runs one registry experiment per iteration,
// fails on its gate, and reports its headline figures as custom metrics.
func BenchmarkExperiment(b *testing.B) {
	for _, row := range experimentBenchmarks {
		e, ok := experiments.Lookup(row.id)
		if !ok {
			b.Fatalf("EXP-%s is not registered", row.id)
		}
		b.Run(row.id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := e.Run(row.quick, row.seed)
				if err != nil {
					b.Fatal(err)
				}
				if err := experiments.Check(r); err != nil {
					b.Fatal(err)
				}
				row.report(b, r)
			}
		})
	}
}

// --- Micro-benchmarks of the public API ---------------------------------

func benchNetwork(b *testing.B, peers int) *Network {
	b.Helper()
	net, err := NewNetwork(Options{Peers: peers, Seed: 99})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(net.Close)
	return net
}

// BenchmarkInsertTriple measures one mediation-layer insertion (three
// routed overlay updates plus replication).
func BenchmarkInsertTriple(b *testing.B) {
	net := benchNetwork(b, 64)
	p := net.Peer(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := Triple{
			Subject:   fmt.Sprintf("acc:S%06d", i),
			Predicate: "EMBL#Organism",
			Object:    fmt.Sprintf("Species %d", i),
		}
		if _, err := p.InsertTripleContext(context.Background(), t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchFor measures one routed triple-pattern query.
func BenchmarkSearchFor(b *testing.B) {
	net := benchNetwork(b, 64)
	p := net.Peer(0)
	for i := 0; i < 500; i++ {
		p.InsertTripleContext(context.Background(), Triple{
			Subject:   fmt.Sprintf("acc:Q%04d", i),
			Predicate: "EMBL#Organism",
			Object:    fmt.Sprintf("Species %d", i%20),
		})
	}
	q := Pattern{S: Var("x"), P: Const("EMBL#Organism"), O: Const("Species 7")}
	issuer := net.Peer(31)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blockingSearchFor(issuer, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchWithReformulation measures a query traversing a 3-mapping
// chain, at the default fan-out width and serially.
func BenchmarkSearchWithReformulation(b *testing.B) {
	net := benchNetwork(b, 64)
	p := net.Peer(0)
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("S%d", i)
		p.InsertTripleContext(context.Background(), Triple{Subject: name + "-x", Predicate: name + "#org", Object: "aspergillus"})
		if i < 3 {
			p.InsertMappingContext(context.Background(), NewManualMapping(name, fmt.Sprintf("S%d", i+1), map[string]string{"org": "org"}))
		}
	}
	q := Pattern{S: Var("x"), P: Const("S0#org"), O: Const("aspergillus")}
	issuer := net.Peer(20)
	for name, width := range map[string]int{"default": 0, "serial": 1} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := blockingSearchReformulated(issuer, q, SearchOptions{Parallelism: width}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNetworkConstruction measures static overlay construction.
func BenchmarkNetworkConstruction(b *testing.B) {
	for _, peers := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				net, err := NewNetwork(Options{Peers: peers, Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				net.Close()
			}
		})
	}
}

// BenchmarkBootstrapConstruction measures the self-organizing pairwise
// exchange construction.
func BenchmarkBootstrapConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net, err := NewNetwork(Options{Peers: 64, Seed: int64(i), SelfOrganizingOverlay: true})
		if err != nil {
			b.Fatal(err)
		}
		net.Close()
	}
}

var sinkBindings []Bindings

// BenchmarkConjunctiveQuery measures a two-pattern join.
func BenchmarkConjunctiveQuery(b *testing.B) {
	net := benchNetwork(b, 64)
	p := net.Peer(0)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		subj := fmt.Sprintf("acc:J%04d", i)
		p.InsertTripleContext(context.Background(), Triple{Subject: subj, Predicate: "A#org", Object: fmt.Sprintf("species-%d", rng.Intn(10))})
		p.InsertTripleContext(context.Background(), Triple{Subject: subj, Predicate: "A#len", Object: fmt.Sprint(100 + i)})
	}
	patterns := []Pattern{
		{S: Var("x"), P: Const("A#org"), O: Const("species-3")},
		{S: Var("x"), P: Const("A#len"), O: Var("len")},
	}
	issuer := net.Peer(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := blockingConjunctive(issuer, patterns, false, SearchOptions{})
		if err != nil {
			b.Fatal(err)
		}
		sinkBindings = out
	}
}
