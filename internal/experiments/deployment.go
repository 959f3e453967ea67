// Package experiments implements the reproduction harness: one runner per
// experiment of DESIGN.md §3, each regenerating a quantitative claim of the
// paper (deployment latency CDF, routing cost, connectivity emergence,
// recall growth, deprecation quality) or an ablation of a design choice
// (triple indexing, replication under churn, reformulation strategies).
// Every experiment is declared once in the registry (All), which
// cmd/gridvine-bench, the root benchmarks and the tests all iterate.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"gridvine/internal/bioworkload"
	"gridvine/internal/des"
	"gridvine/internal/metrics"
	"gridvine/internal/simnet"
)

// DeploymentConfig parameterizes EXP-A, the §2.3 deployment reproduction:
// "a recent deployment of GridVine on 340 machines scattered around the
// world sharing 17000 triples showed that 40% of the 23000 triple pattern
// queries we submitted were answered within one second only, and 75%
// within five seconds."
type DeploymentConfig struct {
	Peers   int // default 340
	Queries int // default 23000
	// Workload sizing; defaults yield ≈17000 triples.
	Schemas  int
	Entities int
	// WAN model (defaults recorded below): per-message delay is
	// a fast/slow mixture — log-normal healthy paths plus a SlowProb chance
	// of hitting an overloaded testbed node.
	TransitMedian time.Duration // default 100ms (fast component median)
	TransitSigma  float64       // default 0.9
	SlowMedian    time.Duration // default 3s (overloaded component median)
	SlowProb      float64       // default 0.15
	ServiceMean   time.Duration // default 15ms
	ArrivalGap    time.Duration // default 40ms between query arrivals
	Seed          int64
}

func (c DeploymentConfig) withDefaults() DeploymentConfig {
	setDefault(&c.Peers, 340)
	setDefault(&c.Queries, 23000)
	setDefault(&c.Schemas, 50)
	setDefault(&c.Entities, 430)
	setDefault(&c.TransitMedian, 100*time.Millisecond)
	setDefault(&c.TransitSigma, 0.9)
	setDefault(&c.SlowMedian, 3*time.Second)
	setDefault(&c.SlowProb, 0.15)
	setDefault(&c.ServiceMean, 15*time.Millisecond)
	setDefault(&c.ArrivalGap, 40*time.Millisecond)
	return c
}

var expA = declare("A", "deployment latency (paper §2.3: 340 peers, 17k triples, 23k queries; 40% <1s, 75% <5s)",
	func(quick bool, seed int64) (DeploymentResult, error) {
		cfg := DeploymentConfig{Seed: seed}
		if quick {
			cfg.Peers, cfg.Queries, cfg.Schemas, cfg.Entities = 120, 3000, 20, 120
		}
		return RunDeployment(cfg)
	})

// DeploymentResult carries the reproduced latency distribution.
type DeploymentResult struct {
	Peers     int
	Triples   int
	Queries   int
	Within1s  float64
	Within5s  float64
	MedianSec float64
	P90Sec    float64
	MeanSec   float64
	MeanHops  float64
	FailedOps int
	SimEvents int
}

// RunDeployment builds the 340-peer network, inserts the ≈17k-triple
// bioinformatic workload, resolves the 23k triple-pattern queries at the
// logic layer (capturing routing traces), and replays the traces through
// the discrete-event simulator under the WAN latency model to obtain the
// query-latency distribution.
func RunDeployment(cfg DeploymentConfig) (DeploymentResult, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	w := bioworkload.Generate(bioworkload.Config{
		Schemas:     cfg.Schemas,
		Entities:    cfg.Entities,
		MinCoverage: 4,
		MaxCoverage: 6,
		Seed:        cfg.Seed + 1,
	})

	_, peers, err := newSimPeers(cfg.Peers, workloadKeySample(w, 4000, rng), rng)
	if err != nil {
		return DeploymentResult{}, err
	}
	if err := bulkInsert(peers[rng.Intn(len(peers))], w.Triples()); err != nil {
		return DeploymentResult{}, fmt.Errorf("inserting workload: %w", err)
	}

	queries := w.Queries(cfg.Queries, rng)
	traces := make([]des.QueryTrace, 0, len(queries))
	hops := metrics.NewDistribution()
	failed := 0
	for _, q := range queries {
		issuer := peers[rng.Intn(len(peers))]
		rs, err := searchFor(context.Background(), issuer, q.Pattern)
		if err != nil {
			failed++
			continue
		}
		contacted := make([]string, 0, len(rs.Route.Contacted))
		for _, id := range rs.Route.Contacted {
			contacted = append(contacted, string(id))
		}
		hops.Add(float64(len(contacted)))
		traces = append(traces, des.QueryTrace{
			Issuer:    string(issuer.Node().ID()),
			Contacted: contacted,
		})
	}

	// Replay under the WAN model.
	sim := des.New()
	arrivals := des.PoissonArrivals(len(traces), cfg.ArrivalGap, rng)
	latencies := des.Replay(sim, traces, arrivals, des.ReplayConfig{
		Transit: simnet.MixtureLatency{
			Fast:     simnet.LogNormalLatency{Median: cfg.TransitMedian, Sigma: cfg.TransitSigma},
			Slow:     simnet.LogNormalLatency{Median: cfg.SlowMedian, Sigma: cfg.TransitSigma},
			SlowProb: cfg.SlowProb,
		},
		Service: simnet.ExponentialLatency{Mean: cfg.ServiceMean},
		Rng:     rng,
	})
	events := sim.Run()

	dist := metrics.NewDistribution()
	for _, l := range latencies {
		if l >= 0 {
			dist.AddDuration(l)
		}
	}
	return DeploymentResult{
		Peers:     cfg.Peers,
		Triples:   len(w.Triples()),
		Queries:   dist.N(),
		Within1s:  dist.FractionBelow(1.0),
		Within5s:  dist.FractionBelow(5.0),
		MedianSec: dist.Percentile(50),
		P90Sec:    dist.Percentile(90),
		MeanSec:   dist.Mean(),
		MeanHops:  hops.Mean(),
		FailedOps: failed,
		SimEvents: events,
	}, nil
}

// Table renders the result as the paper-style comparison.
func (r DeploymentResult) Table() string {
	t := metrics.NewTable("metric", "measured", "paper")
	t.AddRow("peers", fmt.Sprint(r.Peers), "340")
	t.AddRow("triples", fmt.Sprint(r.Triples), "17000")
	t.AddRow("queries", fmt.Sprint(r.Queries), "23000")
	t.AddRow("answered < 1 s", fmt.Sprintf("%.0f%%", 100*r.Within1s), "40%")
	t.AddRow("answered < 5 s", fmt.Sprintf("%.0f%%", 100*r.Within5s), "75%")
	t.AddRow("median latency", fmt.Sprintf("%.2f s", r.MedianSec), "-")
	t.AddRow("p90 latency", fmt.Sprintf("%.2f s", r.P90Sec), "-")
	t.AddRow("mean latency", fmt.Sprintf("%.2f s", r.MeanSec), "-")
	t.AddRow("mean hops", fmt.Sprintf("%.2f", r.MeanHops), "O(log |Π|)")
	return t.String()
}
