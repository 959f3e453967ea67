// Package experiments implements the reproduction harness: one runner per
// experiment of DESIGN.md §3, each regenerating a quantitative claim of the
// paper (deployment latency CDF, routing cost, connectivity emergence,
// recall growth, deprecation quality), an ablation of a design choice
// (the schema matcher), or a comparison of engine strategies.
// Every experiment is declared once in the registry (All), which
// cmd/gridvine-bench, the root benchmarks and the tests all iterate.
package experiments

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"gridvine/internal/bioworkload"
	"gridvine/internal/metrics"
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
// logic layer (capturing each one's route), and replays the routes under
// the WAN latency model to obtain the query-latency distribution.
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
	routes := make([][]string, 0, len(queries))
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
		routes = append(routes, contacted)
	}

	latencies, events := replayWAN(routes, cfg, rng)
	dist := metrics.NewDistribution()
	for _, l := range latencies {
		dist.AddDuration(l)
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

// --- Trace replay ---------------------------------------------------------

// replayWAN issues the routes as Poisson arrivals and replays them under
// cfg's WAN model: a message crosses a healthy path (log-normal around
// TransitMedian) or, with probability SlowProb, meets an overloaded testbed
// node (log-normal around SlowMedian); a peer's service time is exponential
// with mean ServiceMean. It returns each query's latency and the number of
// events the replay processed.
func replayWAN(routes [][]string, cfg DeploymentConfig, rng *rand.Rand) ([]time.Duration, int) {
	arrivals := poissonArrivals(len(routes), cfg.ArrivalGap, rng)
	transit := func() time.Duration {
		median := cfg.TransitMedian
		if rng.Float64() < cfg.SlowProb {
			median = cfg.SlowMedian
		}
		return logNormal(rng, median, cfg.TransitSigma)
	}
	service := func() time.Duration { return exponential(rng, cfg.ServiceMean) }
	return replay(routes, arrivals, transit, service)
}

// poissonArrivals returns n issue times separated by exponential gaps of
// mean meanGap. The first arrival comes one drawn gap after 0, not at 0.
func poissonArrivals(n int, meanGap time.Duration, rng *rand.Rand) []time.Duration {
	out := make([]time.Duration, n)
	var t time.Duration
	for i := range out {
		t += exponential(rng, meanGap)
		out[i] = t
	}
	return out
}

// logNormal draws a delay whose median is median and whose logarithm has
// standard deviation sigma: most draws land near the median, a few far
// above it.
func logNormal(rng *rand.Rand, median time.Duration, sigma float64) time.Duration {
	return time.Duration(math.Exp(math.Log(float64(median)) + sigma*rng.NormFloat64()))
}

// exponential draws a duration exponentially distributed with the given mean.
func exponential(rng *rand.Rand, mean time.Duration) time.Duration {
	return time.Duration(rng.ExpFloat64() * float64(mean))
}

// replay is a discrete-event simulation of iterative routing in virtual
// time: query i is issued at arrivals[i] and its issuer contacts the peers
// of routes[i] one after the other. Each hop is a request transit, service
// at the peer, and a response transit back. A peer serves its requests one
// at a time in arrival order, and events due at the same time run in the
// order they were scheduled. transit and service are drawn when the event
// that needs them runs, so the draw order follows virtual time. replay
// returns each query's latency and the number of events processed.
func replay(routes [][]string, arrivals []time.Duration, transit, service func() time.Duration) ([]time.Duration, int) {
	latencies := make([]time.Duration, len(routes))
	busyUntil := map[string]time.Duration{}
	var events replayQueue
	seq := 0
	schedule := func(at time.Duration, query, hop int, stage hopStage) {
		seq++
		heap.Push(&events, replayEvent{at: at, seq: seq, query: query, hop: hop, stage: stage})
	}
	for i, at := range arrivals {
		schedule(at, i, 0, atIssuer)
	}
	processed := 0
	for ; events.Len() > 0; processed++ {
		ev := heap.Pop(&events).(replayEvent)
		route := routes[ev.query]
		switch ev.stage {
		case atIssuer:
			if ev.hop == len(route) {
				latencies[ev.query] = ev.at - arrivals[ev.query]
				continue
			}
			schedule(ev.at+transit(), ev.query, ev.hop, atPeer)
		case atPeer:
			d := service()
			finish := max(ev.at, busyUntil[route[ev.hop]]) + d
			busyUntil[route[ev.hop]] = finish
			schedule(finish, ev.query, ev.hop, served)
		case served:
			schedule(ev.at+transit(), ev.query, ev.hop+1, atIssuer)
		}
	}
	return latencies, processed
}

// hopStage is where a query stands on its current hop.
type hopStage uint8

const (
	atIssuer hopStage = iota // issued, or the previous hop's answer is back
	atPeer                   // the request reached the hop's peer
	served                   // the peer finished serving it
)

type replayEvent struct {
	at         time.Duration
	seq        int // ties at equal times break in schedule order
	query, hop int
	stage      hopStage
}

// replayQueue is a min-heap of events ordered by (at, seq).
type replayQueue []replayEvent

func (q replayQueue) Len() int { return len(q) }
func (q replayQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q replayQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *replayQueue) Push(x any)   { *q = append(*q, x.(replayEvent)) }
func (q *replayQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	*q = old[:len(old)-1]
	return ev
}
