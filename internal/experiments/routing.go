package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"gridvine/internal/keyspace"
	"gridvine/internal/metrics"
	"gridvine/internal/pgrid"
	"gridvine/internal/simnet"
)

// RoutingConfig parameterizes EXP-B: Retrieve resolves in O(log |Π|)
// messages on both balanced and unbalanced tries (paper §2.1).
type RoutingConfig struct {
	// Sizes are the network sizes to sweep. Default 64…4096.
	Sizes []int
	// QueriesPerSize is the number of random retrievals per size. Default 300.
	QueriesPerSize int
	// Skewed additionally builds a data-adaptive (unbalanced) trie from a
	// Zipf-flavoured key sample at each size.
	Skewed bool
	Seed   int64
}

func (c RoutingConfig) withDefaults() RoutingConfig {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{64, 128, 256, 512, 1024, 2048, 4096}
	}
	setDefault(&c.QueriesPerSize, 300)
	return c
}

var expB = declare("B", "routing cost O(log |Π|) (paper §2.1), balanced and skewed tries",
	func(quick bool, seed int64) (RoutingResult, error) {
		cfg := RoutingConfig{Skewed: true, Seed: seed}
		if quick {
			cfg.Sizes = []int{64, 256, 1024}
			cfg.QueriesPerSize = 150
		}
		return RunRouting(cfg)
	})

// RoutingPoint is one row of the routing-cost table.
type RoutingPoint struct {
	Peers      int
	Balanced   bool
	TrieDepth  int
	MeanHops   float64
	P99Hops    float64
	MaxHops    int
	Log2Peers  float64
	MeanPerLog float64 // mean hops / log2(peers): flat ⇒ logarithmic cost
}

// RoutingResult is the full sweep.
type RoutingResult struct {
	Points []RoutingPoint
}

// RunRouting sweeps network sizes and measures per-retrieval hop counts.
func RunRouting(cfg RoutingConfig) (RoutingResult, error) {
	cfg = cfg.withDefaults()
	var out RoutingResult
	for _, size := range cfg.Sizes {
		shapes := []bool{true}
		if cfg.Skewed {
			shapes = append(shapes, false)
		}
		for _, balanced := range shapes {
			point, err := routingPoint(size, balanced, cfg)
			if err != nil {
				return out, err
			}
			out.Points = append(out.Points, point)
		}
	}
	return out, nil
}

func routingPoint(size int, balanced bool, cfg RoutingConfig) (RoutingPoint, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(size)))
	net := simnet.NewNetwork()
	opts := pgrid.BuildOptions{Peers: size, ReplicaFactor: 2, Rng: rng}
	if !balanced {
		// Zipf-flavoured sample: most keys share a short prefix.
		var sample []keyspace.Key
		for i := 0; i < 2000; i++ {
			s := string(rune('a' + rng.Intn(3)))
			if rng.Intn(8) == 0 {
				s = string(rune('a' + rng.Intn(26)))
			}
			sample = append(sample, keyspace.HashDefault(s+fmt.Sprint(i)))
		}
		opts.SampleKeys = sample
	}
	ov, err := pgrid.Build(net, opts)
	if err != nil {
		return RoutingPoint{}, err
	}
	hops := metrics.NewDistribution()
	for i := 0; i < cfg.QueriesPerSize; i++ {
		issuer := ov.RandomNode(rng)
		key := keyspace.HashDefault(fmt.Sprintf("routing-%d-%d", size, rng.Int()))
		_, route, err := issuer.Retrieve(context.Background(), key)
		if err != nil {
			return RoutingPoint{}, fmt.Errorf("retrieve at size %d: %w", size, err)
		}
		hops.Add(float64(route.Hops()))
	}
	logp := math.Log2(float64(size))
	return RoutingPoint{
		Peers:      size,
		Balanced:   balanced,
		TrieDepth:  ov.MaxPathDepth(),
		MeanHops:   hops.Mean(),
		P99Hops:    hops.Percentile(99),
		MaxHops:    int(hops.Max()),
		Log2Peers:  logp,
		MeanPerLog: hops.Mean() / logp,
	}, nil
}

// Table renders the sweep.
func (r RoutingResult) Table() string {
	t := metrics.NewTable("peers", "trie", "depth", "mean hops", "p99", "max", "log2(N)", "hops/log2(N)")
	for _, p := range r.Points {
		shape := "balanced"
		if !p.Balanced {
			shape = "skewed"
		}
		t.AddRow(
			fmt.Sprint(p.Peers), shape, fmt.Sprint(p.TrieDepth),
			fmt.Sprintf("%.2f", p.MeanHops), fmt.Sprintf("%.0f", p.P99Hops),
			fmt.Sprint(p.MaxHops), fmt.Sprintf("%.1f", p.Log2Peers),
			fmt.Sprintf("%.3f", p.MeanPerLog),
		)
	}
	return t.String()
}
