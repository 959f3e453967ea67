package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"gridvine/internal/keyspace"
	"gridvine/internal/metrics"
	"gridvine/internal/pgrid"
	"gridvine/internal/simnet"
)

// RoutingConfig parameterizes EXP-B: Retrieve resolves in O(log |Π|)
// messages on both balanced and unbalanced tries (paper §2.1) when it
// starts cold, and in about one when the issuer has reached the leaf
// before.
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

// RoutingPoint is one row of the routing-cost table. Issuers remember the
// leaves they reach (pgrid's learned leaves), so a route either starts cold,
// from the issuer's routing references — the O(log |Π|) the paper claims —
// or takes a shortcut to a leaf the issuer reached before.
type RoutingPoint struct {
	Peers     int  `json:"peers"`
	Balanced  bool `json:"balanced"`
	TrieDepth int  `json:"trie_depth"`
	// MeanHops is over every route; the cold figures are over the routes
	// that took no shortcut.
	MeanHops     float64 `json:"mean_hops"`
	ColdMeanHops float64 `json:"cold_mean_hops"`
	ColdP99Hops  float64 `json:"cold_p99_hops"`
	ColdMaxHops  int     `json:"cold_max_hops"`
	Log2Peers    float64 `json:"log2_peers"`
	MeanPerLog   float64 `json:"cold_hops_per_log2_peers"` // flat ⇒ logarithmic cost
	// ShortcutShare is the share of routes whose first exchange went to a
	// learned leaf, and ShortcutMeanHops their mean hops.
	ShortcutShare    float64 `json:"shortcut_share"`
	ShortcutMeanHops float64 `json:"shortcut_mean_hops"`
}

// RoutingResult is the full sweep.
type RoutingResult struct {
	Points []RoutingPoint `json:"points"`
}

// Check holds the paper's claim on the cold routes — mean hops at most
// log2(N) — and holds a shortcut to about one exchange.
func (r RoutingResult) Check() error {
	if len(r.Points) == 0 {
		return errors.New("no routing points")
	}
	var errs []error
	for _, p := range r.Points {
		if p.MeanPerLog > 1 {
			errs = append(errs, fmt.Errorf("%d peers (%s): cold hops/log2(N) = %.3f, want ≤ 1", p.Peers, p.shape(), p.MeanPerLog))
		}
		if p.ShortcutMeanHops > 1.1 {
			errs = append(errs, fmt.Errorf("%d peers (%s): shortcut mean hops = %.3f, want ≤ 1.1", p.Peers, p.shape(), p.ShortcutMeanHops))
		}
	}
	return errors.Join(errs...)
}

func (p RoutingPoint) shape() string {
	if p.Balanced {
		return "balanced"
	}
	return "skewed"
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
	all, cold, shortcut := metrics.NewDistribution(), metrics.NewDistribution(), metrics.NewDistribution()
	for i := 0; i < cfg.QueriesPerSize; i++ {
		issuer := ov.RandomNode(rng)
		key := keyspace.HashDefault(fmt.Sprintf("routing-%d-%d", size, rng.Int()))
		_, route, err := issuer.Retrieve(context.Background(), key)
		if err != nil {
			return RoutingPoint{}, fmt.Errorf("retrieve at size %d: %w", size, err)
		}
		hops := float64(route.Hops())
		all.Add(hops)
		if route.Shortcut {
			shortcut.Add(hops)
		} else {
			cold.Add(hops)
		}
	}
	logp := math.Log2(float64(size))
	return RoutingPoint{
		Peers:            size,
		Balanced:         balanced,
		TrieDepth:        ov.MaxPathDepth(),
		MeanHops:         all.Mean(),
		ColdMeanHops:     cold.Mean(),
		ColdP99Hops:      cold.Percentile(99),
		ColdMaxHops:      int(cold.Max()),
		Log2Peers:        logp,
		MeanPerLog:       cold.Mean() / logp,
		ShortcutShare:    float64(shortcut.N()) / float64(all.N()),
		ShortcutMeanHops: shortcut.Mean(),
	}, nil
}

// Table renders the sweep.
func (r RoutingResult) Table() string {
	t := metrics.NewTable("peers", "trie", "depth", "cold hops", "p99", "max", "log2(N)", "hops/log2(N)", "shortcut", "shortcut hops", "all hops")
	for _, p := range r.Points {
		t.AddRow(
			fmt.Sprint(p.Peers), p.shape(), fmt.Sprint(p.TrieDepth),
			fmt.Sprintf("%.2f", p.ColdMeanHops), fmt.Sprintf("%.0f", p.ColdP99Hops),
			fmt.Sprint(p.ColdMaxHops), fmt.Sprintf("%.1f", p.Log2Peers),
			fmt.Sprintf("%.3f", p.MeanPerLog),
			fmt.Sprintf("%.0f%%", 100*p.ShortcutShare), fmt.Sprintf("%.2f", p.ShortcutMeanHops),
			fmt.Sprintf("%.2f", p.MeanHops),
		)
	}
	return t.String()
}
