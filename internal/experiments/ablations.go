package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"gridvine/internal/bioworkload"
	"gridvine/internal/keyspace"
	"gridvine/internal/mediation"
	"gridvine/internal/metrics"
	"gridvine/internal/pgrid"
	"gridvine/internal/simnet"
	"gridvine/internal/triple"
)

// --- EXP-G: triple indexing ablation -----------------------------------

// IndexingConfig parameterizes the §2.2 design ablation: GridVine indexes
// every triple three times (subject, predicate, object) so constraint
// searches on any position route to data. The ablation inserts triples
// under the subject key only and measures which queries still find
// answers.
type IndexingConfig struct {
	Peers    int // default 32
	Entities int // default 60
	Schemas  int // default 10
	Queries  int // default 90 (evenly split across constrained positions)
	Seed     int64
}

func (c IndexingConfig) withDefaults() IndexingConfig {
	setDefault(&c.Peers, 32)
	setDefault(&c.Entities, 60)
	setDefault(&c.Schemas, 10)
	setDefault(&c.Queries, 90)
	return c
}

var expG = declare("G", "ablation: triple indexed 3x vs subject-only (paper §2.2 design)",
	func(quick bool, seed int64) (IndexingResult, error) {
		cfg := IndexingConfig{Seed: seed}
		if quick {
			cfg.Peers, cfg.Entities, cfg.Schemas, cfg.Queries = 16, 30, 6, 30
		}
		return RunIndexing(cfg)
	})

// IndexingPoint reports answerability for one constrained position.
type IndexingPoint struct {
	Constraint   string
	FullIndexing float64 // fraction of queries retrieving full ground truth
	SubjectOnly  float64
}

// IndexingResult is the ablation outcome.
type IndexingResult struct {
	Points []IndexingPoint
}

// RunIndexing builds two identical networks — one inserting triples under
// all three keys, one under the subject key only — and issues the same
// queries against both.
func RunIndexing(cfg IndexingConfig) (IndexingResult, error) {
	cfg = cfg.withDefaults()
	w := bioworkload.Generate(bioworkload.Config{
		Schemas:  cfg.Schemas,
		Entities: cfg.Entities,
		Seed:     cfg.Seed + 1,
	})

	type world struct {
		peers []*mediation.Peer
	}
	build := func(subjectOnly bool, seed int64) (world, error) {
		rng := rand.New(rand.NewSource(seed))
		_, peers, err := newSimPeers(cfg.Peers, workloadKeySample(w, 2000, rng), rng)
		if err != nil {
			return world{}, err
		}
		if subjectOnly {
			for _, t := range w.Triples() {
				key := keyspace.HashDefault(t.Subject)
				if _, err := peers[rng.Intn(len(peers))].Node().Update(context.Background(), key, t); err != nil {
					return world{}, err
				}
			}
		} else if err := bulkInsert(peers[rng.Intn(len(peers))], w.Triples()); err != nil {
			return world{}, err
		}
		return world{peers: peers}, nil
	}

	full, err := build(false, cfg.Seed+10)
	if err != nil {
		return IndexingResult{}, err
	}
	subjOnly, err := build(true, cfg.Seed+10)
	if err != nil {
		return IndexingResult{}, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 20))
	queries := w.Queries(cfg.Queries, rng)

	// Rewrite each base query into the three constraint shapes.
	type shaped struct {
		name    string
		pattern func(bioworkload.Query) triple.Pattern
	}
	shapes := []shaped{
		{"subject", func(q bioworkload.Query) triple.Pattern {
			t := q.GroundTruth[0]
			return triple.Pattern{S: triple.Const(t.Subject), P: triple.Var("p"), O: triple.Var("o")}
		}},
		{"predicate", func(q bioworkload.Query) triple.Pattern {
			return triple.Pattern{S: triple.Var("s"), P: q.Pattern.P, O: triple.Var("o")}
		}},
		{"object", func(q bioworkload.Query) triple.Pattern {
			return triple.Pattern{S: triple.Var("s"), P: triple.Var("p"), O: triple.Const(q.Value)}
		}},
	}

	var out IndexingResult
	for _, shape := range shapes {
		fullRecall := metrics.NewDistribution()
		subjRecall := metrics.NewDistribution()
		for _, q := range queries {
			pattern := shape.pattern(q)
			truth := groundTruth(w, pattern)
			if len(truth) == 0 {
				continue
			}
			fullRecall.Add(queryRecall(full.peers, pattern, truth, rng))
			subjRecall.Add(queryRecall(subjOnly.peers, pattern, truth, rng))
		}
		out.Points = append(out.Points, IndexingPoint{
			Constraint:   shape.name,
			FullIndexing: fullRecall.Mean(),
			SubjectOnly:  subjRecall.Mean(),
		})
	}
	return out, nil
}

// groundTruth lists every workload triple matching the pattern.
func groundTruth(w *bioworkload.Workload, q triple.Pattern) []triple.Triple {
	var out []triple.Triple
	for _, t := range w.Triples() {
		if q.Matches(t) {
			out = append(out, t)
		}
	}
	return out
}

// queryRecall measures |retrieved ∩ truth| / |truth| for one query.
func queryRecall(peers []*mediation.Peer, q triple.Pattern, truth []triple.Triple, rng *rand.Rand) float64 {
	issuer := peers[rng.Intn(len(peers))]
	rs, err := searchFor(context.Background(), issuer, q)
	if err != nil {
		return 0
	}
	found := map[triple.Triple]bool{}
	for _, t := range rs.Triples() {
		found[t] = true
	}
	hit := 0
	for _, t := range truth {
		if found[t] {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

// Table renders the ablation.
func (r IndexingResult) Table() string {
	t := metrics.NewTable("constrained on", "3x indexing", "subject-only")
	for _, p := range r.Points {
		t.AddRow(p.Constraint,
			fmt.Sprintf("%.0f%%", 100*p.FullIndexing),
			fmt.Sprintf("%.0f%%", 100*p.SubjectOnly))
	}
	return t.String()
}

// --- EXP-H: replication factor under churn ------------------------------

// ChurnConfig parameterizes the §2.1 design ablation: replica references
// σ(p) keep retrieval available as peers fail.
type ChurnConfig struct {
	Peers          int       // default 120
	Keys           int       // default 150
	ReplicaFactors []int     // default {1,2,3,4}
	FailureRates   []float64 // default {0.1, 0.2, 0.3}
	Seed           int64
}

func (c ChurnConfig) withDefaults() ChurnConfig {
	setDefault(&c.Peers, 120)
	setDefault(&c.Keys, 150)
	if len(c.ReplicaFactors) == 0 {
		c.ReplicaFactors = []int{1, 2, 3, 4}
	}
	if len(c.FailureRates) == 0 {
		c.FailureRates = []float64{0.1, 0.2, 0.3}
	}
	return c
}

var expH = declare("H", "ablation: replication factor vs availability under churn (paper §2.1 design)",
	func(quick bool, seed int64) (ChurnResult, error) {
		cfg := ChurnConfig{Seed: seed}
		if quick {
			cfg.Peers, cfg.Keys = 48, 60
			cfg.ReplicaFactors = []int{1, 2, 3}
		}
		return RunChurn(cfg)
	})

// ChurnPoint is one (replica factor, failure rate) cell.
type ChurnPoint struct {
	ReplicaFactor int
	FailureRate   float64
	Availability  float64
}

// ChurnResult is the grid.
type ChurnResult struct {
	Points []ChurnPoint
}

// RunChurn measures retrieval availability after failing a random fraction
// of peers, for each replica factor.
func RunChurn(cfg ChurnConfig) (ChurnResult, error) {
	cfg = cfg.withDefaults()
	var out ChurnResult
	for _, rf := range cfg.ReplicaFactors {
		for _, rate := range cfg.FailureRates {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(rf*1000) + int64(rate*100)))
			// Diverse value-like key strings (as object values are), so keys
			// spread across the key space rather than sharing one prefix.
			allKeys := make([]keyspace.Key, 0, cfg.Keys)
			for i := 0; i < cfg.Keys; i++ {
				allKeys = append(allKeys, keyspace.HashDefault(churnWord(rng)))
			}
			net := simnet.NewNetwork()
			ov, err := pgrid.Build(net, pgrid.BuildOptions{
				Peers:         cfg.Peers,
				ReplicaFactor: rf,
				SampleKeys:    allKeys,
				Rng:           rng,
			})
			if err != nil {
				return out, err
			}
			issuer := ov.Nodes()[0]
			keys := make([]keyspace.Key, 0, cfg.Keys)
			for i := 0; i < cfg.Keys; i++ {
				k := allKeys[i]
				if _, err := issuer.Update(context.Background(), k, i); err != nil {
					return out, err
				}
				keys = append(keys, k)
			}
			for _, n := range ov.Nodes()[1:] {
				if rng.Float64() < rate {
					net.Fail(n.ID())
				}
			}
			ok := 0
			for _, k := range keys {
				if values, _, err := issuer.Retrieve(context.Background(), k); err == nil && len(values) == 1 {
					ok++
				}
			}
			out.Points = append(out.Points, ChurnPoint{
				ReplicaFactor: rf,
				FailureRate:   rate,
				Availability:  float64(ok) / float64(len(keys)),
			})
		}
	}
	return out, nil
}

// Table renders the grid.
func (r ChurnResult) Table() string {
	t := metrics.NewTable("replica factor", "failure rate", "availability")
	for _, p := range r.Points {
		t.AddRow(fmt.Sprint(p.ReplicaFactor),
			fmt.Sprintf("%.0f%%", 100*p.FailureRate),
			fmt.Sprintf("%.1f%%", 100*p.Availability))
	}
	return t.String()
}
