package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"gridvine/internal/keyspace"
	"gridvine/internal/metrics"
	"gridvine/internal/pgrid"
	"gridvine/internal/simnet"
)

// --- EXP-O: churn stress with digest-based anti-entropy repair ----------

// ChurnStressConfig parameterizes the sustained-churn experiment: a seeded
// simnet.FaultPlan crashes peers every round and restarts them after a
// fixed downtime while a mixed write/delete/query load keeps running.
// Restarted peers repair with digest anti-entropy (Node.AntiEntropy); at
// each repair point the run also accounts what pulling every live replica's
// whole store would have shipped, so the repair-bandwidth comparison is
// over the very same divergence.
type ChurnStressConfig struct {
	Peers           int     // default 96
	ReplicaFactor   int     // default 3
	Rounds          int     // default 24 churn rounds
	CrashPerRound   int     // default 3 peers crashed per round
	DowntimeRounds  int     // default 2 rounds before a crashed peer restarts
	WritesPerRound  int     // default 24
	DeletesPerRound int     // default 4
	QueriesPerRound int     // default 12
	DropRate        float64 // default 0.01 background message loss while churning
	MaxRepairRounds int     // default 8 all-node repair rounds after heal
	Seed            int64
}

func (c ChurnStressConfig) withDefaults() ChurnStressConfig {
	setDefault(&c.Peers, 96)
	setDefault(&c.ReplicaFactor, 3)
	setDefault(&c.Rounds, 24)
	setDefault(&c.CrashPerRound, 3)
	setDefault(&c.DowntimeRounds, 2)
	setDefault(&c.WritesPerRound, 24)
	setDefault(&c.DeletesPerRound, 4)
	setDefault(&c.QueriesPerRound, 12)
	setDefault(&c.DropRate, 0.01)
	setDefault(&c.MaxRepairRounds, 8)
	return c
}

var expO = declare("O", "churn stress: digest anti-entropy repair vs full-store sync under sustained crash/restart load",
	func(quick bool, seed int64) (ChurnStressResult, error) {
		cfg := ChurnStressConfig{Seed: seed}
		if quick {
			cfg.Peers, cfg.Rounds, cfg.CrashPerRound = 32, 8, 2
			cfg.WritesPerRound, cfg.DeletesPerRound, cfg.QueriesPerRound = 10, 2, 6
		}
		return RunChurnStress(cfg)
	})

// ChurnStressResult reports the digest-run quality figures (recall under
// churn, degraded answers, post-heal convergence, delete resurrection)
// plus the repair bandwidth of both strategies. Repair bytes are overlay
// frame lengths: the digest side's accumulated by the transport's bandwidth
// model during repair calls only, the full-store side's accounted at the
// same points, so the comparison isolates what each strategy ships.
type ChurnStressResult struct {
	Peers           int     `json:"peers"`
	ReplicaFactor   int     `json:"replica_factor"`
	Rounds          int     `json:"rounds"`
	Crashes         int     `json:"crashes"`
	Restarts        int     `json:"restarts"`
	Writes          int     `json:"writes"`
	WriteFailures   int     `json:"write_failures"`
	Deletes         int     `json:"deletes"`
	Queries         int     `json:"queries"`
	Recall          float64 `json:"recall"`
	DegradedQueries int     `json:"degraded_queries"`
	FinalRecall     float64 `json:"final_recall"`

	Converged         bool `json:"converged"`
	ConvergenceRounds int  `json:"convergence_rounds"`
	Resurrected       int  `json:"resurrected"`

	DigestRepairBytes    int     `json:"digest_repair_bytes"`
	DigestRepairMessages int     `json:"digest_repair_messages"`
	FullRepairBytes      int     `json:"full_repair_bytes"`
	FullRepairMessages   int     `json:"full_repair_messages"`
	ByteReduction        float64 `json:"byte_reduction"`
}

// RunChurnStress executes the seeded churn run: restarted peers repair via
// digest anti-entropy. The fault schedule, workload, and all random choices
// derive from cfg.Seed.
func RunChurnStress(cfg ChurnStressConfig) (ChurnStressResult, error) {
	cfg = cfg.withDefaults()
	out := ChurnStressResult{Peers: cfg.Peers, ReplicaFactor: cfg.ReplicaFactor, Rounds: cfg.Rounds}
	var hits, finalHits, finalQueries int
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Diverse sample keys so Build splits the trie evenly.
	sample := make([]keyspace.Key, 0, 400)
	for i := 0; i < 400; i++ {
		sample = append(sample, keyspace.HashDefault(churnWord(rng)))
	}
	net := simnet.NewNetwork()
	ov, err := pgrid.Build(net, pgrid.BuildOptions{
		Peers:         cfg.Peers,
		ReplicaFactor: cfg.ReplicaFactor,
		SampleKeys:    sample,
		Rng:           rng,
	})
	if err != nil {
		return out, err
	}
	net.SetPayloadDelay(0, frameBytes)

	nodes := ov.Nodes()
	byID := make(map[simnet.PeerID]*pgrid.Node, len(nodes))
	for _, n := range nodes {
		byID[n.ID()] = n
	}
	issuer := nodes[0] // never crashed, so the workload can always be issued

	// Deterministic crash/restart schedule: each round crashes
	// CrashPerRound currently-live peers and restarts them DowntimeRounds
	// later.
	plan := simnet.NewFaultPlan(cfg.Seed + 1)
	plan.SetDropRate(cfg.DropRate)
	net.SetFaultPlan(plan)
	schedRng := rand.New(rand.NewSource(cfg.Seed + 2))
	downUntil := map[simnet.PeerID]int{}
	lastStep := cfg.Rounds
	for r := 1; r <= cfg.Rounds; r++ {
		for c := 0; c < cfg.CrashPerRound; c++ {
			for tries := 0; tries < 20; tries++ {
				v := nodes[1+schedRng.Intn(len(nodes)-1)].ID()
				if downUntil[v] >= r {
					continue
				}
				up := r + cfg.DowntimeRounds
				downUntil[v] = up
				plan.At(r, simnet.Crash(v))
				plan.At(up, simnet.Restart(v))
				if up > lastStep {
					lastStep = up
				}
				break
			}
		}
	}

	ctx := context.Background()
	// The full-store baseline is accounted, never sent, so it is sized
	// here and its sizing errors are kept beside the network's.
	var sizeErr error
	size := func(payload any) int {
		n, err := frameBytes(payload)
		if sizeErr == nil {
			sizeErr = err
		}
		return n
	}
	// repair runs n's digest anti-entropy and, first, accounts the
	// full-store baseline at the same point: n asks every replica (one
	// message each) and every live one answers with all it holds under n's
	// path, items and tombstones.
	repair := func(n *pgrid.Node) {
		path := n.Path().String()
		ask := size(pgrid.DigestRequest{Path: path})
		for _, r := range n.Replicas() {
			out.FullRepairMessages++
			if net.Failed(r) {
				continue
			}
			var pull pgrid.RepairResponse
			items, tombs := byID[r].DumpState()
			for _, it := range items {
				if strings.HasPrefix(it.Key, path) {
					pull.Missing = append(pull.Missing, it)
				}
			}
			for _, tb := range tombs {
				if strings.HasPrefix(tb.Key, path) {
					pull.Tombs = append(pull.Tombs, tb)
				}
			}
			out.FullRepairBytes += ask + size(pull)
		}
		before := net.Stats()
		n.AntiEntropy(ctx)
		after := net.Stats()
		out.DigestRepairBytes += after.PayloadUnits - before.PayloadUnits
		out.DigestRepairMessages += after.Messages - before.Messages
	}

	// Mixed workload state: model is the expected key→value view, live the
	// orderable slice of insert-order names, deleted the resurrection probes.
	model := map[string]string{}
	var live []string
	deleted := map[string]string{}
	workRng := rand.New(rand.NewSource(cfg.Seed + 3))
	seq := 0

	for step := 1; step <= lastStep; step++ {
		for _, e := range plan.Step(net) {
			switch e.Kind {
			case simnet.FaultCrash:
				out.Crashes++
			case simnet.FaultRestart:
				out.Restarts++
				repair(byID[e.Peer])
			}
		}
		if step > cfg.Rounds {
			continue // drain tail restarts past the churn window
		}
		for w := 0; w < cfg.WritesPerRound; w++ {
			name := fmt.Sprintf("churn-%05d-%s", seq, churnWord(workRng))
			val := fmt.Sprintf("v%05d", seq)
			seq++
			if _, err := issuer.Update(ctx, keyspace.HashDefault(name), val); err != nil {
				out.WriteFailures++
				continue
			}
			out.Writes++
			model[name] = val
			live = append(live, name)
		}
		for d := 0; d < cfg.DeletesPerRound && len(live) > 0; d++ {
			i := workRng.Intn(len(live))
			name := live[i]
			val := model[name]
			if _, err := issuer.Delete(ctx, keyspace.HashDefault(name), val); err != nil {
				continue
			}
			out.Deletes++
			delete(model, name)
			deleted[name] = val
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for q := 0; q < cfg.QueriesPerRound && len(live) > 0; q++ {
			name := live[workRng.Intn(len(live))]
			want := model[name]
			vals, route, err := issuer.Retrieve(ctx, keyspace.HashDefault(name))
			out.Queries++
			if err != nil {
				continue
			}
			if route.Degraded {
				out.DegradedQueries++
			}
			if len(vals) == 1 && vals[0] == want {
				hits++
			}
		}
	}

	// Heal: churn is over and background loss stops; run all-node repair
	// rounds until every replica group holds a byte-identical store.
	plan.SetDropRate(0)
	for round := 1; round <= cfg.MaxRepairRounds; round++ {
		for _, n := range nodes {
			repair(n)
		}
		if groupsConverged(nodes, "") {
			out.Converged = true
			out.ConvergenceRounds = round
			break
		}
	}

	// Resurrection probe: no responsible node may still hold a deleted
	// value after convergence.
	for name, val := range deleted {
		k := keyspace.HashDefault(name)
		for _, n := range nodes {
			if !n.Responsible(k) {
				continue
			}
			found := false
			for _, v := range n.LocalGet(k) {
				if v == val {
					found = true
					break
				}
			}
			if found {
				out.Resurrected++
				break
			}
		}
	}

	// Final recall over the healed overlay: every acknowledged live write
	// must be retrievable with its latest value.
	for name, want := range model {
		finalQueries++
		vals, _, err := issuer.Retrieve(ctx, keyspace.HashDefault(name))
		if err == nil && len(vals) == 1 && vals[0] == want {
			finalHits++
		}
	}
	if out.Queries > 0 {
		out.Recall = float64(hits) / float64(out.Queries)
	}
	if finalQueries > 0 {
		out.FinalRecall = float64(finalHits) / float64(finalQueries)
	}
	if out.FullRepairBytes > 0 {
		out.ByteReduction = 1 - float64(out.DigestRepairBytes)/float64(out.FullRepairBytes)
	}
	return out, errors.Join(sizeErr, net.SizeErr())
}

// groupsConverged reports whether every replica group (nodes sharing a
// leaf path) holds a byte-identical store. A non-empty path restricts the
// check to that one group.
func groupsConverged(nodes []*pgrid.Node, path string) bool {
	digests := map[string]uint64{}
	for _, n := range nodes {
		p := n.Path().String()
		if path != "" && p != path {
			continue
		}
		d := n.ContentDigest()
		if prev, ok := digests[p]; ok && prev != d {
			return false
		}
		digests[p] = d
	}
	return true
}

// churnWord draws a 10-letter random string: diverse value-like keys that
// spread across the key space.
func churnWord(rng *rand.Rand) string {
	s := make([]byte, 10)
	for i := range s {
		s[i] = byte('a' + rng.Intn(26))
	}
	return string(s)
}

// Check is EXP-O's gate: digest anti-entropy converges, ships fewer repair
// bytes than full-store sync, holds the recall floors, and resurrects no
// delete.
func (r ChurnStressResult) Check() error {
	switch {
	case !r.Converged:
		return errors.New("replica groups did not converge after heal")
	case !(r.DigestRepairBytes < r.FullRepairBytes):
		return fmt.Errorf("digest repair %d bytes not below full-store sync %d", r.DigestRepairBytes, r.FullRepairBytes)
	case r.Recall < 0.9:
		return fmt.Errorf("recall under churn %.3f, want ≥0.9", r.Recall)
	case r.FinalRecall < 0.99:
		return fmt.Errorf("final recall %.3f, want ≥0.99", r.FinalRecall)
	case r.Resurrected != 0:
		return fmt.Errorf("%d deletes resurrected", r.Resurrected)
	}
	return nil
}

// Table renders the churn-stress figures.
func (r ChurnStressResult) Table() string {
	t := metrics.NewTable("metric", "value")
	t.AddRow("peers / replica factor", fmt.Sprintf("%d / %d", r.Peers, r.ReplicaFactor))
	t.AddRow("churn rounds", fmt.Sprint(r.Rounds))
	t.AddRow("crashes / restarts", fmt.Sprintf("%d / %d", r.Crashes, r.Restarts))
	t.AddRow("writes (failed)", fmt.Sprintf("%d (%d)", r.Writes, r.WriteFailures))
	t.AddRow("deletes", fmt.Sprint(r.Deletes))
	t.AddRow("queries", fmt.Sprint(r.Queries))
	t.AddRow("recall under churn", fmt.Sprintf("%.1f%%", 100*r.Recall))
	t.AddRow("degraded answers", fmt.Sprint(r.DegradedQueries))
	t.AddRow("final recall", fmt.Sprintf("%.1f%%", 100*r.FinalRecall))
	t.AddRow("converged", fmt.Sprintf("%v (%d rounds)", r.Converged, r.ConvergenceRounds))
	t.AddRow("resurrected deletes", fmt.Sprint(r.Resurrected))
	t.AddRow("digest repair", fmt.Sprintf("%d bytes / %d msgs", r.DigestRepairBytes, r.DigestRepairMessages))
	t.AddRow("full-store repair", fmt.Sprintf("%d bytes / %d msgs", r.FullRepairBytes, r.FullRepairMessages))
	t.AddRow("byte reduction", fmt.Sprintf("%.1f%%", 100*r.ByteReduction))
	return t.String()
}
