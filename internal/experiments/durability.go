package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"gridvine/internal/mediation"
	"gridvine/internal/metrics"
	"gridvine/internal/pgrid"
	"gridvine/internal/simnet"
	"gridvine/internal/store"
	"gridvine/internal/triple"
)

// --- EXP-P: durable store crash/restart ---------------------------------

// DurabilityConfig parameterizes the restart experiment: an overlay of
// WAL+snapshot-backed peers (internal/store journaling every overlay-store
// mutation) is bulk-loaded, one peer crashes with a torn WAL tail, writes
// continue during its downtime, and the peer restarts from disk. The same
// seeded scenario is replayed with a diskless victim that restarts empty,
// so the anti-entropy repair traffic after a durable restart can be
// compared against a cold full re-sync, byte for byte.
type DurabilityConfig struct {
	Peers           int // default 32
	ReplicaFactor   int // default 2
	Triples         int // default 1200 bulk-loaded triples
	BatchSize       int // default 40 triples per Peer.Write
	GapWrites       int // default 150 triples written while the victim is down
	SnapshotEvery   int // default 64 WAL records between snapshots
	MaxRepairRounds int // default 8 anti-entropy rounds before giving up
	// Dir is the journal root; empty means a fresh temp directory on the
	// real filesystem (honest fsync costs), removed when the run ends.
	Dir  string
	Seed int64
}

func (c DurabilityConfig) withDefaults() DurabilityConfig {
	setDefault(&c.Peers, 32)
	setDefault(&c.ReplicaFactor, 2)
	setDefault(&c.Triples, 1200)
	setDefault(&c.BatchSize, 40)
	setDefault(&c.GapWrites, 150)
	setDefault(&c.SnapshotEvery, 64)
	setDefault(&c.MaxRepairRounds, 8)
	return c
}

var expP = declare("P", "durable store: WAL+snapshot recovery and restart repair vs cold re-sync",
	func(quick bool, seed int64) (DurabilityResult, error) {
		cfg := DurabilityConfig{Seed: seed}
		if quick {
			cfg.Peers, cfg.Triples, cfg.BatchSize, cfg.GapWrites, cfg.SnapshotEvery = 12, 200, 25, 50, 16
		}
		return RunDurability(cfg)
	})

// DurabilityResult carries the crash/restart figures Check gates:
// recovery must reproduce the pre-crash store exactly, the corrupt tail
// must be truncated (never absorbed), and rejoining via recovered state
// plus anti-entropy must ship fewer repair bytes than a cold re-sync.
type DurabilityResult struct {
	Peers         int `json:"peers"`
	ReplicaFactor int `json:"replica_factor"`
	Triples       int `json:"triples"`
	GapWrites     int `json:"gap_writes"`

	LoadMillis float64 `json:"load_ms"`
	LoadBytes  int     `json:"load_bytes"`

	RecoveredMatchesReference bool    `json:"recovered_matches_reference"`
	CorruptTailTruncated      bool    `json:"corrupt_tail_truncated"`
	ReplayedRecords           int     `json:"replayed_records"`
	SnapshotItems             int     `json:"snapshot_items"`
	TruncatedBytes            int     `json:"truncated_bytes"`
	RecoveryMillis            float64 `json:"recovery_ms"`

	RestartRepairBytes  int  `json:"restart_repair_bytes"`
	RestartRepairRounds int  `json:"restart_repair_rounds"`
	RestartConverged    bool `json:"restart_converged"`
	ColdResyncBytes     int  `json:"cold_resync_bytes"`
	ColdConverged       bool `json:"cold_converged"`
	// RepairReduction = 1 - restart/cold repair bytes: the fraction of
	// rejoin bandwidth the journal saves.
	RepairReduction float64 `json:"repair_reduction"`
}

// durRun is one scenario execution's raw figures.
type durRun struct {
	loadMs, recoveryMs    float64
	loadBytes             int
	matches, corruptTrunc bool
	replayed, snapItems   int
	truncated             int
	repairBytes           int
	repairRounds          int
	converged             bool
}

// RunDurability replays the same seeded crash/restart scenario twice —
// once with the victim recovering from its WAL+snapshot and once
// restarting empty — and combines the figures.
func RunDurability(cfg DurabilityConfig) (DurabilityResult, error) {
	cfg = cfg.withDefaults()
	durable, err := runDurabilityScenario(cfg, false)
	if err != nil {
		return DurabilityResult{}, err
	}
	cold, err := runDurabilityScenario(cfg, true)
	if err != nil {
		return DurabilityResult{}, err
	}
	res := DurabilityResult{
		Peers:         cfg.Peers,
		ReplicaFactor: cfg.ReplicaFactor,
		Triples:       cfg.Triples,
		GapWrites:     cfg.GapWrites,

		LoadMillis: durable.loadMs,
		LoadBytes:  durable.loadBytes,

		RecoveredMatchesReference: durable.matches,
		CorruptTailTruncated:      durable.corruptTrunc,
		ReplayedRecords:           durable.replayed,
		SnapshotItems:             durable.snapItems,
		TruncatedBytes:            durable.truncated,
		RecoveryMillis:            durable.recoveryMs,

		RestartRepairBytes:  durable.repairBytes,
		RestartRepairRounds: durable.repairRounds,
		RestartConverged:    durable.converged,
		ColdResyncBytes:     cold.repairBytes,
		ColdConverged:       cold.converged,
	}
	if cold.repairBytes > 0 {
		res.RepairReduction = 1 - float64(durable.repairBytes)/float64(cold.repairBytes)
	}
	return res, nil
}

// durTriple derives the i-th workload triple; both scenario runs and the
// gap writes draw from the same deterministic sequence.
func durTriple(i int) triple.Triple {
	return triple.Triple{
		Subject:   fmt.Sprintf("urn:dur:s%04d", i),
		Predicate: fmt.Sprintf("Durability#p%d", i%8),
		Object:    fmt.Sprintf("v%04d", i),
	}
}

// runDurabilityScenario executes one seeded run. With cold=false every
// peer journals to its own directory under the run root and the victim
// restarts from disk (after its WAL tail is smashed); with cold=true the
// overlay is diskless and the victim restarts empty, so all of its state
// must come back over the network.
func runDurabilityScenario(cfg DurabilityConfig, cold bool) (durRun, error) {
	var out durRun
	ctx := context.Background()

	root := cfg.Dir
	if !cold {
		if root == "" {
			tmp, err := os.MkdirTemp("", "gridvine-durability-*")
			if err != nil {
				return out, err
			}
			defer os.RemoveAll(tmp)
			root = tmp
		} else {
			if err := os.MkdirAll(root, 0o755); err != nil {
				return out, err
			}
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	net := simnet.NewNetwork()
	ov, err := pgrid.Build(net, pgrid.BuildOptions{
		Peers:         cfg.Peers,
		ReplicaFactor: cfg.ReplicaFactor,
		Rng:           rng,
	})
	if err != nil {
		return out, err
	}
	net.SetPayloadDelay(0, frameBytes)

	opts := store.Options{SnapshotEvery: cfg.SnapshotEvery}
	nodes := ov.Nodes()
	peers := make([]*mediation.Peer, 0, len(nodes))
	for _, n := range nodes {
		if cold {
			peers = append(peers, mediation.NewPeer(n))
			continue
		}
		l, rec, err := store.Open(store.OsFS{}, filepath.Join(root, string(n.ID())), opts)
		if err != nil {
			return out, fmt.Errorf("opening journal for %s: %w", n.ID(), err)
		}
		p, err := mediation.NewDurablePeer(n, l, rec)
		if err != nil {
			return out, fmt.Errorf("durable peer %s: %w", n.ID(), err)
		}
		peers = append(peers, p)
	}
	issuer := peers[0]

	// Bulk load in batches through the key-grouped write path.
	loadStart := time.Now()
	preLoad := net.Stats()
	for off := 0; off < cfg.Triples; off += cfg.BatchSize {
		b := &mediation.Batch{Parallelism: 1}
		for i := off; i < off+cfg.BatchSize && i < cfg.Triples; i++ {
			b.InsertTriple(durTriple(i))
		}
		rcpt, err := issuer.Write(ctx, b)
		if err != nil {
			return out, fmt.Errorf("bulk load batch at %d: %w", off, err)
		}
		if rcpt.Failed > 0 {
			return out, fmt.Errorf("bulk load batch at %d: %d entries failed: %w", off, rcpt.Failed, rcpt.FirstErr())
		}
	}
	out.loadMs = float64(time.Since(loadStart).Microseconds()) / 1e3
	out.loadBytes = net.Stats().PayloadUnits - preLoad.PayloadUnits

	// Victim: deterministic first non-issuer peer that holds data and has
	// a replica to repair from.
	victimIdx := -1
	for i := 1; i < len(peers); i++ {
		n := peers[i].Node()
		if n.StoreSize() > 0 && len(n.Replicas()) > 0 {
			victimIdx = i
			break
		}
	}
	if victimIdx < 0 {
		return out, fmt.Errorf("no peer with data and replicas in a %d-peer overlay", cfg.Peers)
	}
	victim := peers[victimIdx].Node()
	vID := victim.ID()
	preCrash := victim.ContentDigest()
	net.Fail(vID)

	// Downtime gap: the victim misses these; its replicas absorb them.
	for off := 0; off < cfg.GapWrites; off += cfg.BatchSize {
		b := &mediation.Batch{Parallelism: 1}
		for i := off; i < off+cfg.BatchSize && i < cfg.GapWrites; i++ {
			b.InsertTriple(durTriple(cfg.Triples + i))
		}
		rcpt, err := issuer.Write(ctx, b)
		if err != nil {
			return out, fmt.Errorf("gap batch at %d: %w", off, err)
		}
		if rcpt.Failed > 0 {
			return out, fmt.Errorf("gap batch at %d: %d entries failed: %w", off, rcpt.Failed, rcpt.FirstErr())
		}
	}

	// Restart: a fresh node with the victim's identity and routing state.
	// Durable mode recovers the store from WAL+snapshot — with garbage
	// smashed onto the WAL tail first, as a record cut by power loss would
	// leave — while cold mode comes back with nothing.
	newNode := pgrid.NewNode(vID, victim.Path(), net, pgrid.Config{})
	for l := 0; l < victim.Path().Len(); l++ {
		for _, r := range victim.Refs(l) {
			newNode.AddRef(l, r)
		}
	}
	for _, r := range victim.Replicas() {
		newNode.AddReplica(r)
	}
	var restarted *mediation.Peer
	if cold {
		restarted = mediation.NewPeer(newNode)
	} else {
		walPath := filepath.Join(root, string(vID), "wal.log")
		f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return out, fmt.Errorf("corrupting victim WAL: %w", err)
		}
		if _, err := f.Write([]byte{41, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 7, 7, 7}); err != nil {
			f.Close()
			return out, err
		}
		f.Close()

		recStart := time.Now()
		l, rec, err := store.Open(store.OsFS{}, filepath.Join(root, string(vID)), opts)
		if err != nil {
			return out, fmt.Errorf("victim recovery: %w", err)
		}
		restarted, err = mediation.NewDurablePeer(newNode, l, rec)
		if err != nil {
			return out, fmt.Errorf("victim restart: %w", err)
		}
		out.recoveryMs = float64(time.Since(recStart).Microseconds()) / 1e3
		out.replayed = rec.Records
		out.snapItems = len(rec.SnapshotItems)
		out.truncated = rec.TruncatedBytes
		out.corruptTrunc = rec.TruncatedBytes > 0
		out.matches = newNode.ContentDigest() == preCrash
	}
	net.Register(vID, newNode)
	net.Recover(vID)
	nodes[victimIdx] = newNode
	peers[victimIdx] = restarted

	// Rejoin repair: the restarted peer runs anti-entropy rounds until its
	// replica group converges; the payload delta is the rejoin bandwidth.
	preRepair := net.Stats()
	for round := 1; round <= cfg.MaxRepairRounds; round++ {
		newNode.AntiEntropy(ctx)
		if groupsConverged(nodes, newNode.Path().String()) {
			out.converged = true
			out.repairRounds = round
			break
		}
	}
	out.repairBytes = net.Stats().PayloadUnits - preRepair.PayloadUnits
	return out, net.SizeErr()
}

// Check is EXP-P's gate.
func (r DurabilityResult) Check() error {
	switch {
	case !r.RecoveredMatchesReference:
		return errors.New("recovered store diverged from the pre-crash reference")
	case !r.CorruptTailTruncated:
		return errors.New("corrupt WAL tail was not truncated")
	case !r.RestartConverged:
		return errors.New("rejoin repair after the durable restart did not converge")
	case !r.ColdConverged:
		return errors.New("cold re-sync did not converge")
	case !(r.RestartRepairBytes < r.ColdResyncBytes):
		return fmt.Errorf("restart repair %d bytes not below cold re-sync %d", r.RestartRepairBytes, r.ColdResyncBytes)
	}
	return nil
}

// Table renders the durability figures.
func (r DurabilityResult) Table() string {
	t := metrics.NewTable("metric", "value")
	t.AddRow("peers / replica factor", fmt.Sprintf("%d / %d", r.Peers, r.ReplicaFactor))
	t.AddRow("triples loaded (+gap)", fmt.Sprintf("%d (+%d)", r.Triples, r.GapWrites))
	t.AddRow("bulk load", fmt.Sprintf("%.1f ms / %d bytes", r.LoadMillis, r.LoadBytes))
	t.AddRow("recovered == pre-crash", fmt.Sprint(r.RecoveredMatchesReference))
	t.AddRow("corrupt tail truncated", fmt.Sprintf("%v (%d bytes)", r.CorruptTailTruncated, r.TruncatedBytes))
	t.AddRow("recovery", fmt.Sprintf("%.2f ms (%d records + %d snapshot items)", r.RecoveryMillis, r.ReplayedRecords, r.SnapshotItems))
	t.AddRow("restart repair", fmt.Sprintf("%d bytes / %d rounds (converged %v)", r.RestartRepairBytes, r.RestartRepairRounds, r.RestartConverged))
	t.AddRow("cold re-sync", fmt.Sprintf("%d bytes (converged %v)", r.ColdResyncBytes, r.ColdConverged))
	t.AddRow("repair reduction", fmt.Sprintf("%.1f%%", 100*r.RepairReduction))
	return t.String()
}
