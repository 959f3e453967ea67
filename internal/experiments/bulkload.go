package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"gridvine/internal/bioworkload"
	"gridvine/internal/mediation"
	"gridvine/internal/metrics"
	"gridvine/internal/simnet"
	"gridvine/internal/triple"
)

// BulkLoadConfig parameterizes EXP-N, the batched write-path evaluation.
// Two measurements run back to back:
//
//  1. Message / payload accounting at full scale: the same bioinformatic
//     workload is ingested twice into identically-seeded networks — once
//     through the historical per-triple loop (three routed overlay updates
//     per triple, §2.2's Update(t)), once through one Peer.Write batch —
//     and compared on routed messages, payload bytes (overlay frame
//     lengths), and final store state. The in-memory transport runs
//     undelayed, so the full paper scale completes in seconds.
//  2. Wall-clock under a WAN transit/bandwidth model on a sub-load of
//     WallTriples: per-message delays make every serial round-trip pay
//     transit, so the sub-load must stay small enough for the per-triple
//     baseline to finish.
type BulkLoadConfig struct {
	Peers    int // default 340 (the paper's deployment scale)
	Schemas  int // default 50
	Entities int // default 430 (≈17k triples with coverage 4–6)
	// Parallelism is the batch write pool width. Default
	// mediation.DefaultParallelism.
	Parallelism int
	// WallTriples is the sub-load size of the WAN wall-clock measurement
	// (default 800; negative skips the measurement).
	WallTriples int
	WANModel    // applied to the wall-clock measurement only
	Seed        int64
}

func (c BulkLoadConfig) withDefaults() BulkLoadConfig {
	setDefault(&c.Peers, 340)
	setDefault(&c.Schemas, 50)
	setDefault(&c.Entities, 430)
	setDefault(&c.Parallelism, mediation.DefaultParallelism)
	setDefault(&c.WallTriples, 800)
	c.WANModel = c.WANModel.withDefaults()
	return c
}

var expN = declare("N", "batched write path: key-grouped bulk ingest vs the per-triple Update(t) loop",
	func(quick bool, seed int64) (BulkLoadResult, error) {
		cfg := BulkLoadConfig{Seed: seed}
		if quick {
			cfg.Peers, cfg.Schemas, cfg.Entities, cfg.WallTriples = 48, 12, 60, 200
		}
		return RunBulkLoad(cfg)
	})

// BulkLoadResult reports EXP-N.
type BulkLoadResult struct {
	Triples   int `json:"triples"`
	KeyWrites int `json:"key_writes"`

	SerialMessages   int     `json:"serial_messages"`
	BatchedMessages  int     `json:"batched_messages"`
	MessageReduction float64 `json:"message_reduction"`
	Groups           int     `json:"groups"`

	SerialPayloadBytes  int `json:"serial_payload_bytes"`
	BatchedPayloadBytes int `json:"batched_payload_bytes"`

	// WAN-modeled wall-clock over the WallTriples sub-load.
	WallTriples   int     `json:"wall_triples"`
	SerialWallMs  float64 `json:"serial_wall_ms"`
	BatchedWallMs float64 `json:"batched_wall_ms"`
	WallSpeedup   float64 `json:"wall_speedup"`

	BatchedMatchesSerial bool `json:"batched_matches_serial"`
}

// RunBulkLoad executes the comparison. All networks are built with the
// same seed (identical trie, placement and replica sets) and loaded from
// the same fixed issuer, so the only variable is the write path.
func RunBulkLoad(cfg BulkLoadConfig) (BulkLoadResult, error) {
	cfg = cfg.withDefaults()

	w := bioworkload.Generate(bioworkload.Config{
		Schemas:     cfg.Schemas,
		Entities:    cfg.Entities,
		MinCoverage: 4,
		MaxCoverage: 6,
		Seed:        cfg.Seed + 1,
	})
	triples := w.Triples()

	var nets []*simnet.Network
	build := func() (*simnet.Network, []*mediation.Peer, error) {
		rng := rand.New(rand.NewSource(cfg.Seed))
		net, peers, err := newSimPeers(cfg.Peers, workloadKeySample(w, 4000, rng), rng)
		if err != nil {
			return nil, nil, err
		}
		// Sleeps stay off here; counting bytes is free.
		net.SetPayloadDelay(0, frameBytes)
		nets = append(nets, net)
		return net, peers, nil
	}
	loadSerial := func(peers []*mediation.Peer, ts []triple.Triple) error {
		for _, t := range ts {
			if _, err := peers[0].InsertTripleContext(context.Background(), t); err != nil {
				return fmt.Errorf("serial insert: %w", err)
			}
		}
		return nil
	}
	loadBatched := func(peers []*mediation.Peer, ts []triple.Triple) (*mediation.Receipt, error) {
		b := &mediation.Batch{Parallelism: cfg.Parallelism}
		for _, t := range ts {
			b.InsertTriple(t)
		}
		rec, err := peers[0].Write(context.Background(), b)
		if err != nil {
			return rec, fmt.Errorf("batched write: %w", err)
		}
		if rec.Applied != len(ts) {
			return rec, fmt.Errorf("batched write applied %d of %d entries: %v", rec.Applied, len(ts), rec.FirstErr())
		}
		return rec, nil
	}

	out := BulkLoadResult{Triples: len(triples), KeyWrites: 3 * len(triples)}

	// 1. Message / payload accounting and state equivalence at full scale.
	serialNet, serial, err := build()
	if err != nil {
		return out, err
	}
	if err := loadSerial(serial, triples); err != nil {
		return out, err
	}
	out.SerialMessages = serialNet.Stats().Messages
	out.SerialPayloadBytes = serialNet.Stats().PayloadUnits

	batchedNet, batched, err := build()
	if err != nil {
		return out, err
	}
	rec, err := loadBatched(batched, triples)
	if err != nil {
		return out, err
	}
	out.BatchedMessages = batchedNet.Stats().Messages
	out.BatchedPayloadBytes = batchedNet.Stats().PayloadUnits
	out.Groups = rec.Groups
	if out.BatchedMessages > 0 {
		out.MessageReduction = float64(out.SerialMessages) / float64(out.BatchedMessages)
	}
	out.BatchedMatchesSerial = true
	for i := range serial {
		if !reflect.DeepEqual(serial[i].DB().AllSorted(), batched[i].DB().AllSorted()) {
			out.BatchedMatchesSerial = false
			break
		}
	}

	// 2. Wall-clock under the WAN model, on a sub-load small enough for the
	// per-triple baseline to pay every round-trip.
	if cfg.WallTriples > 0 {
		sub := triples
		if cfg.WallTriples < len(sub) {
			sub = sub[:cfg.WallTriples]
		}
		out.WallTriples = len(sub)
		wanNet, wanPeers, err := build()
		if err != nil {
			return out, err
		}
		cfg.apply(wanNet)
		start := time.Now()
		if err := loadSerial(wanPeers, sub); err != nil {
			return out, err
		}
		out.SerialWallMs = float64(time.Since(start).Microseconds()) / 1000

		if wanNet, wanPeers, err = build(); err != nil {
			return out, err
		}
		cfg.apply(wanNet)
		start = time.Now()
		if _, err := loadBatched(wanPeers, sub); err != nil {
			return out, err
		}
		out.BatchedWallMs = float64(time.Since(start).Microseconds()) / 1000
		if out.BatchedWallMs > 0 {
			out.WallSpeedup = out.SerialWallMs / out.BatchedWallMs
		}
	}
	for _, net := range nets {
		if err := net.SizeErr(); err != nil {
			return out, err
		}
	}
	return out, nil
}

// Check is EXP-N's gate: batched ingest ships at least 3x fewer routed
// messages and fewer payload bytes, and leaves every store as the
// per-triple loop does.
func (r BulkLoadResult) Check() error {
	switch {
	case !r.BatchedMatchesSerial:
		return errors.New("batched ingest diverged from the per-triple loop")
	case !(r.BatchedMessages < r.SerialMessages):
		return fmt.Errorf("batched messages %d not below serial %d", r.BatchedMessages, r.SerialMessages)
	case r.MessageReduction < 3:
		return fmt.Errorf("message reduction %.1fx, want ≥3x", r.MessageReduction)
	case !(0 < r.BatchedPayloadBytes && r.BatchedPayloadBytes < r.SerialPayloadBytes):
		return fmt.Errorf("batched payload %d B not in (0, serial %d B)", r.BatchedPayloadBytes, r.SerialPayloadBytes)
	}
	return nil
}

// Table renders the comparison.
func (r BulkLoadResult) Table() string {
	t := metrics.NewTable("measurement", "per-triple", "batched", "gain")
	t.AddRow("routed messages", fmt.Sprint(r.SerialMessages), fmt.Sprint(r.BatchedMessages),
		fmt.Sprintf("%.1fx", r.MessageReduction))
	t.AddRow("payload bytes", fmt.Sprint(r.SerialPayloadBytes), fmt.Sprint(r.BatchedPayloadBytes), "")
	t.AddRow(fmt.Sprintf("WAN wall %d triples (ms)", r.WallTriples),
		fmt.Sprintf("%.1f", r.SerialWallMs), fmt.Sprintf("%.1f", r.BatchedWallMs),
		fmt.Sprintf("%.1fx", r.WallSpeedup))
	return t.String() +
		fmt.Sprintf("%d triples (%d key-writes) collapsed to %d shipped groups; batched matches serial: %v\n",
			r.Triples, r.KeyWrites, r.Groups, r.BatchedMatchesSerial)
}
