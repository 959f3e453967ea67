package experiments

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gridvine/internal/bioworkload"
	"gridvine/internal/keyspace"
)

// Scaled-down configurations keep the test suite fast; the full paper-scale
// parameters run under cmd/gridvine-bench and the root benchmarks.

func TestRunDeploymentSmall(t *testing.T) {
	r, err := RunDeployment(DeploymentConfig{
		Peers:    60,
		Queries:  400,
		Schemas:  12,
		Entities: 60,
		Seed:     1,
	})
	if err != nil {
		t.Fatalf("RunDeployment: %v", err)
	}
	if r.Queries < 350 {
		t.Errorf("completed queries = %d", r.Queries)
	}
	if r.Within1s <= 0 || r.Within1s > 1 {
		t.Errorf("Within1s = %v", r.Within1s)
	}
	if r.Within5s < r.Within1s {
		t.Error("CDF not monotone")
	}
	if r.MeanHops <= 0 {
		t.Errorf("MeanHops = %v", r.MeanHops)
	}
	tbl := r.Table()
	for _, want := range []string{"answered < 1 s", "answered < 5 s", "40%", "75%"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
}

// TestDeploymentReplaysAtPaperScale: a seeded EXP-A run at paper scale
// prints the same table every time — the harness loads and queries
// serially, so no table depends on how goroutines were scheduled.
func TestDeploymentReplaysAtPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("two paper-scale EXP-A runs")
	}
	var tables [2]string
	for i := range tables {
		r, err := expA.Run(false, 1)
		if err != nil {
			t.Fatal(err)
		}
		tables[i] = r.Table()
	}
	if tables[0] != tables[1] {
		t.Fatalf("EXP-A seed 1 printed two tables:\n%s\n%s", tables[0], tables[1])
	}
}

func TestRunDeploymentLatencyShape(t *testing.T) {
	// With the default WAN model at reduced scale, the distribution must
	// have the paper's qualitative shape: a meaningful fraction inside 1 s,
	// a clear majority inside 5 s, and a tail beyond.
	r, err := RunDeployment(DeploymentConfig{
		Peers:    120,
		Queries:  1500,
		Schemas:  20,
		Entities: 100,
		Seed:     2,
	})
	if err != nil {
		t.Fatalf("RunDeployment: %v", err)
	}
	if r.Within1s < 0.2 || r.Within1s > 0.7 {
		t.Errorf("Within1s = %.2f, want a substantial minority", r.Within1s)
	}
	if r.Within5s < 0.55 || r.Within5s > 0.95 {
		t.Errorf("Within5s = %.2f, want a clear majority with a tail", r.Within5s)
	}
	if r.Within5s <= r.Within1s {
		t.Error("CDF not increasing")
	}
}

func TestRunRoutingLogarithmic(t *testing.T) {
	r, err := RunRouting(RoutingConfig{
		Sizes:          []int{32, 128, 512},
		QueriesPerSize: 120,
		Skewed:         true,
		Seed:           3,
	})
	if err != nil {
		t.Fatalf("RunRouting: %v", err)
	}
	if len(r.Points) != 6 { // 3 sizes × {balanced, skewed}
		t.Fatalf("points = %d", len(r.Points))
	}
	// Logarithmic cold routes, one-exchange shortcuts.
	if err := r.Check(); err != nil {
		t.Error(err)
	}
	for _, p := range r.Points {
		if p.ColdMeanHops > float64(p.TrieDepth)+1 {
			t.Errorf("size %d (%v): cold mean hops %.2f exceeds depth %d", p.Peers, p.Balanced, p.ColdMeanHops, p.TrieDepth)
		}
		if p.ShortcutShare == 0 || p.ShortcutShare == 1 {
			t.Errorf("size %d (%v): shortcut share %.2f — the sweep measures only one kind of route", p.Peers, p.Balanced, p.ShortcutShare)
		}
	}
	if !strings.Contains(r.Table(), "hops/log2(N)") {
		t.Error("table header missing")
	}
}

func TestRunConnectivityEmergence(t *testing.T) {
	r := RunConnectivity(ConnectivityConfig{
		Schemas:       50,
		MappingCounts: []int{5, 20, 40, 60, 80, 100, 120, 150},
		Trials:        15,
		Seed:          4,
	})
	if len(r.Points) != 8 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// ci must be negative when sparse (with 5 unidirectional mappings over
	// 50 schemas almost every endpoint has a single in- or out-edge) and
	// positive when dense.
	if r.Points[0].MeanCI >= 0 {
		t.Errorf("ci with 5 mappings = %v", r.Points[0].MeanCI)
	}
	last := r.Points[len(r.Points)-1]
	if last.MeanCI <= 0 {
		t.Errorf("ci with 150 mappings = %v", last.MeanCI)
	}
	// The indicator's sign change must track the giant component: where
	// ci ≥ 0, the largest weak component should dominate the graph.
	for _, p := range r.Points {
		if p.MeanCI >= 0.2 && p.MeanWCCFrac < 0.5 {
			t.Errorf("mappings=%d: ci=%.2f but WCC=%.2f", p.Mappings, p.MeanCI, p.MeanWCCFrac)
		}
		if p.MeanCI <= -0.5 && p.MeanWCCFrac > 0.5 {
			t.Errorf("mappings=%d: ci=%.2f but WCC=%.2f", p.Mappings, p.MeanCI, p.MeanWCCFrac)
		}
	}
	if r.CrossoverMappings() < 0 {
		t.Error("no ci crossover found")
	}
	// EXP-C's gate bites on a giant component where every ci < 0, on none
	// where every ci ≥ 0, and on a sweep that has only one kind of row.
	for _, bad := range [][]ConnectivityPoint{
		{{Mappings: 10, FracCIPos: 0, MeanWCCFrac: 0.6}, {Mappings: 100, FracCIPos: 1, MeanWCCFrac: 0.9}},
		{{Mappings: 10, FracCIPos: 0, MeanWCCFrac: 0.1}, {Mappings: 100, FracCIPos: 1, MeanWCCFrac: 0.4}},
		{{Mappings: 0, FracCIPos: 1, MeanWCCFrac: 0.02}, {Mappings: 10, FracCIPos: 0, MeanWCCFrac: 0.1}},
	} {
		if err := (ConnectivityResult{Points: bad}).Check(); err == nil {
			t.Errorf("Check passed %+v", bad)
		}
	}
}

func TestRunRecallGrowth(t *testing.T) {
	r, err := RunRecall(RecallConfig{
		Peers:        24,
		Schemas:      8,
		Entities:     50,
		SeedMappings: 1,
		Rounds:       4,
		Queries:      25,
		Seed:         5,
	})
	if err != nil {
		t.Fatalf("RunRecall: %v", err)
	}
	if len(r.Points) != 5 { // round 0 + 4 rounds
		t.Fatalf("points = %d", len(r.Points))
	}
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if last.ActiveMappings <= first.ActiveMappings {
		t.Errorf("mappings did not grow: %d → %d", first.ActiveMappings, last.ActiveMappings)
	}
	if last.MeanRecall <= first.MeanRecall {
		t.Errorf("recall did not grow: %.2f → %.2f", first.MeanRecall, last.MeanRecall)
	}
	if last.CI <= first.CI {
		t.Errorf("ci did not grow: %.2f → %.2f", first.CI, last.CI)
	}
	if table := r.Table(); !strings.Contains(table, "recall") || !strings.Contains(table, "msg/q") {
		t.Error("table header missing")
	}
}

func TestRunDeprecationDetection(t *testing.T) {
	r := RunDeprecation(DeprecationConfig{
		Schemas:      12,
		GoodMappings: 18,
		BadCounts:    []int{1, 3},
		Trials:       4,
		Seed:         6,
	})
	if len(r.Points) != 2 {
		t.Fatalf("points = %d", len(r.Points))
	}
	for _, p := range r.Points {
		if p.Recall < 0.5 {
			t.Errorf("planted=%d: detection recall = %.2f", p.Planted, p.Recall)
		}
		if p.Precision < 0.6 {
			t.Errorf("planted=%d: detection precision = %.2f", p.Planted, p.Precision)
		}
		if p.MeanCycles == 0 {
			t.Errorf("planted=%d: no cycles evaluated", p.Planted)
		}
	}
}

func TestRunChurnStress(t *testing.T) {
	r, err := RunChurnStress(ChurnStressConfig{
		Peers:           32,
		ReplicaFactor:   3,
		Rounds:          8,
		CrashPerRound:   2,
		WritesPerRound:  10,
		DeletesPerRound: 2,
		QueriesPerRound: 6,
		Seed:            5,
	})
	if err != nil {
		t.Fatalf("RunChurnStress: %v", err)
	}
	if err := r.Check(); err != nil {
		t.Error(err)
	}
	if r.Crashes == 0 || r.Restarts != r.Crashes {
		t.Errorf("schedule did not run: crashes=%d restarts=%d", r.Crashes, r.Restarts)
	}
}

func TestDeploymentDefaultsRecorded(t *testing.T) {
	cfg := DeploymentConfig{}.withDefaults()
	if cfg.TransitMedian != 100*time.Millisecond || cfg.TransitSigma != 0.9 ||
		cfg.SlowMedian != 3*time.Second || cfg.SlowProb != 0.15 ||
		cfg.ServiceMean != 15*time.Millisecond {
		t.Errorf("WAN defaults drifted from EXPERIMENTS.md: %+v", cfg)
	}
	if cfg.Peers != 340 || cfg.Queries != 23000 {
		t.Errorf("paper-scale defaults drifted: %+v", cfg)
	}
}

func TestRunAlignmentAblation(t *testing.T) {
	r := RunAlignment(AlignmentConfig{Schemas: 10, Entities: 80, Pairs: 20, Seed: 10})
	if len(r.Points) != 5 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// With zero shared instances only the lexical signal exists; with many,
	// the set measure and the combination must clearly beat lexical-only
	// recall (value evidence resolves the synonym renamings).
	last := r.Points[len(r.Points)-1]
	if last.SetRecall <= r.Points[0].SetRecall {
		t.Errorf("set recall did not improve with shared instances: %+v", r.Points)
	}
	if last.CombinedRecall < last.LexRecall {
		t.Errorf("combined recall %.2f below lexical %.2f at full evidence", last.CombinedRecall, last.LexRecall)
	}
	if last.CombinedRecall < 0.6 {
		t.Errorf("combined recall = %.2f, want strong with 25 shared instances", last.CombinedRecall)
	}
	if !strings.Contains(r.Table(), "comb R") {
		t.Error("table header missing")
	}
}

func TestRunSemiJoinBeatsNaive(t *testing.T) {
	// Small workload, delays disabled: pins result equivalence with the
	// naive reference, that semi-join fires on an over-cap fan-out, and a
	// ≥5x shipping reduction.
	r, err := RunSemiJoin(SemiJoinConfig{
		Peers:       24,
		HotEntities: 2000,
		BoundFanout: 100,
		Queries:     1,
		WANModel:    WANModel{TransitDelay: -1, PerByteDelay: -1},
		Seed:        13,
	})
	if err != nil {
		t.Fatalf("RunSemiJoin: %v", err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	if r.Rows != 100 {
		t.Errorf("rows = %d, want 100", r.Rows)
	}
	if r.StatsDigests == 0 {
		t.Error("no statistics digests steered the planner")
	}
	if r.ShippingReduction < 5 {
		t.Errorf("shipping reduction = %.1fx, want ≥5x (naive %.0f vs semi-join %.0f)",
			r.ShippingReduction, r.NaiveTriplesShipped, r.SemiJoinTriplesShipped)
	}
	if !strings.Contains(r.Table(), "semi-join") {
		t.Error("table missing semi-join row")
	}
}

func TestRunConjunctivePlannerBeatsNaive(t *testing.T) {
	// Small workload, delays disabled (negative; frame bytes are still
	// counted): the gate pins result equivalence and the frame-byte and
	// triples-shipped reductions, not wall-clock.
	r, err := RunConjunctive(ConjunctiveConfig{
		Peers:       24,
		HotEntities: 1500,
		RareMatches: 4,
		Queries:     1,
		WANModel:    WANModel{TransitDelay: -1, PerByteDelay: -1},
		Seed:        11,
	})
	if err != nil {
		t.Fatalf("RunConjunctive: %v", err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	if r.Rows != 4 {
		t.Errorf("rows = %d, want 4", r.Rows)
	}
	if !strings.Contains(r.Table(), "planned") {
		t.Error("table missing planned row")
	}
}

func TestRunStreamingFirstRowBeatsFullWall(t *testing.T) {
	// Small workload with short delays; the gate pins first row before full
	// traversal, the top-k lookup cut, and streamed == blocking.
	r, err := RunStreaming(StreamingConfig{
		Peers:             24,
		ChainSchemas:      5,
		EntitiesPerSchema: 12,
		HotEntities:       60,
		TopK:              5,
		Queries:           1,
		WANModel:          WANModel{TransitDelay: 500 * time.Microsecond, PerByteDelay: 500 * time.Nanosecond},
		Seed:              14,
	})
	if err != nil {
		t.Fatalf("RunStreaming: %v", err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	if r.Rows != 5*12 {
		t.Errorf("pattern rows = %d, want %d", r.Rows, 5*12)
	}
	if r.FirstRowMs <= 0 {
		t.Errorf("first row %.2fms not recorded", r.FirstRowMs)
	}
	if r.TopKRows != 5 {
		t.Errorf("top-k rows = %d, want 5", r.TopKRows)
	}
	if !strings.Contains(r.Table(), "first row") {
		t.Error("table missing first-row measurement")
	}
}

func TestRunBulkLoadBeatsPerTriple(t *testing.T) {
	// Small workload: beyond the gate, pins honest payload accounting
	// (batched ships every datum at least once but never re-sends values
	// across routing hops). The WAN wall-clock sub-measurement is skipped to
	// keep the suite fast; the paper-scale figures live in
	// BENCH_bulkload.json.
	r, err := RunBulkLoad(BulkLoadConfig{
		Peers:       48,
		Schemas:     12,
		Entities:    60,
		WallTriples: -1,
		Seed:        15,
	})
	if err != nil {
		t.Fatalf("RunBulkLoad: %v", err)
	}
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	// Every key-write ships its triple at least once: the batched bytes
	// cover each triple's own encoding three times over.
	w := bioworkload.Generate(bioworkload.Config{Schemas: 12, Entities: 60, MinCoverage: 4, MaxCoverage: 6, Seed: 15 + 1})
	if len(w.Triples()) != r.Triples {
		t.Fatalf("regenerated %d triples, the run loaded %d", len(w.Triples()), r.Triples)
	}
	empty, err := frameBytes(nil)
	if err != nil {
		t.Fatal(err)
	}
	floor := 0
	for _, tr := range w.Triples() {
		n, err := frameBytes(tr)
		if err != nil {
			t.Fatal(err)
		}
		floor += 3 * (n - empty)
	}
	if r.BatchedPayloadBytes < floor {
		t.Errorf("batched payload %d B below the encoded triples once per key-write (%d B) — data went uncharged", r.BatchedPayloadBytes, floor)
	}
	if r.Groups == 0 || r.Groups >= r.KeyWrites {
		t.Errorf("groups = %d over %d key-writes — no grouping happened", r.Groups, r.KeyWrites)
	}
	if !strings.Contains(r.Table(), "routed messages") {
		t.Error("table missing message row")
	}
}

// TestUntaggedPayloadFailsTheRun: a payload the overlay codec has no tag for
// could not cross a socket, so a network sized by frameBytes reports it, by
// type, through the SizeErr every runner that sizes returns — it is not
// charged a nominal unit.
func TestUntaggedPayloadFailsTheRun(t *testing.T) {
	net, peers, err := newSimPeers(8, nil, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	net.SetPayloadDelay(0, frameBytes)
	type untagged struct{ N int }
	if _, err := peers[0].Node().Update(context.Background(), keyspace.HashDefault("k"), untagged{1}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if err := net.SizeErr(); err == nil || !strings.Contains(err.Error(), "experiments.untagged") {
		t.Errorf("SizeErr = %v, want an error naming experiments.untagged", err)
	}
}

func TestRunDurabilityQuick(t *testing.T) {
	r, err := RunDurability(DurabilityConfig{
		Peers:         12,
		Triples:       160,
		BatchSize:     20,
		GapWrites:     40,
		SnapshotEvery: 16,
		Seed:          3,
	})
	if err != nil {
		t.Fatalf("RunDurability: %v", err)
	}
	if err := r.Check(); err != nil {
		t.Error(err)
	}
	if r.SnapshotItems+r.ReplayedRecords == 0 {
		t.Error("recovery replayed nothing")
	}
	if !strings.Contains(r.Table(), "repair reduction") {
		t.Error("table missing repair reduction row")
	}
}

// gated lists the experiments whose result type must carry a Check.
var gated = map[string]bool{"B": true, "C": true, "K": true, "L": true, "M": true, "N": true, "O": true, "P": true, "R": true}

func TestRegistry(t *testing.T) {
	const order = "ABCDEJKLMNOPR"
	if len(All) != len(order) {
		t.Fatalf("registry holds %d experiments, want %d", len(All), len(order))
	}
	for i, e := range All {
		if e.ID != order[i:i+1] {
			t.Errorf("entry %d has ID %q, want %q (unique, in A…R order)", i, e.ID, order[i:i+1])
		}
		if e.Title == "" {
			t.Errorf("EXP-%s has no title", e.ID)
		}
		zero, err := e.Decode([]byte("{}"))
		if err != nil {
			t.Fatalf("EXP-%s: decoding an empty result: %v", e.ID, err)
		}
		if _, ok := zero.(interface{ Check() error }); ok != gated[e.ID] {
			t.Errorf("EXP-%s: result type %T has Check = %v, want %v", e.ID, zero, ok, gated[e.ID])
		}
	}
	for _, id := range []string{"G", "H", "I", "Q"} {
		if _, ok := Lookup(id); ok {
			t.Errorf("Lookup found the deleted EXP-%s", id)
		}
	}
}

// TestExperimentsReplay: C, D, E and J render the same table twice in one
// process for one seed at quick scale, so nothing they print depends on
// state an earlier run left behind or on the clock.
func TestExperimentsReplay(t *testing.T) {
	for _, id := range []string{"C", "D", "E", "J"} {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("no EXP-%s", id)
		}
		var tables [2]string
		for i := range tables {
			r, err := e.Run(true, 1)
			if err != nil {
				t.Fatalf("EXP-%s run %d: %v", id, i+1, err)
			}
			tables[i] = r.Table()
		}
		if tables[0] != tables[1] {
			t.Errorf("EXP-%s replays differently:\n%s\nthen\n%s", id, tables[0], tables[1])
		}
	}
}

// TestCommittedSnapshotsPassTheirGates decodes every entry of the committed
// BENCH_*.json trajectory files into its registered result type and runs
// the gate it was produced under.
func TestCommittedSnapshotsPassTheirGates(t *testing.T) {
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	checked := map[string]bool{}
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var entries []struct {
			Experiment string          `json:"experiment"`
			Result     json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(blob, &entries); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if len(entries) == 0 {
			t.Errorf("%s holds no entries", f)
		}
		for _, en := range entries {
			e, ok := Lookup(en.Experiment)
			if !ok {
				t.Errorf("%s: entry for unregistered experiment %q", f, en.Experiment)
				continue
			}
			r, err := e.Decode(en.Result)
			if err != nil {
				t.Errorf("%s: decoding EXP-%s: %v", f, e.ID, err)
				continue
			}
			if err := Check(r); err != nil {
				t.Errorf("%s: EXP-%s fails its gate: %v", f, e.ID, err)
			}
			checked[e.ID] = true
		}
	}
	for id := range gated {
		if !checked[id] {
			t.Errorf("no committed snapshot covers gated EXP-%s", id)
		}
	}
}
