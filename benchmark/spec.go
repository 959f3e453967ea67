package main

import "time"

// The fixed shape of the benchmark: cluster, corpus, workloads and the
// metric names every later change is judged by. BENCHMARK.json at the repo
// root repeats the names, units and bounds; TestSpecMatchesBenchmarkJSON
// keeps the two from drifting.

const (
	// clients is the load generator's connection count: one per daemon, one
	// goroutine each in the closed loop. The box this was sized on has two
	// cores; the number is fixed so results compare across machines.
	clients = 2
	// Cluster shape, as gridvined deploys it.
	clusterDaemons = 2
	clusterPeers   = 16
	replicaFactor  = 2
	// corpusSeed fixes the dataset, the query pools and the overlay. The
	// --seed flag draws the op list (which pool entry, which issuing peer,
	// what gets written) but never the corpus: recall and rows per answer
	// depend on the corpus, and a gated metric must not move with the seed.
	corpusSeed      = 1
	corpusSchemas   = 12
	corpusEntities  = 600
	preloadBatch    = 256
	lookupPoolSize  = 256
	reformPoolSize  = 200
	chordMappings   = 4
	writeTriples    = 4
	opsPerClient    = 1 << 15
	setupReps       = 3
	warmupShare     = 0.05
	calibSlice      = time.Second // closed-loop time between two readings of the machine's speed
	openLoopMaxOpen = 256
	safetyDeadline  = 60 // seconds past the phase length before unfinished ops count as failed
)

type workloadSpec struct {
	Name     string
	Why      string
	OpenRate float64 // open-loop arrivals per second (trace run)
}

var workloadSpecs = []workloadSpec{
	{"lookup", "one routed overlay op per query, so wire framing, tcpnet dial+gob and one triple select dominate; mediation, store and compose idle", 1000},
	{"reformulate", "BFS over the mapping graph, up to 16 overlay messages per query, so mediation and tcpnet sends dominate and recall below 1 is legitimate", 300},
	{"join", "two-pattern RDQL join with hundreds of rows, so the rdql parser, the planner, large selects and RowChunk streaming dominate", 300},
	{"mixed_rw", "half 4-triple writes, half lookups, so WAL group commit, snapshots and replication run beside readers; ends with a restart check", 200},
}

func specByName(name string) (workloadSpec, bool) {
	for _, s := range workloadSpecs {
		if s.Name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median
}

// endToEnd lists the gated metrics. All come from the closed-loop phase
// with tracing off, except setup_s (median of setupReps set-ups) and
// recall (check phase).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p90_ms", "ms", "lower", 0.25},
	{"first_row_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.15},
	{"heap_mb", "MB", "lower", 0.10},
	{"recall", "ratio", "higher", 0.01},
}

// perLayer lists the metrics of the traced run, one row per package.
var perLayer = []metricDef{
	{"wire.roundtrip_us", "us", "lower", 0},
	{"wire.encode_us", "us", "lower", 0},
	{"wire.decode_us", "us", "lower", 0},
	{"wire.frames_per_op", "count", "lower", 0},
	{"wire.frame_bytes_per_op", "B", "lower", 0},
	{"wire.self_us_per_op", "us", "lower", 0},
	{"wire.write_p50_ms", "ms", "lower", 0},
	{"wire.write_tail_ms", "ms", "lower", 0},
	{"wire.openloop_p50_ms", "ms", "lower", 0},
	{"wire.openloop_p99_ms", "ms", "lower", 0},
	{"wire.openloop_late_ms", "ms", "lower", 0},
	{"wire.openloop_backlog", "count", "lower", 0},
	{"wire.openloop_error_rate", "ratio", "lower", 0},
	{"tcpnet.send_us", "us", "lower", 0},
	{"tcpnet.send_allocs", "count", "lower", 0},
	{"tcpnet.send_bytes", "B", "lower", 0},
	{"tcpnet.sends_per_op", "count", "lower", 0},
	{"tcpnet.self_us_per_op", "us", "lower", 0},
	{"pgrid.retrieve_us", "us", "lower", 0},
	{"pgrid.update_us", "us", "lower", 0},
	{"pgrid.hops_per_lookup", "count", "lower", 0},
	{"pgrid.handles_per_op", "count", "lower", 0},
	{"pgrid.handle_self_us_per_op", "us", "lower", 0},
	{"pgrid.background_us_per_op", "us", "lower", 0},
	{"mediation.query_us", "us", "lower", 0},
	{"mediation.write_us", "us", "lower", 0},
	{"mediation.msgs_per_op", "count", "lower", 0},
	{"mediation.reformulations_per_op", "count", "lower", 0},
	{"mediation.triples_shipped_per_op", "count", "lower", 0},
	{"mediation.rows_per_op", "count", "higher", 0},
	{"mediation.self_us_per_op", "us", "lower", 0},
	{"rdql.parse_us", "us", "lower", 0},
	{"keyspace.hash_ns", "ns", "lower", 0},
	{"triple.select_us", "us", "lower", 0},
	{"triple.select_allocs", "count", "lower", 0},
	{"triple.rows_per_select", "count", "higher", 0},
	{"triple.insert_us", "us", "lower", 0},
	{"store.append_us", "us", "lower", 0},
	{"store.append_us_concurrent", "us", "lower", 0},
	{"store.syncs_per_append", "ratio", "lower", 0},
	{"store.snapshot_ms", "ms", "lower", 0},
	{"store.bytes_per_user_byte", "ratio", "lower", 0},
	{"store.sync_us", "us", "lower", 0},
	{"store.syncs_per_op", "count", "lower", 0},
	{"store.write_bytes_per_op", "B", "lower", 0},
	{"store.self_us_per_op", "us", "lower", 0},
	{"compose.build_us", "us", "lower", 0},
	{"compose.lookup_us", "us", "lower", 0},
	{"compose.hit_ratio", "ratio", "higher", 0},
	{"compose.entries", "count", "higher", 0},
	{"selforg.round_ms", "ms", "lower", 0},
	{"align.align_us", "us", "lower", 0},
	{"bayes.assess_ms", "ms", "lower", 0},
	{"graph.indicator_us", "us", "lower", 0},
	{"daemon.start_ms", "ms", "lower", 0},
	{"daemon.shutdown_ms", "ms", "lower", 0},
	{"benchmark.trace_overhead_ratio", "ratio", "lower", 0},
	{"benchmark.trace_op_us", "us", "lower", 0},
}
