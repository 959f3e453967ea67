// Command benchmark is GridVine's serving-path benchmark: four workloads
// driven over the wire protocol against a real two-daemon cluster hosted in
// this process. See README.md beside this file.
//
//	benchmark --workload W --seed N --seconds S --trace 0   gated end-to-end run
//	benchmark --workload W --seed N --seconds S --trace 1   per-layer (traced) run
//	benchmark [--runs R] [--results F]                      every workload, both ways, into a results file
//	benchmark --check A.json B.json                         compare two results files
//
// The last line of standard output of a --workload run is one JSON object
// {correct, attempted, failed, metrics}.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the contract's result line, plus what the results file keeps
// beside it.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	counts map[string]int
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: lookup, reformulate, join or mixed_rw (empty: all, into a results file)")
		seed         = flag.Int64("seed", 1, "seed of the op list")
		seconds      = flag.Int("seconds", 10, "length of the measured phase")
		trace        = flag.Int("trace", 0, "0: gated end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
		out          = flag.String("out", "", "with --trace 1: write the spans as JSONL to this file")
		check        = flag.Bool("check", false, "compare two results files given as arguments")
		runs         = flag.Int("runs", 3, "all-workloads mode: runs per workload and mode")
		results      = flag.String("results", "benchmark-results.json", "all-workloads mode: results file to write")
	)
	flag.Parse()

	switch {
	case *check:
		if flag.NArg() != 2 {
			fatal(errors.New("--check needs two results files"))
		}
		ok, err := checkFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *workloadName == "":
		if err := runSuite(*seed, *seconds, *runs, *results); err != nil {
			fatal(err)
		}
	default:
		spec, ok := specByName(*workloadName)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		if *seconds < 1 || (*trace != 0 && *trace != 1) {
			fatal(errors.New("--seconds must be at least 1 and --trace 0 or 1"))
		}
		res, err := runWorkload(spec, *seed, *seconds, *trace == 1, *out)
		if err != nil {
			// No result line: a wrong answer or a failed check must never
			// leave a number behind.
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// tempRoot makes this run's scratch directory. It lives inside the
// checkout (run.sh points GRIDVINE_BENCH_TMP there) so cluster dirs and
// journals land on the checkout's file system.
func tempRoot() (string, error) {
	base := os.Getenv("GRIDVINE_BENCH_TMP")
	if base == "" {
		base = ".bench_tmp"
	}
	base, err := filepath.Abs(base)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-*")
}

func runWorkload(spec workloadSpec, seed int64, seconds int, traced bool, spansOut string) (*runResult, error) {
	root, err := tempRoot()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	w, err := buildWorkload(spec, seed)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	fmt.Printf("workload %s seed %d seconds %d trace %v GOMAXPROCS %d clients %d cluster %d daemons x %d peers rf %d tempfs %s\n",
		spec.Name, seed, seconds, traced, runtime.GOMAXPROCS(0), clients,
		clusterDaemons, clusterPeers/clusterDaemons, replicaFactor, fsType(root))
	if traced {
		return runTraced(ctx, root, w, seconds, spansOut)
	}
	return runGated(ctx, root, w, seconds)
}

// runGated is the gated run: setupReps full set-ups (the last one's
// cluster is measured), then the closed loop with tracing off.
func runGated(ctx context.Context, root string, w *workload, seconds int) (res *runResult, err error) {
	ref, err := newReference(ctx, w)
	if err != nil {
		return nil, err
	}
	calib, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer func() { calib.close() }()

	// Each set-up is timed between two readings of the machine's speed and
	// divided by their mean, like the slices of the closed loop.
	var setups, setupsRaw []float64
	var st *setup
	for i := 0; i < setupReps; i++ {
		if st != nil {
			if _, err := st.cluster.stop(); err != nil {
				return nil, fmt.Errorf("set-up %d: shutdown: %w", i, err)
			}
			os.RemoveAll(st.cluster.dir) //nolint:errcheck // scratch; the root is removed at exit anyway
			st = nil
		}
		before, err := calib.measure()
		if err != nil {
			return nil, err
		}
		if st, err = runSetup(ctx, root, w, ref); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		after, err := calib.measure()
		if err != nil {
			st.cluster.stop() //nolint:errcheck // the calibration error is the one to report
			return nil, err
		}
		setups = append(setups, st.seconds/((before+after)/2))
		setupsRaw = append(setupsRaw, st.seconds)
	}
	c := st.cluster
	defer func() {
		if _, serr := c.stop(); serr != nil && err == nil {
			res, err = nil, fmt.Errorf("final shutdown: %w", serr)
		}
	}()
	recall := st.recall
	ref = nil // the oracle's copy of the corpus must not count as heap_mb

	dur := time.Duration(seconds) * time.Second
	warm := time.Duration(float64(dur) * warmupShare)
	loop, err := closedLoop(ctx, &c.endpoint, w, warm, dur, calib)
	if err != nil {
		return nil, err
	}
	calib.close()
	calib = &calibrator{} // the load generator's buffers must not count as heap_mb
	heap := heapMB()
	values, raw, counts, err := closedLoopMetrics(loop)
	if err != nil {
		return nil, err
	}
	values["setup_s"] = median(setups)
	raw["setup_s"] = median(setupsRaw)
	values["heap_mb"] = heap
	values["recall"] = recall
	counts["setups"] = len(setups)
	counts["check_queries"] = len(w.pool)

	res = &runResult{
		Correct:   loop.failed == 0,
		Attempted: loop.attempted,
		Failed:    loop.failed,
		Metrics:   map[string]metricValue{},
		counts:    counts,
	}
	if loop.firstErr != nil {
		fmt.Printf("first failed op: %v\n", loop.firstErr)
	}
	if w.spec.Name == "mixed_rw" {
		if err := c.restartCheck(ctx, loop.acked); err != nil {
			return nil, err
		}
		fmt.Printf("restart check: digests identical, %d sampled acked writes read back\n", len(loop.acked))
	}
	for _, def := range endToEnd {
		v, ok := values[def.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", def.Name)
		}
		res.Metrics[def.Name] = metricValue{v, def.Unit}
	}
	printMetrics(endToEnd, res.Metrics)
	printRaw(raw)
	printCounts(counts)
	return res, nil
}

func printMetrics(defs []metricDef, m map[string]metricValue) {
	for _, def := range defs {
		if v, ok := m[def.Name]; ok {
			fmt.Printf("  %-34s %14.4f %s\n", def.Name, v.Value, v.Unit)
		}
	}
}

// printRaw prints the time-based metrics as the clock read them, before
// the division by the machine's speed factor, and the median factor.
func printRaw(raw map[string]float64) {
	names := make([]string, 0, len(raw))
	for k := range raw {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Print("  raw:")
	for _, k := range names {
		fmt.Printf(" %s=%.4f", k, raw[k])
	}
	fmt.Println()
}

func printCounts(counts map[string]int) {
	names := make([]string, 0, len(counts))
	for k := range counts {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Print("  samples:")
	for _, k := range names {
		fmt.Printf(" %s=%d", k, counts[k])
	}
	fmt.Println()
}
