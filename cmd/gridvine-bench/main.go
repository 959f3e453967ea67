// Command gridvine-bench regenerates every quantitative result of the
// paper's evaluation (see DESIGN.md §3) by looping over the experiment
// registry, experiments.All: the §2.3 deployment latency distribution, the
// O(log |Π|) routing cost, the connectivity-indicator emergence curve, the
// §4 recall-growth demonstration, the Bayesian deprecation quality, the
// matcher ablation, and the engine comparisons (conjunctive planner,
// semi-join shipping, streaming, bulk ingest, churn repair, durability,
// composite mappings).
//
// Usage:
//
//	gridvine-bench -exp all          # everything, paper-scale
//	gridvine-bench -exp A            # one experiment
//	gridvine-bench -exp A,B -quick   # scaled-down parameters
//	gridvine-bench -exp K -json BENCH_conjunctive.json
//	gridvine-bench -exp L -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Every result that carries a gate (its Check method) is checked; a result
// that fails is reported, left out of -json, and makes the exit status 1 —
// after the remaining experiments have run, the profiles are complete and
// the passing entries are written. With -json <path>, machine-readable
// per-experiment results (wall time plus every figure the experiment
// reports) are written to the file — the format of the repo's BENCH_*.json
// perf-trajectory snapshots. -cpuprofile/-memprofile capture pprof profiles
// of the selected experiments, so hot-path work is profileable without
// editing code.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"gridvine/internal/experiments"
)

func main() { os.Exit(run()) }

func run() int {
	exp := flag.String("exp", "all", "experiments to run: comma-separated IDs ("+strings.Join(experimentIDs(), ",")+") or all")
	quick := flag.Bool("quick", false, "run with scaled-down parameters")
	seed := flag.Int64("seed", 1, "random seed")
	parallel := flag.Int("parallel", 1, "reformulation fan-out width for query-heavy experiments (D); 1 keeps message counts exactly reproducible")
	jsonPath := flag.String("json", "", "write machine-readable per-experiment results to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the selected experiments to this file")
	flag.Parse()

	selected, err := selectExperiments(*exp, *parallel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "creating %s: %v\n", *cpuProfile, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "starting cpu profile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	entries, runErr := runExperiments(os.Stdout, selected, *quick, *seed)
	status := 0
	if runErr != nil {
		fmt.Fprintln(os.Stderr, runErr)
		status = 1
	}

	if *memProfile != "" {
		if err := writeHeapProfile(*memProfile); err != nil {
			fmt.Fprintln(os.Stderr, err)
			status = 1
		}
	}
	if *jsonPath != "" {
		// Each entry records the command that produced it, so a committed
		// snapshot says how to regenerate itself.
		command := strings.Join(append([]string{"gridvine-bench"}, os.Args[1:]...), " ")
		for i := range entries {
			entries[i].Command = command
		}
		blob, err := json.MarshalIndent(entries, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonPath, err)
			return 1
		}
		fmt.Printf("wrote %d experiment result(s) to %s\n", len(entries), *jsonPath)
	}
	return status
}

// selectExperiments resolves -exp against the registry; -parallel swaps in
// EXP-D's declaration at that fan-out width.
func selectExperiments(exp string, parallel int) ([]experiments.Experiment, error) {
	var selected []experiments.Experiment
	if strings.EqualFold(exp, "all") {
		selected = append(selected, experiments.All...)
	} else {
		for _, id := range strings.Split(strings.ToUpper(exp), ",") {
			e, ok := experiments.Lookup(strings.TrimSpace(id))
			if !ok {
				return nil, fmt.Errorf("unknown experiment %q (have %s)", id, strings.Join(experimentIDs(), ","))
			}
			selected = append(selected, e)
		}
	}
	for i, e := range selected {
		if e.ID == "D" {
			selected[i] = experiments.RecallExperiment(parallel)
		}
	}
	return selected, nil
}

// experimentIDs lists the registry's IDs in run order.
func experimentIDs() []string {
	ids := make([]string, len(experiments.All))
	for i, e := range experiments.All {
		ids[i] = e.ID
	}
	return ids
}

// jsonEntry is one experiment's machine-readable record.
type jsonEntry struct {
	Experiment string             `json:"experiment"`
	Command    string             `json:"command"`
	Quick      bool               `json:"quick"`
	Seed       int64              `json:"seed"`
	WallMs     float64            `json:"wall_ms"`
	Result     experiments.Result `json:"result"`
}

// runExperiments runs every experiment in order, printing its table to w
// and checking its gate. It returns one entry per experiment that ran and
// passed, and an error naming each one that did not: a failure neither
// stops the later experiments nor discards the earlier results.
func runExperiments(w io.Writer, exps []experiments.Experiment, quick bool, seed int64) ([]jsonEntry, error) {
	var entries []jsonEntry
	var failed []error
	for _, e := range exps {
		fmt.Fprintf(w, "=== EXP-%s: %s ===\n", e.ID, e.Title)
		start := time.Now()
		result, err := e.Run(quick, seed)
		elapsed := time.Since(start)
		if err != nil {
			failed = append(failed, fmt.Errorf("experiment %s failed: %w", e.ID, err))
			continue
		}
		fmt.Fprint(w, result.Table())
		fmt.Fprintf(w, "[%s completed in %v]\n\n", e.ID, elapsed.Round(time.Millisecond))
		if err := experiments.Check(result); err != nil {
			failed = append(failed, fmt.Errorf("experiment %s failed its gate: %w", e.ID, err))
			continue
		}
		entries = append(entries, jsonEntry{
			Experiment: e.ID,
			Quick:      quick,
			Seed:       seed,
			WallMs:     float64(elapsed.Microseconds()) / 1000,
			Result:     result,
		})
	}
	return entries, errors.Join(failed...)
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating %s: %w", path, err)
	}
	runtime.GC() // settle the heap so the profile reflects retained memory
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("writing heap profile: %w", err)
	}
	return f.Close()
}
