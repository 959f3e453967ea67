package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readResults(path string) (*resultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func checkFiles(out io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "A: %s (commit %s, seed %d, %d s, %s)\nB: %s (commit %s, seed %d, %d s, %s)\n",
		pathA, a.Environment.Commit, a.Seed, a.Seconds, a.Environment.TempFS,
		pathB, b.Environment.Commit, b.Seed, b.Seconds, b.Environment.TempFS)
	return compareResults(out, a, b), nil
}

// valuesOf collects one metric's values over the runs of one workload and
// mode.
func valuesOf(f *resultsFile, workload string, trace bool, metric string) []float64 {
	var out []float64
	for _, r := range f.Results {
		if r.Workload == workload && r.Trace == trace {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// relSpread is the interquartile range as a share of the median, the
// run-to-run spread the bounds are judged against.
func relSpread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// compareResults prints, per workload and gated metric, both medians, how
// much worse B is than A, and the wider of the two run-to-run spreads
// against the metric's bound. A metric whose spread exceeds its bound is
// unresolved, not unchanged. It returns false if any gated metric is
// unresolved or regressed, if recall differs at all, or if any run failed
// an op.
func compareResults(out io.Writer, a, b *resultsFile) bool {
	ok := true
	for _, f := range []*resultsFile{a, b} {
		for _, r := range f.Results {
			if r.Failed > 0 || !r.Correct {
				fmt.Fprintf(out, "FAILED OPS: %s (trace %v): %d of %d failed\n", r.Workload, r.Trace, r.Failed, r.Attempted)
				ok = false
			}
		}
	}
	for _, spec := range workloadSpecs {
		fmt.Fprintf(out, "%s\n  %-20s %12s %12s %9s %9s %7s  %s\n", spec.Name, "metric", "A median", "B median", "worse by", "spread", "bound", "verdict")
		for _, def := range endToEnd {
			va, vb := valuesOf(a, spec.Name, false, def.Name), valuesOf(b, spec.Name, false, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(out, "  %-20s missing from one file\n", def.Name)
				ok = false
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if def.Better == "higher" {
				worse = -worse
			}
			spread := math.Max(relSpread(va), relSpread(vb))
			verdict := "ok"
			switch {
			case def.Name == "recall" && ma != mb:
				verdict = "DIFFERS"
			case spread > def.Bound:
				verdict = "UNRESOLVED"
			case worse > def.Bound:
				verdict = "REGRESSED"
			}
			if verdict != "ok" {
				ok = false
			}
			fmt.Fprintf(out, "  %-20s %12.4f %12.4f %+8.1f%% %8.1f%% %6.0f%%  %s (n=%d,%d)\n",
				def.Name, ma, mb, 100*worse, 100*spread, 100*def.Bound, verdict, len(va), len(vb))
		}
		fmt.Fprintf(out, "  per layer (not gated)\n")
		for _, def := range perLayer {
			va, vb := valuesOf(a, spec.Name, true, def.Name), valuesOf(b, spec.Name, true, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			change := 0.0
			if ma != 0 {
				change = 100 * (mb - ma) / ma
			}
			fmt.Fprintf(out, "  %-34s %12.3f %12.3f %+8.1f%% %s\n", def.Name, ma, mb, change, def.Unit)
		}
	}
	if ok {
		fmt.Fprintln(out, "check passed: every gated metric within its bound, spreads resolved")
	} else {
		fmt.Fprintln(out, "check FAILED")
	}
	return ok
}
