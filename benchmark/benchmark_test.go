package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if v, ok := percentile(seq(100), 90); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 with ten samples beyond", v, ok)
	}
	if _, ok := percentile(seq(99), 90); ok {
		t.Error("p90 of 99 samples has nine beyond it and must not be reported")
	}
	if _, ok := percentile(seq(100), 99); ok {
		t.Error("p99 of 100 samples has one beyond it and must not be reported")
	}
	if v, ok := percentile(seq(1100), 99); v != 1089 || !ok {
		t.Errorf("p99 of 1..1100 = %v, %v; want 1089", v, ok)
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("no samples, no percentile")
	}
	if _, p := tailPercentile(seq(250)); p != 95 {
		t.Errorf("tail of 250 samples is p%v; p99 has two beyond, p95 twelve", p)
	}
	if _, p := tailPercentile(seq(15)); p != 0 {
		t.Errorf("15 samples carry no percentile, got p%v", p)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(seq(10))
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: it extrapolates.
	q1, q3 = quartiles([]float64{2, 1})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of [1,2] = %v, %v; Python gives 0.75, 2.25", q1, q3)
	}
}

// A fake clock and an inline launcher make the schedule deterministic: op 0
// stalls the generator for 50 ms, so the ops queued behind it leave late.
func TestOpenLoopCountsFromIntendedSendTime(t *testing.T) {
	var clock time.Duration
	g := &openLoop{
		rate: 1000, n: 10, maxOpen: 256,
		now:    func() time.Duration { return clock },
		sleep:  func(d time.Duration) { clock += d },
		launch: func(f func()) { f() },
		do: func(i int) error {
			if i == 0 {
				clock += 50 * time.Millisecond
			} else {
				clock += 100 * time.Microsecond
			}
			return nil
		},
	}
	res := g.run()
	if res.attempted != 10 || res.failed != 0 || len(res.latencies) != 10 {
		t.Fatalf("attempted %d failed %d finished %d", res.attempted, res.failed, len(res.latencies))
	}
	// Each queued op took 0.1 ms of service, but it was due while op 0
	// stalled: the wait is charged to it.
	if res.latencies[0] < 40 {
		t.Errorf("fastest op %.2f ms: the stall was not charged to the ops behind it", res.latencies[0])
	}
	// Op 1 was due at 1 ms and left at 50 ms.
	if got := res.late[1]; math.Abs(got-49) > 0.001 {
		t.Errorf("generator lateness of op 1 = %.3f ms, want 49", got)
	}
	if res.late[0] != 0 {
		t.Errorf("op 0 left on time, lateness %.3f", res.late[0])
	}
}

func TestOpenLoopRefusesBeyondCap(t *testing.T) {
	var clock time.Duration
	g := &openLoop{
		rate: 1000, n: 5, maxOpen: 0,
		now:    func() time.Duration { return clock },
		sleep:  func(d time.Duration) { clock += d },
		launch: func(f func()) { f() },
		do:     func(int) error { t.Error("a refused arrival must not be sent"); return nil },
	}
	if res := g.run(); res.refused != 5 || res.failed != 0 || len(res.latencies) != 0 {
		t.Errorf("refused %d failed %d finished %d, want 5 refused", res.refused, res.failed, len(res.latencies))
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: spanOp, Start: 0, End: 100, Op: 1},
		{Name: spanSend, Start: 10, End: 50, Op: 1},   // overlapping siblings:
		{Name: spanSend, Start: 30, End: 70, Op: 1},   // union [10,70] = 60, sum 80
		{Name: spanHandle, Start: 35, End: 45, Op: 1}, // child of the second send only
		{Name: spanFirstRow, Start: 0, End: 60, Op: 1},
		{Name: spanHandle, Start: 20, End: 40, Op: 0}, // background: no op, no parent
		{Name: spanOp, Start: 100, End: 150, Op: 2},
	}
	assignParents(spans)
	self := selfTimes(spans)
	byStart := func(name string, start int64) int {
		for i, s := range spans {
			if s.Name == name && s.Start == start {
				return i
			}
		}
		t.Fatalf("span %s@%d lost", name, start)
		return -1
	}
	op1 := byStart(spanOp, 0)
	if self[op1] != 40 {
		t.Errorf("op self time %d, want 100 minus the 60 its children cover", self[op1])
	}
	if p := spans[byStart(spanSend, 30)].Parent; p != op1 {
		t.Errorf("a sibling that merely overlaps is not a parent: got %d want %d", p, op1)
	}
	handle := byStart(spanHandle, 35)
	if spans[handle].Parent != byStart(spanSend, 30) {
		t.Errorf("pgrid.handle@35 belongs to the innermost enclosing send")
	}
	if got := self[byStart(spanSend, 30)]; got != 30 {
		t.Errorf("second send self time %d, want 40 minus its 10 ns child", got)
	}
	if bg := byStart(spanHandle, 20); spans[bg].Parent != -1 || self[bg] != 20 {
		t.Errorf("background span: parent %d self %d, want none and 20", spans[bg].Parent, self[bg])
	}
	if fr := byStart(spanFirstRow, 0); spans[fr].Parent != op1 {
		t.Errorf("first-row marker hangs off its op, got parent %d", spans[fr].Parent)
	}

	b := analyseSpans(spans)
	if b.ops != 2 || b.sendSpans != 2 {
		t.Errorf("ops %d sends %d, want 2 and 2", b.ops, b.sendSpans)
	}
	// Overlapping siblings are attributed twice where they overlap: 40 + 40
	// + 30 + 10 + 50 over 150 ns of ops. Serial traced runs never overlap.
	if want := 170.0 / 150.0; math.Abs(b.attributedFrac-want) > 1e-9 {
		t.Errorf("attributed %.4f want %.4f", b.attributedFrac, want)
	}
	if b.backgroundUs != 20.0/2/1e3 {
		t.Errorf("background per op %v", b.backgroundUs)
	}
}

func TestOpListFollowsSeed(t *testing.T) {
	for _, spec := range workloadSpecs {
		a, err := buildWorkload(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		again, _ := buildWorkload(spec, 1)
		other, _ := buildWorkload(spec, 2)
		if !bytes.Equal(a.encodeOps(), again.encodeOps()) {
			t.Errorf("%s: equal seeds gave different op lists", spec.Name)
		}
		if bytes.Equal(a.encodeOps(), other.encodeOps()) {
			t.Errorf("%s: different seeds gave the same op list", spec.Name)
		}
		if len(a.pool) != len(other.pool) {
			t.Errorf("%s: the query pool must not follow the seed", spec.Name)
		}
		if spec.Name == "mixed_rw" {
			writes := 0
			for _, o := range a.ops[0] {
				if o.Kind == opWrite {
					writes++
				}
			}
			if writes*2 != len(a.ops[0]) {
				t.Errorf("mixed_rw: %d writes in %d ops, want half", writes, len(a.ops[0]))
			}
			if a.writePayload(0, 1)[0] == a.writePayload(1, 1)[0] || a.writePayload(0, 1)[0] == other.writePayload(0, 1)[0] {
				t.Error("write payloads must differ across clients and seeds")
			}
		}
	}
}

// resultsWith builds a results file with three gated runs per workload,
// every metric at base×scale(workload, metric), the runs ±jitter apart.
func resultsWith(jitter float64, scale func(workload, metric string) float64) *resultsFile {
	f := &resultsFile{}
	for _, spec := range workloadSpecs {
		for run := -1; run <= 1; run++ {
			rec := runRecord{Workload: spec.Name}
			rec.Correct, rec.Attempted = true, 1000
			rec.Metrics = map[string]metricValue{}
			for _, def := range endToEnd {
				v := 100 * scale(spec.Name, def.Name)
				if def.Name != "recall" {
					v *= 1 + float64(run)*jitter
				}
				rec.Metrics[def.Name] = metricValue{v, def.Unit}
			}
			f.Results = append(f.Results, rec)
		}
	}
	return f
}

func TestCheckFlagsDriftBeyondBound(t *testing.T) {
	same := func(string, string) float64 { return 1 }
	drift := func(by float64) func(string, string) float64 {
		return func(w, m string) float64 {
			if w == "lookup" && m == "heap_mb" { // the metric with the 10 % bound
				return 1 + by
			}
			return 1
		}
	}
	base := resultsWith(0.01, same)
	if !compareResults(io.Discard, base, resultsWith(0.01, drift(0.05))) {
		t.Error("a 5 % drift is inside the 10 % bound and must pass")
	}
	var out bytes.Buffer
	if compareResults(&out, base, resultsWith(0.01, drift(0.12))) {
		t.Error("a 12 % drift must fail the check")
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("the drifted metric must be named REGRESSED:\n%s", out.String())
	}
	// Faster is not a regression, whichever way the metric points.
	if !compareResults(io.Discard, base, resultsWith(0.01, drift(-0.12))) {
		t.Error("a 12 % improvement must pass")
	}
	out.Reset()
	if compareResults(&out, resultsWith(0.2, same), resultsWith(0.01, same)) {
		t.Error("runs 20 % apart cannot resolve a 10 % bound: unresolved, not unchanged")
	}
	if !strings.Contains(out.String(), "UNRESOLVED") {
		t.Errorf("want UNRESOLVED:\n%s", out.String())
	}
	out.Reset()
	recallDrift := func(w, m string) float64 {
		if w == "reformulate" && m == "recall" {
			return 0.999
		}
		return 1
	}
	if compareResults(&out, base, resultsWith(0.01, recallDrift)) || !strings.Contains(out.String(), "DIFFERS") {
		t.Errorf("any recall difference fails the check:\n%s", out.String())
	}
	failed := resultsWith(0.01, same)
	failed.Results[0].Failed = 1
	if compareResults(io.Discard, base, failed) {
		t.Error("a failed op fails the check")
	}
}

func TestParseChildOutput(t *testing.T) {
	out := "workload lookup seed 1\n  ops_per_s   10.0 1/s\n  raw: ops_per_s=12.5000 speed_factor=1.2500\n  samples: slices=10 timed_ops=1234\n" +
		`{"correct":true,"attempted":1234,"failed":0,"metrics":{"ops_per_s":{"value":10,"unit":"1/s"}}}` + "\n"
	rec, err := parseChildOutput([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct || rec.Attempted != 1234 || rec.Samples["timed_ops"] != 1234 || rec.Metrics["ops_per_s"].Value != 10 || rec.Raw["speed_factor"] != 1.25 {
		t.Errorf("parsed %+v", rec)
	}
	if _, err := parseChildOutput([]byte("benchmark: wrong answer\n")); err == nil {
		t.Error("a child that printed no result line is an error")
	}
}

// BENCHMARK.json is what the driver reads; spec.go is what the program
// prints. They must name the same workloads and metrics.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(doc.Workloads), len(workloadSpecs))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadSpecs[i].Name || w.Why != workloadSpecs[i].Why {
			t.Errorf("workload %d: %q/%q vs spec %q/%q", i, w.Name, w.Why, workloadSpecs[i].Name, workloadSpecs[i].Why)
		}
	}
	same := func(kind string, got, want []metricDef, bounds bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i := range got {
			if !bounds {
				want[i].Bound = 0
			}
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, spec.go %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, append([]metricDef(nil), endToEnd...), true)
	same("per_layer", doc.PerLayer, append([]metricDef(nil), perLayer...), false)
	hasSetup := false
	for _, def := range endToEnd {
		hasSetup = hasSetup || (def.Name == "setup_s" && def.Unit == "s" && def.Better == "lower")
		if def.Bound <= 0 || def.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", def.Name, def.Bound)
		}
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) must be gated")
	}
}

// A slice measured while the machine ran at half speed must weigh like one
// measured at full speed: times are divided by the slice's speed factor.
func TestClosedLoopMetricsDivideBySliceSpeed(t *testing.T) {
	mark := func(at, cpu time.Duration, alloc uint64) resourceMark {
		return resourceMark{at: at, cpu: cpu, alloc: alloc}
	}
	res := &loopResult{slices: []loopSlice{
		{from: mark(0, 0, 0), to: mark(time.Second, time.Second, 1<<20), speed: 1},
		{from: mark(0, 0, 0), to: mark(2*time.Second, 2*time.Second, 1<<20), speed: 2},
	}}
	for i := 0; i < 100; i++ {
		res.samples = append(res.samples,
			sample{kind: opQuery, slice: 0, total: 10 * time.Millisecond, first: 5 * time.Millisecond},
			sample{kind: opQuery, slice: 1, total: 20 * time.Millisecond, first: 10 * time.Millisecond})
	}
	res.samples = append(res.samples, sample{kind: opQuery, slice: 1, total: time.Second, failed: true})
	norm, raw, counts, err := closedLoopMetrics(res)
	if err != nil {
		t.Fatal(err)
	}
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("query_p50_ms", norm["query_p50_ms"], 10)
	near("query_p90_ms", norm["query_p90_ms"], 10)
	near("first_row_p50_ms", norm["first_row_p50_ms"], 5)
	near("ops_per_s", norm["ops_per_s"], 100)        // 200 ops in 1 s + 2 s at half speed
	near("cpu_ms_per_op", norm["cpu_ms_per_op"], 10) // 1 s + 2 s at half speed over 200 ops
	near("alloc_kb_per_op", norm["alloc_kb_per_op"], 2048.0/200)
	near("raw query_p90_ms", raw["query_p90_ms"], 20)
	near("raw ops_per_s", raw["ops_per_s"], 200.0/3)
	if counts["timed_ops"] != 200 || counts["slices"] != 2 {
		t.Errorf("counts = %v; the failed op must not be a timed op", counts)
	}
}

// The gate must hold every client between two ops while the controller
// calibrates, name the slice the next op belongs to, and not wait for a
// client that has left.
func TestGateParksClientsBetweenSlices(t *testing.T) {
	g := newGate(2)
	var mu sync.Mutex
	ops := map[int]int{} // slice → ops started in it
	count := func(slice int) int {
		mu.Lock()
		defer mu.Unlock()
		return ops[slice]
	}
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer g.leave()
			for {
				slice, ok := g.pass()
				if !ok || (c == 1 && slice == 1) { // client 1 gives up in slice 1, as one does on a dead context
					return
				}
				mu.Lock()
				ops[slice]++
				mu.Unlock()
				time.Sleep(100 * time.Microsecond) // the op
			}
		}(c)
	}
	for count(-1) == 0 {
		time.Sleep(time.Millisecond)
	}
	g.pause() // returns only once both are parked
	warm := count(-1)
	time.Sleep(5 * time.Millisecond)
	if count(-1) != warm || count(0) != 0 {
		t.Fatal("a client ran an op while the gate was paused")
	}
	g.resume(0)
	for count(0) < 4 {
		time.Sleep(time.Millisecond)
	}
	g.pause()
	if count(-1) != warm {
		t.Error("an op after resume(0) was counted as warm-up")
	}
	g.resume(1)
	for count(1) < 4 {
		time.Sleep(time.Millisecond)
	}
	g.pause() // client 1 has left; this must not wait for it
	g.stop()
	wg.Wait()
}

func TestCalibratorMeasuresAndReleases(t *testing.T) {
	k, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	speed, err := k.measure()
	if err != nil || speed <= 0 {
		t.Fatalf("measure = %v, %v", speed, err)
	}
	k.close()
	if _, err := k.measure(); err == nil {
		t.Error("measuring on a closed calibrator must fail, not hang")
	}
	(&calibrator{}).close()
}
