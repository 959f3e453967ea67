package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"gridvine/internal/simnet"
	"gridvine/internal/wire"
)

// The traced run (--trace 1) gives the per-layer numbers and is never mixed
// with the gated run. Its --seconds are split between the stages below.
const (
	shareClosed = 0.25 // untraced closed loop on the gated cluster (write latencies)
	shareOpen   = 0.25 // open loop on the gated cluster
	sharePass   = 0.15 // each of the two serial passes on the traced stack
)

// tracePass runs ops[0:n] of client 0's list serially on the traced stack,
// alternating the two connections, and returns each op's time in µs. With
// record set it opens a wire.op span (and a wire.first_row marker) per op.
// n <= 0 runs until budget is spent.
func tracePass(ctx context.Context, s *tracedStack, w *workload, n int, budget time.Duration, seqBase int, record bool) ([]float64, error) {
	ops := w.ops[0]
	var out []float64
	start := time.Now()
	for i := 0; (n > 0 && i < n) || (n <= 0 && time.Since(start) < budget); i++ {
		o := ops[i%len(ops)]
		var t0 int64 = -1
		if record {
			s.rec.curOp.Store(int64(i + 1))
			t0 = s.rec.begin()
		}
		first, total, _, err := execOp(ctx, &s.endpoint, w, i%len(s.clients), 0, seqBase+i, o)
		if record {
			s.rec.end(spanOp, t0, 0)
			if o.Kind == opQuery {
				s.rec.add(span{Name: spanFirstRow, Start: t0, End: t0 + int64(first), Op: int64(i + 1), Parent: -1})
			}
			s.rec.curOp.Store(0)
		}
		if err != nil {
			return nil, fmt.Errorf("traced stack op %d: %w", i, err)
		}
		out = append(out, us(total))
	}
	return out, nil
}

// layerBudget is part one's result: where an op's time goes, by layer.
type layerBudget struct {
	ops            int
	meanOpUs       float64
	medianOpUs     float64
	selfUs         map[string]float64 // span name → mean self time per op
	countPerOp     map[string]float64 // span name → spans per op
	backgroundUs   float64            // pgrid.handle self time outside any op, per op
	syncUsMedian   float64
	writeBytesOp   float64
	sendSpans      int
	attributedFrac float64 // Σ self of op spans ÷ Σ op durations
}

func analyseSpans(spans []span) layerBudget {
	assignParents(spans)
	self := selfTimes(spans)
	b := layerBudget{selfUs: map[string]float64{}, countPerOp: map[string]float64{}}
	var opDur []float64
	var syncs []float64
	var opTotal, attributed, background, writeBytes float64
	for i, s := range spans {
		switch s.Name {
		case spanFirstRow:
			continue
		case spanOp:
			b.ops++
			opDur = append(opDur, float64(s.End-s.Start)/1e3)
			opTotal += float64(s.End - s.Start)
		case spanSend:
			b.sendSpans++
		case spanSync:
			syncs = append(syncs, float64(s.End-s.Start)/1e3)
		case spanWrite:
			if s.Op > 0 {
				writeBytes += float64(s.Bytes)
			}
		}
		if s.Op == 0 {
			if s.Name == spanHandle {
				background += float64(self[i])
			}
			continue
		}
		b.selfUs[s.Name] += float64(self[i])
		b.countPerOp[s.Name]++
		attributed += float64(self[i])
	}
	if b.ops == 0 {
		return b
	}
	n := float64(b.ops)
	for k := range b.selfUs {
		b.selfUs[k] /= n * 1e3
		b.countPerOp[k] /= n
	}
	b.meanOpUs = mean(opDur)
	b.medianOpUs = median(opDur)
	b.backgroundUs = background / n / 1e3
	b.syncUsMedian = median(syncs)
	b.writeBytesOp = writeBytes / n
	b.attributedFrac = attributed / opTotal
	return b
}

// runTracedStack is part one: assemble the stack, load it, prove it answers
// like the gated cluster, run the op list with the interposers off and then
// on, and account for every op's time.
func runTracedStack(ctx context.Context, root string, w *workload, budget time.Duration) (b layerBudget, overhead float64, spans []span, sent []simnet.Message, err error) {
	s, err := startTracedStack(filepath.Join(root, "traced"))
	if err != nil {
		return b, 0, nil, nil, err
	}
	defer func() {
		if serr := s.stop(); serr != nil && err == nil {
			err = fmt.Errorf("traced stack shutdown: %w", serr)
		}
	}()
	if err = preload(ctx, &s.endpoint, w); err != nil {
		return b, 0, nil, nil, err
	}
	// The traced stack's rows must equal the gated cluster's (which the
	// check phase left in the pool).
	for i := range w.pool {
		q := w.pool[i].query
		var d int
		d, q.Peer = issuer(s.peerIDs, i)
		rows, _, qerr := wireRows(ctx, s.clients[d], q)
		if qerr != nil {
			return b, 0, nil, nil, fmt.Errorf("traced stack check query %d: %w", i, qerr)
		}
		if !sameRows(rows, w.pool[i].rows) {
			return b, 0, nil, nil, fmt.Errorf("wrong answer: traced stack and gated cluster disagree on check query %d", i)
		}
	}

	plain, err := tracePass(ctx, s, w, 0, budget, 1<<24, false)
	if err != nil {
		return b, 0, nil, nil, err
	}
	msgs0, _ := s.transport.Stats()
	s.rec.on.Store(true)
	traced, err := tracePass(ctx, s, w, len(plain), 0, 1<<25, true)
	s.rec.on.Store(false)
	msgs1, _ := s.transport.Stats()
	if err != nil {
		return b, 0, nil, nil, err
	}
	spans = s.rec.take()
	b = analyseSpans(spans)
	if b.sendSpans != msgs1-msgs0 {
		return b, 0, nil, nil, fmt.Errorf("trace lost sends: %d tcpnet.send spans, transport counted %d messages", b.sendSpans, msgs1-msgs0)
	}
	if b.attributedFrac < 0.95 || b.attributedFrac > 1.05 {
		return b, 0, nil, nil, fmt.Errorf("layer self times sum to %.1f%% of the op time", 100*b.attributedFrac)
	}
	s.reg.mu.Lock()
	sent = s.reg.sent
	s.reg.mu.Unlock()
	return b, median(traced) / median(plain), spans, sent, nil
}

// runTraced is the --trace 1 run.
func runTraced(ctx context.Context, root string, w *workload, seconds int, spansOut string) (res *runResult, err error) {
	total := time.Duration(seconds) * time.Second
	share := func(f float64) time.Duration { return time.Duration(float64(total) * f) }
	m := map[string]float64{}

	// The gated cluster: set up once, checked against the reference.
	ref, err := newReference(ctx, w)
	if err != nil {
		return nil, err
	}
	st, err := runSetup(ctx, root, w, ref)
	if err != nil {
		return nil, err
	}
	c := st.cluster
	defer func() {
		if _, serr := c.stop(); serr != nil && err == nil {
			res, err = nil, fmt.Errorf("final shutdown: %w", serr)
		}
	}()
	m["daemon.start_ms"] = c.startMs
	w.userBytes.Add(triplesBytes(w.corpus.Triples()))

	if m["wire.roundtrip_us"], err = wireRoundtrip(ctx, c.clients[0]); err != nil {
		return nil, err
	}
	before, err := daemonStats(ctx, c)
	if err != nil {
		return nil, err
	}
	loop, err := closedLoop(ctx, &c.endpoint, w, share(shareClosed)/10, share(shareClosed), nil)
	if err != nil {
		return nil, err
	}
	writes := writeLatencies(loop.samples)
	m["wire.write_p50_ms"], _ = percentile(writes, 50)
	tail, tailP := tailPercentile(writes)
	m["wire.write_tail_ms"] = tail

	open := runOpenLoop(ctx, &c.endpoint, w, share(shareOpen))
	m["wire.openloop_p50_ms"], _ = percentile(open.latencies, 50)
	m["wire.openloop_p99_ms"], _ = percentile(open.latencies, 99)
	m["wire.openloop_late_ms"], _ = percentile(sortedCopy(open.late), 99)
	m["wire.openloop_backlog"] = float64(open.backlog)
	// Refused arrivals are the generator's own overload answer, not a wrong
	// output: they count in the error rate, not against the run.
	m["wire.openloop_error_rate"] = float64(open.failed+open.refused) / float64(max(open.attempted, 1))
	after, err := daemonStats(ctx, c)
	if err != nil {
		return nil, err
	}
	if lookups := float64(after.ComposeHits + after.ComposeMisses - before.ComposeHits - before.ComposeMisses); lookups > 0 {
		m["compose.hit_ratio"] = float64(after.ComposeHits-before.ComposeHits) / lookups
	} else {
		m["compose.hit_ratio"] = 0
	}
	m["compose.entries"] = float64(after.ComposeEntries)

	if m["daemon.shutdown_ms"], err = c.stop(); err != nil {
		return nil, fmt.Errorf("cluster shutdown: %w", err)
	}
	m["store.bytes_per_user_byte"] = float64(dirBytes(c.dir)) / float64(w.userBytes.Load())

	// Part one: the traced stack.
	budget, overhead, spans, sent, err := runTracedStack(ctx, root, w, share(sharePass))
	if err != nil {
		return nil, err
	}
	if spansOut != "" {
		if err := writeSpans(spansOut, spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("wrote %d spans to %s\n", len(spans), spansOut)
	}
	m["benchmark.trace_overhead_ratio"] = overhead
	m["benchmark.trace_op_us"] = budget.medianOpUs
	m["tcpnet.sends_per_op"] = budget.countPerOp[spanSend]
	m["tcpnet.self_us_per_op"] = budget.selfUs[spanSend]
	m["pgrid.handles_per_op"] = budget.countPerOp[spanHandle]
	m["pgrid.handle_self_us_per_op"] = budget.selfUs[spanHandle]
	m["pgrid.background_us_per_op"] = budget.backgroundUs
	m["store.sync_us"] = budget.syncUsMedian
	m["store.syncs_per_op"] = budget.countPerOp[spanSync]
	m["store.write_bytes_per_op"] = budget.writeBytesOp
	m["store.self_us_per_op"] = budget.selfUs[spanWrite] + budget.selfUs[spanSync]

	// Part two: direct calls.
	consts, pats, err := routedConstants(w)
	if err != nil {
		return nil, err
	}
	graphMappings := mappingGraph(w.corpus)
	type driver = func() (map[string]float64, error)
	for _, run := range []driver{
		func() (map[string]float64, error) { return wireCodec(w, c.peerIDs[0][0]) },
		func() (map[string]float64, error) { return tcpnetSend(ctx, sent) },
		func() (map[string]float64, error) { return pgridOps(ctx, ref, consts) },
		func() (map[string]float64, error) { return mediationOps(ctx, ref, w) },
		func() (map[string]float64, error) { return rdqlParse(w.corpus) },
		func() (map[string]float64, error) { return keyspaceHash(consts) },
		func() (map[string]float64, error) { return tripleOps(w, pats) },
		func() (map[string]float64, error) { return storeOps(root, w, ref) },
		func() (map[string]float64, error) { return composeOps(ctx, w.corpus, graphMappings) },
		// Last: the round publishes mappings into the reference.
		func() (map[string]float64, error) { return selforgOps(ctx, ref, w, graphMappings) },
	} {
		part, err := run()
		if err != nil {
			return nil, err
		}
		for k, v := range part {
			m[k] = v
		}
	}
	// The client-side span covers wire and mediation both; wire's part is
	// computed from its own unit costs, the rest is the engine.
	m["wire.self_us_per_op"] = m["wire.roundtrip_us"] + m["wire.encode_us"] + m["wire.decode_us"]
	m["mediation.self_us_per_op"] = max(0, budget.selfUs[spanOp]-m["wire.self_us_per_op"])

	res = &runResult{
		Correct:   loop.failed == 0 && open.failed == 0,
		Attempted: loop.attempted + open.attempted + 2*budget.ops,
		Failed:    loop.failed + open.failed,
		Metrics:   map[string]metricValue{},
		counts: map[string]int{
			"closed_ops": len(loop.samples), "write_samples": len(writes), "write_tail_percentile": int(tailP),
			"open_ops": open.attempted, "traced_ops": budget.ops, "spans": len(spans),
		},
	}
	if loop.firstErr != nil {
		fmt.Printf("first failed op: %v\n", loop.firstErr)
	}
	for _, def := range perLayer {
		v, ok := m[def.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", def.Name)
		}
		res.Metrics[def.Name] = metricValue{v, def.Unit}
	}
	printMetrics(perLayer, res.Metrics)
	printCounts(res.counts)
	printBudget(w.spec.Name, budget, m)
	return res, nil
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// daemonStats sums the daemons' compose counters.
func daemonStats(ctx context.Context, c *cluster) (wire.DaemonStats, error) {
	var sum wire.DaemonStats
	for i, cl := range c.clients {
		st, err := cl.Stats(ctx)
		if err != nil {
			return sum, fmt.Errorf("stats of daemon %d: %w", i, err)
		}
		sum.ComposeHits += st.ComposeHits
		sum.ComposeMisses += st.ComposeMisses
		sum.ComposeEntries += st.ComposeEntries
	}
	return sum, nil
}

func dirBytes(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error { //nolint:errcheck // best-effort size of a scratch dir
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}

// printBudget prints, for one workload, count per op × unit cost and share
// of the op time per layer. Under a closed loop with nothing else
// contending, a faster layer saves at most its share.
func printBudget(name string, b layerBudget, m map[string]float64) {
	fmt.Printf("budget %s: %d traced ops, op mean %.1f us (median %.1f us), self times cover %.1f%% of it\n",
		name, b.ops, b.meanOpUs, b.medianOpUs, 100*b.attributedFrac)
	fmt.Printf("  %-10s %12s %14s %14s %8s\n", "layer", "count/op", "unit cost us", "self us/op", "share")
	row := func(layer string, count, unit, self float64) {
		fmt.Printf("  %-10s %12.2f %14.1f %14.1f %7.1f%%\n", layer, count, unit, self, 100*self/b.meanOpUs)
	}
	row("wire", m["wire.frames_per_op"], (m["wire.encode_us"]+m["wire.decode_us"])/max(m["wire.frames_per_op"], 1), m["wire.self_us_per_op"])
	row("mediation", 1, m["mediation.query_us"], m["mediation.self_us_per_op"])
	row("tcpnet", m["tcpnet.sends_per_op"], m["tcpnet.send_us"], m["tcpnet.self_us_per_op"])
	row("pgrid", m["pgrid.handles_per_op"], m["pgrid.retrieve_us"], m["pgrid.handle_self_us_per_op"])
	row("store", m["store.syncs_per_op"], m["store.sync_us"], m["store.self_us_per_op"])
	fmt.Printf("  wire is computed (roundtrip + encode + decode), mediation is the rest of the client-side span\n")
}
