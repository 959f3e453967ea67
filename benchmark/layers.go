package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"gridvine/internal/align"
	"gridvine/internal/bayes"
	"gridvine/internal/bioworkload"
	"gridvine/internal/compose"
	"gridvine/internal/graph"
	"gridvine/internal/keyspace"
	"gridvine/internal/mediation"
	"gridvine/internal/rdql"
	"gridvine/internal/schema"
	"gridvine/internal/selforg"
	"gridvine/internal/simnet"
	"gridvine/internal/store"
	"gridvine/internal/tcpnet"
	"gridvine/internal/triple"
	"gridvine/internal/wire"
)

// Part two of the traced run: direct calls into the public functions of the
// layers interposition cannot split. Every driver takes its inputs from the
// workload's own pool and op list and reports the median call.

const (
	driverCalls  = 1000                   // calls per driver, when the budget allows
	driverBudget = 400 * time.Millisecond // per driver; slow calls get fewer samples
)

// timeCalls calls f(i) for i = 0, 1, … until n calls are made or budget is
// spent (at least 5 calls) and returns the per-call times in µs.
func timeCalls(n int, budget time.Duration, f func(i int) error) ([]float64, error) {
	out := make([]float64, 0, n)
	start := time.Now()
	for i := 0; i < n && (i < 5 || time.Since(start) < budget); i++ {
		t0 := time.Now()
		if err := f(i); err != nil {
			return nil, err
		}
		out = append(out, us(time.Since(t0)))
	}
	return out, nil
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// wireRoundtrip times Client.Stats on the live cluster: socket, frame and
// demux, no engine.
func wireRoundtrip(ctx context.Context, c *wire.Client) (float64, error) {
	ts, err := timeCalls(driverCalls, driverBudget, func(int) error {
		_, err := c.Stats(ctx)
		return err
	})
	return median(ts), err
}

// frame is one message of the sequence an op puts on the connection.
type frame struct {
	t   wire.Type
	msg any
}

// framesOf lists the frames of one op, both ways.
func framesOf(w *workload, peer string, o op, seq int) []frame {
	var f []frame
	add := func(t wire.Type, m any) { f = append(f, frame{t, m}) }
	if o.Kind == opWrite {
		add(wire.TWrite, &wire.Write{ID: 1, Peer: peer, Inserts: w.writePayload(0, seq)})
		add(wire.TReceipt, &wire.Receipt{ID: 1, Applied: writeTriples, Groups: 3, Messages: 6})
		return f
	}
	pq := &w.pool[o.Pool]
	q := pq.query
	q.ID, q.Peer = 1, peer
	add(wire.TQuery, &q)
	const chunkRows = 128 // wire's RowChunk size
	for lo := 0; lo < len(pq.rows); lo += chunkRows {
		chunk := &wire.RowChunk{ID: 1, Rows: pq.rows[lo:min(lo+chunkRows, len(pq.rows))]}
		if lo == 0 {
			chunk.Columns = pq.cols
		}
		add(wire.TRowChunk, chunk)
	}
	add(wire.TTrailer, &wire.Trailer{ID: 1, Columns: pq.cols, Stats: wire.Stats{Rows: len(pq.rows), Messages: 2, ElapsedMicros: 500}})
	return f
}

// wireCodec runs EncodeFrame and DecodeFrame+DecodeMessage over the real
// frames of the first ops of the op list. Times are per op (the sum over
// the op's frames), medians over ops.
func wireCodec(w *workload, peer string) (map[string]float64, error) {
	var enc, dec, frames, bytesPerOp []float64
	ops := w.ops[0]
	_, err := timeCalls(driverCalls, 2*driverBudget, func(i int) error {
		f := framesOf(w, peer, ops[i%len(ops)], i)
		bufs := make([][]byte, len(f))
		t0 := time.Now()
		for k := range f {
			b, err := wire.EncodeFrame(f[k].t, f[k].msg)
			if err != nil {
				return err
			}
			bufs[k] = b
		}
		t1 := time.Now()
		size := 0
		for _, b := range bufs {
			t, payload, _, err := wire.DecodeFrame(b)
			if err != nil {
				return err
			}
			if _, err := wire.DecodeMessage(t, payload); err != nil {
				return err
			}
			size += len(b)
		}
		t2 := time.Now()
		enc = append(enc, us(t1.Sub(t0)))
		dec = append(dec, us(t2.Sub(t1)))
		frames = append(frames, float64(len(bufs)))
		bytesPerOp = append(bytesPerOp, float64(size))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"wire.encode_us":          median(enc),
		"wire.decode_us":          median(dec),
		"wire.frames_per_op":      mean(frames),
		"wire.frame_bytes_per_op": mean(bytesPerOp),
	}, nil
}

// medianMessage picks, from the overlay messages the traced run shipped,
// the one of median gob size.
func medianMessage(sent []simnet.Message) (simnet.Message, error) {
	if len(sent) == 0 {
		return simnet.Message{}, fmt.Errorf("the traced run shipped no overlay message to replay")
	}
	type sized struct {
		i, n int
	}
	sizes := make([]sized, 0, len(sent))
	for i := range sent {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&sent[i]); err != nil {
			return simnet.Message{}, fmt.Errorf("sizing overlay message %d: %w", i, err)
		}
		sizes = append(sizes, sized{i, buf.Len()})
	}
	sort.Slice(sizes, func(a, b int) bool { return sizes[a].n < sizes[b].n })
	return sent[sizes[len(sizes)/2].i], nil
}

// tcpnetSend times Transport.Send to an echo handler on loopback, carrying
// the workload's median overlay payload: a dial and two gob codecs per
// message.
func tcpnetSend(ctx context.Context, sent []simnet.Message) (map[string]float64, error) {
	msg, err := medianMessage(sent)
	if err != nil {
		return nil, err
	}
	t := tcpnet.NewTransport()
	defer t.Close()
	const server, caller = simnet.PeerID("bench-echo"), simnet.PeerID("bench-caller")
	t.Register(server, simnet.HandlerFunc(func(_ simnet.PeerID, m simnet.Message) (simnet.Message, error) {
		return m, nil
	}))
	send := func(int) error {
		_, err := t.Send(ctx, caller, server, msg)
		return err
	}
	if _, err := timeCalls(20, driverBudget, send); err != nil { // warm the listener
		return nil, err
	}
	sent0, recv0 := t.Bytes()
	m0 := mallocs()
	ts, err := timeCalls(driverCalls, driverBudget, send)
	if err != nil {
		return nil, err
	}
	m1 := mallocs()
	sent1, recv1 := t.Bytes()
	n := float64(len(ts))
	return map[string]float64{
		"tcpnet.send_us":     median(ts),
		"tcpnet.send_allocs": float64(m1-m0) / n,
		"tcpnet.send_bytes":  float64(sent1-sent0+recv1-recv0) / n,
	}, nil
}

// routedConstants lists the constants the workload's queries route on.
func routedConstants(w *workload) ([]string, []triple.Pattern, error) {
	var consts []string
	var pats []triple.Pattern
	for _, pq := range w.pool {
		var ps []triple.Pattern
		if pq.query.Pattern != nil {
			ps = []triple.Pattern{*pq.query.Pattern}
		} else {
			q, err := rdql.Parse(pq.query.RDQL)
			if err != nil {
				return nil, nil, err
			}
			ps = q.Patterns
		}
		for _, p := range ps {
			if _, c, ok := p.MostSpecificConstant(); ok {
				consts = append(consts, c)
				pats = append(pats, p)
			}
		}
	}
	if len(consts) == 0 {
		return nil, nil, fmt.Errorf("workload %s routes on no constant", w.spec.Name)
	}
	return consts, pats, nil
}

// pgridOps times Node.Retrieve on the reference overlay (same seed as the
// cluster, no sockets) and Node.Update on a scratch overlay of the same
// shape.
func pgridOps(ctx context.Context, ref *reference, consts []string) (map[string]float64, error) {
	var hops []float64
	retr, err := timeCalls(driverCalls, driverBudget, func(i int) error {
		key := keyspace.HashDefault(consts[i%len(consts)])
		_, route, err := ref.order[i%len(ref.order)].Node().Retrieve(ctx, key)
		hops = append(hops, float64(route.Hops()))
		return err
	})
	if err != nil {
		return nil, err
	}
	scratch, err := newOverlay()
	if err != nil {
		return nil, err
	}
	upd, err := timeCalls(driverCalls, driverBudget, func(i int) error {
		t := triple.Triple{Subject: fmt.Sprintf("bench:%d", i), Predicate: "Bench#p", Object: "o"}
		_, err := scratch.order[i%len(scratch.order)].Node().Update(ctx, keyspace.HashDefault(t.Subject), t)
		return err
	})
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"pgrid.retrieve_us":     median(retr),
		"pgrid.update_us":       median(upd),
		"pgrid.hops_per_lookup": mean(hops),
	}, nil
}

// mediationOps runs the op list in-process on the reference (Peer.Query and
// Peer.Write over simnet, same dataset): the engine's cost without sockets
// or disk, and its own counters per op.
func mediationOps(ctx context.Context, ref *reference, w *workload) (map[string]float64, error) {
	var msgs, reforms, shipped, rows []float64
	ops := w.ops[0]
	next := 0
	qts, err := timeCalls(driverCalls, 2*driverBudget, func(int) error {
		for ops[next%len(ops)].Kind != opQuery {
			next++
		}
		o := ops[next%len(ops)]
		next++
		q := w.pool[o.Pool].query
		cur, err := ref.order[int(o.Issuer)%len(ref.order)].Query(ctx, mediation.Request{
			Pattern: q.Pattern, RDQL: q.RDQL, Reformulate: q.Reformulate, Options: q.Options,
		})
		if err != nil {
			return err
		}
		n := 0
		for {
			if _, ok := cur.Next(ctx); !ok {
				break
			}
			n++
		}
		if err := cur.Close(); err != nil {
			return err
		}
		st := cur.Stats()
		msgs = append(msgs, float64(st.Messages))
		reforms = append(reforms, float64(st.Reformulations))
		if q.RDQL != "" {
			shipped = append(shipped, float64(st.Conjunctive.TriplesShipped))
		} else {
			shipped = append(shipped, float64(n)) // a pattern answer ships its triples
		}
		rows = append(rows, float64(n))
		return nil
	})
	if err != nil {
		return nil, err
	}
	wts, err := timeCalls(driverCalls/4, driverBudget, func(i int) error {
		b := &mediation.Batch{}
		for _, t := range w.writePayload(clients, i) {
			b.InsertTriple(t)
		}
		rec, err := ref.order[i%len(ref.order)].Write(ctx, b)
		if err == nil && rec.Applied != writeTriples {
			err = fmt.Errorf("in-process write applied %d of %d", rec.Applied, writeTriples)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"mediation.query_us":               median(qts),
		"mediation.write_us":               median(wts),
		"mediation.msgs_per_op":            mean(msgs),
		"mediation.reformulations_per_op":  mean(reforms),
		"mediation.triples_shipped_per_op": mean(shipped),
		"mediation.rows_per_op":            mean(rows),
	}, nil
}

func rdqlParse(corpus *bioworkload.Workload) (map[string]float64, error) {
	pool := joinPool(corpus)
	ts, err := timeCalls(driverCalls, driverBudget, func(i int) error {
		_, err := rdql.Parse(pool[i%len(pool)].query.RDQL)
		return err
	})
	return map[string]float64{"rdql.parse_us": median(ts)}, err
}

// keyspaceHash reports ns per Hash call; calls are timed in batches because
// one call is shorter than the clock's resolution is trustworthy for.
func keyspaceHash(consts []string) (map[string]float64, error) {
	const batch = 64
	var sink keyspace.Key
	ts, _ := timeCalls(driverCalls, driverBudget, func(i int) error {
		for k := 0; k < batch; k++ {
			sink = keyspace.HashDefault(consts[(i*batch+k)%len(consts)])
		}
		return nil
	})
	_ = sink
	return map[string]float64{"keyspace.hash_ns": median(ts) * 1000 / batch}, nil
}

// tripleOps times DB.Select with the workload's patterns on a triple.DB
// holding the corpus, and DB.Insert of new triples.
func tripleOps(w *workload, pats []triple.Pattern) (map[string]float64, error) {
	db := triple.NewDB()
	db.InsertBatch(w.corpus.Triples())
	var rows []float64
	m0 := mallocs()
	sel, _ := timeCalls(driverCalls, driverBudget, func(i int) error {
		rows = append(rows, float64(len(db.Select(pats[i%len(pats)]))))
		return nil
	})
	m1 := mallocs()
	ins, _ := timeCalls(driverCalls, driverBudget, func(i int) error {
		db.Insert(triple.Triple{Subject: fmt.Sprintf("bench:%d", i), Predicate: "Bench#p", Object: "o"})
		return nil
	})
	return map[string]float64{
		"triple.select_us":       median(sel),
		"triple.select_allocs":   float64(m1-m0) / float64(len(sel)),
		"triple.rows_per_select": mean(rows),
		"triple.insert_us":       median(ins),
	}, nil
}

// storeOps times the journal on the real file system with the default
// flush policy (group commit on, fsync on store.OsFS): appends of one
// write op's record by one writer and by `clients` writers, and a snapshot
// of a peer-sized store.
func storeOps(dir string, w *workload, ref *reference) (map[string]float64, error) {
	l, _, err := store.Open(store.OsFS{}, filepath.Join(dir, "store-driver"), store.Options{SnapshotEvery: -1})
	if err != nil {
		return nil, err
	}
	defer l.Close() //nolint:errcheck // scratch journal; Append and Snapshot errors are checked
	record := func(writer, i int) []store.Entry {
		ts := w.writePayload(clients+1+writer, i)
		es := make([]store.Entry, len(ts))
		for k, t := range ts {
			es[k] = store.Entry{Op: store.OpInsert, Key: keyspace.HashDefault(t.Subject).String(), Value: t}
		}
		return es
	}
	single, err := timeCalls(driverCalls, driverBudget, func(i int) error { return l.Append(record(0, i)) })
	if err != nil {
		return nil, err
	}
	syncs0 := l.Syncs()
	var mu sync.Mutex
	var concurrent []float64
	var firstErr error
	var wg sync.WaitGroup
	for wr := 0; wr < clients; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			ts, err := timeCalls(driverCalls, driverBudget, func(i int) error { return l.Append(record(wr, 1<<20+i)) })
			mu.Lock()
			concurrent = append(concurrent, ts...)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}(wr)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	syncsPerAppend := float64(l.Syncs()-syncs0) / float64(len(concurrent))

	// A snapshot of what the fullest peer of the reference holds: the
	// end-of-run store size of this workload.
	var items, tombs []store.Entry
	for _, p := range ref.order {
		si, st := p.Node().DumpState()
		if len(si) > len(items) {
			items, tombs = items[:0], tombs[:0]
			for _, it := range si {
				items = append(items, store.Entry{Op: store.OpInsert, Key: it.Key, Value: it.Value})
			}
			for _, tb := range st {
				tombs = append(tombs, store.Entry{Op: store.OpDelete, Key: tb.Key, Value: tb.Value})
			}
		}
	}
	l.SetSnapshotSource(func() ([]store.Entry, []store.Entry) { return items, tombs })
	snaps, err := timeCalls(20, 2*driverBudget, func(int) error { return l.Snapshot() })
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"store.append_us":            median(single),
		"store.append_us_concurrent": median(concurrent),
		"store.syncs_per_append":     syncsPerAppend,
		"store.snapshot_ms":          median(snaps) / 1000,
	}, nil
}

// composeOps times compose.Build and a Cache.GetOrBuild hit for the
// reformulate predicates over the reformulate mapping graph, with the
// mappings served from memory (no overlay).
func composeOps(ctx context.Context, corpus *bioworkload.Workload, mappings []schema.Mapping) (map[string]float64, error) {
	from := map[string][]schema.Mapping{}
	for _, m := range mappings {
		from[m.Source] = append(from[m.Source], m)
		if m.Bidirectional && m.Type == schema.Equivalence {
			if rev, err := m.Reverse(); err == nil {
				from[m.Target] = append(from[m.Target], rev)
			}
		}
	}
	src := func(_ context.Context, name string) ([]schema.Mapping, int, error) { return from[name], 0, nil }
	var preds []string
	for _, info := range corpus.Schemas {
		for _, a := range info.Schema.Attributes {
			preds = append(preds, info.Schema.PredicateURI(a))
		}
	}
	build, err := timeCalls(driverCalls, driverBudget, func(i int) error {
		_, err := compose.Build(ctx, src, preds[i%len(preds)], compose.Options{})
		return err
	})
	if err != nil {
		return nil, err
	}
	cache := compose.NewCache()
	for _, p := range preds {
		if _, _, err := cache.GetOrBuild(ctx, src, p, compose.Options{}); err != nil {
			return nil, err
		}
	}
	hit, err := timeCalls(driverCalls, driverBudget, func(i int) error {
		_, built, err := cache.GetOrBuild(ctx, src, preds[i%len(preds)], compose.Options{})
		if err == nil && built {
			err = fmt.Errorf("compose cache rebuilt a warm closure")
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return map[string]float64{"compose.build_us": median(build), "compose.lookup_us": median(hit)}, nil
}

// selforgOps times the maintenance layers on the reformulate mapping
// graph: one Organizer.Round on the reference network (which holds the
// corpus), attribute alignment of two schemas over their shared subjects,
// the Bayesian assessment and the connectivity indicator. It runs last:
// the round publishes mappings into the reference.
func selforgOps(ctx context.Context, ref *reference, w *workload, mappings []schema.Mapping) (map[string]float64, error) {
	corpus := w.corpus
	set := schema.NewMappingSet()
	for _, m := range mappings {
		set.Add(m)
	}
	names := corpus.SchemaNames()
	assess, _ := timeCalls(50, driverBudget, func(int) error {
		bayes.Assess(set, bayes.AssessorConfig{})
		return nil
	})
	indicator, _ := timeCalls(driverCalls, driverBudget, func(int) error {
		graph.ConnectivityIndicatorOf(set.Graph(names))
		return nil
	})

	attrData := func(info bioworkload.SchemaInfo) []align.AttrData {
		byAttr := map[string][]string{}
		for _, t := range corpus.TriplesOf(info.Schema.Name) {
			if _, attr, ok := schema.SplitPredicateURI(t.Predicate); ok {
				byAttr[attr] = append(byAttr[attr], t.Object)
			}
		}
		out := make([]align.AttrData, 0, len(info.Schema.Attributes))
		for _, a := range info.Schema.Attributes {
			out = append(out, align.AttrData{Name: a, Values: byAttr[a]})
		}
		return out
	}
	source, target := attrData(corpus.Schemas[0]), attrData(corpus.Schemas[1])
	aligned, _ := timeCalls(driverCalls, driverBudget, func(int) error {
		align.Align(source, target, align.MatcherConfig{})
		return nil
	})

	if len(w.mappings) == 0 { // the reference of a non-reformulating workload has no mapping graph yet
		b := &mediation.Batch{}
		for _, m := range mappings {
			b.PublishMapping(m)
		}
		if _, err := ref.order[0].Write(ctx, b); err != nil {
			return nil, err
		}
	}
	org, err := selforg.New(ref.order[0], selforg.Config{Domain: corpus.Domain, Rng: rand.New(rand.NewSource(corpusSeed))})
	if err != nil {
		return nil, err
	}
	for _, info := range corpus.Schemas {
		if err := org.RegisterSchema(ctx, info.Schema); err != nil {
			return nil, err
		}
	}
	gathered, err := org.GatherMappings(ctx)
	if err != nil {
		return nil, err
	}
	if err := org.RefreshDegrees(ctx, gathered); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if _, err := org.Round(ctx, corpus.Subjects()); err != nil {
		return nil, err
	}
	round := time.Since(t0)
	return map[string]float64{
		"selforg.round_ms":   ms(round),
		"align.align_us":     median(aligned),
		"bayes.assess_ms":    median(assess) / 1000,
		"graph.indicator_us": median(indicator),
	}, nil
}
