package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"gridvine/internal/daemon"
	"gridvine/internal/mediation"
	"gridvine/internal/pgrid"
	"gridvine/internal/simnet"
	"gridvine/internal/triple"
	"gridvine/internal/wire"
)

// endpoint is what the load generator needs from a serving stack: one wire
// connection per daemon and the peers each daemon hosts. The gated cluster
// (daemon.Start) and the traced stack both provide it.
type endpoint struct {
	clients []*wire.Client
	peerIDs [][]string // per daemon, in overlay creation order
	// parallelism is put on every request (SearchOptions.Parallelism,
	// Write.Parallelism): 0, the engine's default, on the gated cluster; 1
	// on the traced stack, so that spans nest strictly.
	parallelism int
}

func (e *endpoint) closeClients() {
	for _, c := range e.clients {
		if c != nil {
			c.Close() //nolint:errcheck // read side only; the daemons drain themselves
		}
	}
	e.clients = nil
}

func dialAll(addrs []string) ([]*wire.Client, error) {
	out := make([]*wire.Client, len(addrs))
	for i, a := range addrs {
		c, err := wire.Dial(a)
		if err != nil {
			for _, open := range out[:i] {
				open.Close() //nolint:errcheck
			}
			return nil, fmt.Errorf("dial daemon %d: %w", i, err)
		}
		out[i] = c
	}
	return out, nil
}

// cluster is the system under test: clusterDaemons daemon.Start daemons in
// this process, real loopback TCP for wire and tcpnet, real-fsync WAL under
// dir, driven only through wire clients.
type cluster struct {
	endpoint
	dir     string
	daemons []*daemon.Daemon
	startMs float64
	stopped bool
}

func startDaemons(dir string) ([]*daemon.Daemon, error) {
	type started struct {
		d   *daemon.Daemon
		err error
	}
	// The daemons rendezvous through address files, so they must start
	// concurrently, as separate gridvined processes would.
	ch := make(chan started, clusterDaemons)
	for i := 0; i < clusterDaemons; i++ {
		go func(i int) {
			d, err := daemon.Start(daemon.Config{
				Dir: dir, Index: i, Daemons: clusterDaemons,
				Peers: clusterPeers, ReplicaFactor: replicaFactor, Seed: corpusSeed,
			})
			ch <- started{d, err}
		}(i)
	}
	ds := make([]*daemon.Daemon, clusterDaemons)
	var firstErr error
	for i := 0; i < clusterDaemons; i++ {
		s := <-ch
		if s.err != nil {
			if firstErr == nil {
				firstErr = s.err
			}
			continue
		}
		ds[s.d.Index()] = s.d
	}
	if firstErr != nil {
		shutdownDaemons(ds) //nolint:errcheck // the start error is the one to report
		return nil, firstErr
	}
	return ds, nil
}

func shutdownDaemons(ds []*daemon.Daemon) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var firstErr error
	for _, d := range ds {
		if d == nil {
			continue
		}
		if err := d.Shutdown(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func startCluster(dir string) (*cluster, error) {
	t0 := time.Now()
	ds, err := startDaemons(dir)
	if err != nil {
		return nil, err
	}
	c := &cluster{dir: dir, daemons: ds, startMs: ms(time.Since(t0))}
	addrs := make([]string, len(ds))
	for i, d := range ds {
		addrs[i] = d.ClientAddr()
		c.peerIDs = append(c.peerIDs, d.PeerIDs())
	}
	if c.clients, err = dialAll(addrs); err != nil {
		shutdownDaemons(ds) //nolint:errcheck
		return nil, err
	}
	return c, nil
}

// stop closes the clients and shuts the daemons down; it returns how long
// the shutdown (drain, final snapshots, digests) took.
func (c *cluster) stop() (shutdownMs float64, err error) {
	if c.stopped {
		return 0, nil
	}
	c.stopped = true
	c.closeClients()
	t0 := time.Now()
	err = shutdownDaemons(c.daemons)
	return ms(time.Since(t0)), err
}

// restartCheck shuts the cluster down, starts it again from the same dir
// and verifies that every daemon recovered exactly the digests it shut
// down with and that the sampled acked writes read back.
func (c *cluster) restartCheck(ctx context.Context, acked [][]triple.Triple) error {
	if _, err := c.stop(); err != nil {
		return fmt.Errorf("shutdown before restart: %w", err)
	}
	final := make([]map[string]uint64, len(c.daemons))
	for i, d := range c.daemons {
		final[i] = d.FinalDigests()
	}
	again, err := startCluster(c.dir)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	*c = *again
	for i, d := range c.daemons {
		rec := d.RecoveredDigests()
		if len(rec) != len(final[i]) {
			return fmt.Errorf("restart: daemon %d recovered %d peers, shut down with %d", i, len(rec), len(final[i]))
		}
		for id, want := range final[i] {
			if rec[id] != want {
				return fmt.Errorf("restart: daemon %d peer %s recovered digest %x, shut down with %x", i, id, rec[id], want)
			}
		}
	}
	for i, ts := range acked {
		pat := triple.Pattern{S: triple.Const(ts[0].Subject), P: triple.Var("p"), O: triple.Var("o")}
		rows, _, err := wireRows(ctx, c.clients[i%len(c.clients)], wire.Query{Pattern: &pat})
		if err != nil {
			return fmt.Errorf("restart: read back %s: %w", ts[0].Subject, err)
		}
		got := map[string]bool{}
		for _, r := range rows {
			got[rowKey(r)] = true
		}
		for _, t := range ts {
			if !got[rowKey([]string{t.Predicate, t.Object})] {
				return fmt.Errorf("restart: acked write %v not readable", t)
			}
		}
	}
	return nil
}

// reference is the in-process oracle: the identical overlay (same seed,
// same build path as gridvined) over simnet, fed the identical preload
// through the identical issuing peers. It is deterministic, so one serves
// every set-up of a run.
type reference struct {
	peers map[string]*mediation.Peer
	order []*mediation.Peer
}

// newOverlay builds the empty in-process overlay.
func newOverlay() (*reference, error) {
	ov, err := pgrid.Build(simnet.NewNetwork(), pgrid.BuildOptions{
		Peers: clusterPeers, ReplicaFactor: replicaFactor,
		Rng: rand.New(rand.NewSource(corpusSeed)),
	})
	if err != nil {
		return nil, fmt.Errorf("reference overlay: %w", err)
	}
	ref := &reference{peers: map[string]*mediation.Peer{}}
	for _, node := range ov.Nodes() {
		p := mediation.NewPeer(node)
		ref.peers[string(node.ID())] = p
		ref.order = append(ref.order, p)
	}
	return ref, nil
}

// peerIDs lists the reference's peers the way the daemons host them: peer i
// on daemon i % clusterDaemons.
func (r *reference) peerIDs() [][]string {
	ids := make([][]string, clusterDaemons)
	for i, p := range r.order {
		ids[i%clusterDaemons] = append(ids[i%clusterDaemons], string(p.Node().ID()))
	}
	return ids
}

// newReference builds the overlay and applies the preload to it.
func newReference(ctx context.Context, w *workload) (*reference, error) {
	ref, err := newOverlay()
	if err != nil {
		return nil, err
	}
	ids := ref.peerIDs()
	for n, wr := range preloadWrites(w) {
		_, peer := issuer(ids, n)
		b := &mediation.Batch{}
		for _, s := range wr.Schemas {
			b.PublishSchema(s)
		}
		for _, t := range wr.Inserts {
			b.InsertTriple(t)
		}
		for _, m := range wr.Mappings {
			b.PublishMapping(m)
		}
		rec, err := ref.peers[peer].Write(ctx, b)
		if err != nil {
			return nil, fmt.Errorf("reference preload via %s: %w", peer, err)
		}
		if rec.Applied != b.Len() {
			return nil, fmt.Errorf("reference preload via %s: applied %d of %d", peer, rec.Applied, b.Len())
		}
	}
	return ref, nil
}

// issuer picks the daemon and hosted peer that request number n goes
// through: the daemons in turn, each daemon's peers in turn.
func issuer(peerIDs [][]string, n int) (daemon int, peer string) {
	daemon = n % len(peerIDs)
	hosted := peerIDs[daemon]
	return daemon, hosted[(n/len(peerIDs))%len(hosted)]
}

// preloadWrites is the corpus as the writes that load it: the schemas,
// the triples in preloadBatch batches, then the workload's mappings.
func preloadWrites(w *workload) []wire.Write {
	var schemas wire.Write
	for _, info := range w.corpus.Schemas {
		schemas.Schemas = append(schemas.Schemas, info.Schema)
	}
	out := []wire.Write{schemas}
	ts := w.corpus.Triples()
	for lo := 0; lo < len(ts); lo += preloadBatch {
		out = append(out, wire.Write{Inserts: ts[lo:min(lo+preloadBatch, len(ts))]})
	}
	if len(w.mappings) > 0 {
		out = append(out, wire.Write{Mappings: w.mappings})
	}
	return out
}

// preload writes the corpus into ep over the wire; every batch must be
// acknowledged as fully applied.
func preload(ctx context.Context, ep *endpoint, w *workload) error {
	for n, wr := range preloadWrites(w) {
		d, peer := issuer(ep.peerIDs, n)
		wr.Peer = peer
		want := len(wr.Inserts) + len(wr.Schemas) + len(wr.Mappings)
		rec, err := ep.clients[d].Write(ctx, wr)
		if err != nil {
			return fmt.Errorf("preload via %s: %w", peer, err)
		}
		if rec.Applied != want {
			return fmt.Errorf("preload via %s: applied %d of %d", peer, rec.Applied, want)
		}
	}
	return nil
}

// wireRows runs one query to the end and returns its rows and columns.
func wireRows(ctx context.Context, c *wire.Client, q wire.Query) (rows [][]string, cols []string, err error) {
	cur, err := c.Query(ctx, q)
	if err != nil {
		return nil, nil, err
	}
	for {
		row, ok := cur.Next(ctx)
		if !ok {
			break
		}
		rows = append(rows, row)
	}
	if err := cur.Close(); err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return rows, cur.Columns(), nil
}

func sortedKeys(rows [][]string) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = rowKey(r)
	}
	sort.Strings(keys)
	return keys
}

func sameRows(a, b [][]string) bool {
	ka, kb := sortedKeys(a), sortedKeys(b)
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// checkPhase runs every pool query once over the wire and once on the
// reference, through the same issuing peer. Rows must be identical. It
// stores the wire rows in the pool (the closed loop checks row counts
// against them) and returns recall, the mean over the pool of
// |returned ∩ ground truth| ÷ |ground truth|.
func checkPhase(ctx context.Context, ep *endpoint, ref *reference, w *workload) (recall float64, err error) {
	sum := 0.0
	for i := range w.pool {
		pq := &w.pool[i]
		q := pq.query
		var d int
		d, q.Peer = issuer(ep.peerIDs, i)
		rows, cols, err := wireRows(ctx, ep.clients[d], q)
		if err != nil {
			return 0, fmt.Errorf("check query %d via %s: %w", i, q.Peer, err)
		}
		cur, err := ref.peers[q.Peer].Query(ctx, mediation.Request{
			Pattern: q.Pattern, RDQL: q.RDQL, Reformulate: q.Reformulate, Options: q.Options,
		})
		if err != nil {
			return 0, fmt.Errorf("reference query %d via %s: %w", i, q.Peer, err)
		}
		var refRows [][]string
		var refTriples []triple.Triple
		for {
			row, ok := cur.Next(ctx)
			if !ok {
				break
			}
			refRows = append(refRows, row.Values)
			if row.Result != nil {
				refTriples = append(refTriples, row.Result.Triple)
			}
		}
		if err := cur.Close(); err != nil {
			return 0, fmt.Errorf("reference query %d via %s: %w", i, q.Peer, err)
		}
		if !sameRows(rows, refRows) {
			return 0, fmt.Errorf("wrong answer: check query %d via %s: %d rows over the wire, %d in-process, or different content",
				i, q.Peer, len(rows), len(refRows))
		}
		pq.rows, pq.cols = rows, cols

		var r float64
		if pq.bio != nil {
			// The wire rows carry only ?x; the identical in-process answer
			// carries the matched triples, which is what ground truth is in.
			r = pq.bio.Recall(refTriples)
		} else {
			hit := map[string]struct{}{}
			for _, row := range rows {
				k := rowKey(row)
				if _, ok := pq.truth[k]; ok {
					hit[k] = struct{}{}
				}
			}
			r = float64(len(hit)) / float64(len(pq.truth))
			if len(hit) != len(pq.truth) || len(rows) != len(pq.truth) {
				return 0, fmt.Errorf("wrong answer: check query %d via %s: %d rows, %d of %d expected rows present",
					i, q.Peer, len(rows), len(hit), len(pq.truth))
			}
		}
		sum += r
	}
	return sum / float64(len(w.pool)), nil
}

// setup is one full set-up: fresh dir, daemons up, clients dialled, corpus
// preloaded and acked, check phase passed against ref.
type setup struct {
	cluster *cluster
	recall  float64
	seconds float64
}

func runSetup(ctx context.Context, root string, w *workload, ref *reference) (*setup, error) {
	t0 := time.Now()
	dir, err := os.MkdirTemp(root, "cluster-*")
	if err != nil {
		return nil, err
	}
	c, err := startCluster(dir)
	if err != nil {
		return nil, err
	}
	if fmt.Sprint(c.peerIDs) != fmt.Sprint(ref.peerIDs()) {
		err = fmt.Errorf("cluster hosts %v, the same-seed reference %v", c.peerIDs, ref.peerIDs())
	}
	if err == nil {
		err = preload(ctx, &c.endpoint, w)
	}
	var recall float64
	if err == nil {
		recall, err = checkPhase(ctx, &c.endpoint, ref, w)
	}
	if err != nil {
		c.stop() //nolint:errcheck // the set-up error is the one to report
		return nil, err
	}
	return &setup{cluster: c, recall: recall, seconds: time.Since(t0).Seconds()}, nil
}
