// Package daemon assembles a long-lived gridvined process: a slice of
// the GridVine overlay hosted durably on disk, joined to its sibling
// daemons over TCP, and exposed to thin clients through the wire
// protocol.
//
// Every daemon in a cluster is started with the same (Seed, Peers,
// ReplicaFactor) triple and deterministically rebuilds the identical
// overlay — same peer IDs, paths, routing tables and replica sets —
// then hosts only the peers whose creation index i satisfies
// i % Daemons == Index. The other peers' addresses are learned from
// the address files each daemon publishes under Dir/addrs, so the
// processes rendezvous through the shared cluster directory with no
// coordinator.
//
// Lifecycle discipline (the order is the point):
//
//  1. Open every hosted peer's journal and restore its state BEFORE
//     the peer is reachable from anywhere — a peer must never serve
//     traffic it could lose.
//  2. Bind overlay listeners, reusing the addresses recorded before a
//     restart so sibling daemons' address books stay valid.
//  3. Publish the address file, wait for the siblings', then serve
//     clients.
//  4. On Shutdown, drain wire clients first, then the overlay
//     transport (tcpnet.Close waits for in-flight handlers), then the
//     deliveries between this daemon's own peers, which never touch
//     the transport, and only then snapshot and close each journal —
//     so the final snapshot reflects every acknowledged mutation and
//     the recorded final digests are exactly what a restart must
//     recover.
package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gridvine/internal/mediation"
	"gridvine/internal/pgrid"
	"gridvine/internal/simnet"
	"gridvine/internal/store"
	"gridvine/internal/tcpnet"
	"gridvine/internal/wire"
)

// Config parameterizes one daemon process. Dir, Seed, Peers,
// ReplicaFactor and Daemons must be identical across the cluster;
// Index identifies this process.
type Config struct {
	// Dir is the shared cluster directory: journals live under
	// Dir/data/<peer>, address files under Dir/addrs. Required.
	Dir string
	// Index is this daemon's position in [0, Daemons).
	Index int
	// Daemons is the cluster size; 0 means a single-daemon cluster.
	Daemons int
	// Peers is the total overlay size across all daemons. Required.
	Peers int
	// ReplicaFactor is the overlay replication factor (0 = default 2).
	ReplicaFactor int
	// Seed drives deterministic overlay construction; all daemons must
	// agree on it.
	Seed int64
	// SnapshotEvery is passed to each peer journal (0 = store default).
	SnapshotEvery int
	// ClientAddr is the wire listen address. Empty reuses the address
	// recorded before a restart, falling back to an ephemeral port.
	ClientAddr string
	// PeerWait bounds how long Start waits for sibling daemons'
	// address files (default 30s).
	PeerWait time.Duration
}

// AddrFile is the rendezvous record a daemon publishes under
// Dir/addrs once its listeners are bound: where clients connect and
// where each hosted overlay peer listens.
type AddrFile struct {
	Index      int               `json:"index"`
	ClientAddr string            `json:"client_addr"`
	Peers      map[string]string `json:"peers"`
}

func addrPath(dir string, index int) string {
	return filepath.Join(dir, "addrs", fmt.Sprintf("daemon-%d.json", index))
}

func digestsPath(dir string, index int) string {
	return filepath.Join(dir, "digests", fmt.Sprintf("daemon-%d.json", index))
}

// ReadDigestsFile loads the per-peer store digests daemon index
// recorded during its last clean Shutdown — the cross-process
// counterpart of FinalDigests, used to verify that a restarted daemon
// recovered exactly the state it shut down with.
func ReadDigestsFile(dir string, index int) (map[string]uint64, error) {
	raw, err := os.ReadFile(digestsPath(dir, index))
	if err != nil {
		return nil, err
	}
	var m map[string]uint64
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("daemon: digests file %d: %w", index, err)
	}
	return m, nil
}

// ReadAddrFile loads daemon index's address file from the cluster dir.
func ReadAddrFile(dir string, index int) (*AddrFile, error) {
	raw, err := os.ReadFile(addrPath(dir, index))
	if err != nil {
		return nil, err
	}
	var af AddrFile
	if err := json.Unmarshal(raw, &af); err != nil {
		return nil, fmt.Errorf("daemon: address file %d: %w", index, err)
	}
	return &af, nil
}

// writeAddrFile publishes atomically (tmp + rename) so a concurrently
// polling sibling never observes a half-written file.
func writeAddrFile(dir string, index int, af *AddrFile) error {
	if err := os.MkdirAll(filepath.Join(dir, "addrs"), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(af)
	if err != nil {
		return err
	}
	path := addrPath(dir, index)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// staging implements simnet.Registrar for pgrid.Build without opening
// any sockets: it captures each node's handler so the daemon can bind
// listeners only for the peers it hosts (and only after their journals
// are open). Send calls the handler directly when the destination is a
// peer this daemon hosts and crosses the real TCP transport otherwise.
type staging struct {
	t        *tcpnet.Transport
	handlers map[simnet.PeerID]simnet.Handler

	mu       sync.RWMutex
	hosted   map[simnet.PeerID]simnet.Handler // reachable peers of this daemon
	draining bool
	inflight sync.WaitGroup // local deliveries, for Shutdown to wait on
	local    atomic.Uint64  // local deliveries made
}

func (s *staging) Register(id simnet.PeerID, h simnet.Handler) { s.handlers[id] = h }

// host makes a peer reachable in-process; the daemon calls it where it
// binds the peer's listener, once the journal is recovered.
func (s *staging) host(id simnet.PeerID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hosted[id] = s.handlers[id]
}

// acquire returns the handler of a hosted peer with the delivery already
// counted in inflight, or nil when the message must cross the transport:
// the peer lives elsewhere, or the daemon is draining (the closed
// transport then refuses it).
func (s *staging) acquire(to simnet.PeerID) simnet.Handler {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h := s.hosted[to]
	if h == nil || s.draining {
		return nil
	}
	s.inflight.Add(1)
	return h
}

// drain refuses further local deliveries and waits for the running ones,
// including those whose sender gave up on a fired ctx.
func (s *staging) drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.inflight.Wait()
}

// Send keeps tcpnet.Send's contract on the local path too: a fired ctx
// returns at once, and the handler it leaves behind finishes under
// inflight. A read (pgrid.ReadOnly) is the exception: its handler cannot
// block, so it runs on the caller's goroutine, and a ctx that fires meanwhile
// returns after that one handler. The payload is handed over uncopied, as
// simnet.Network does.
func (s *staging) Send(ctx context.Context, from, to simnet.PeerID, msg simnet.Message) (simnet.Message, error) {
	h := s.acquire(to)
	if h == nil {
		return s.t.Send(ctx, from, to, msg)
	}
	if err := ctx.Err(); err != nil {
		s.inflight.Done()
		return simnet.Message{}, err
	}
	s.local.Add(1)
	if pgrid.ReadOnly(msg) {
		defer s.inflight.Done()
		return h.HandleMessage(from, msg)
	}
	type reply struct {
		msg simnet.Message
		err error
	}
	done := make(chan reply, 1)
	go func() {
		defer s.inflight.Done()
		m, err := h.HandleMessage(from, msg)
		done <- reply{m, err}
	}()
	select {
	case r := <-done:
		return r.msg, r.err
	case <-ctx.Done():
		return simnet.Message{}, ctx.Err()
	}
}

type hostedPeer struct {
	id   string
	peer *mediation.Peer
	log  *store.Log
}

// Daemon is a running gridvined instance: hosted durable peers, the
// overlay transport, and the wire server for thin clients.
type Daemon struct {
	cfg       Config
	transport *tcpnet.Transport
	stage     *staging
	server    *wire.Server
	ln        net.Listener
	hosted    []hostedPeer
	recovered map[string]uint64
	final     map[string]uint64
	serveDone chan struct{}
}

// Start brings a daemon up: deterministic overlay build, journal
// recovery, listener binding, address-file rendezvous, wire serving.
// On error everything already opened is torn down.
func Start(cfg Config) (*Daemon, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("daemon: Dir is required")
	}
	if cfg.Daemons <= 0 {
		cfg.Daemons = 1
	}
	if cfg.Index < 0 || cfg.Index >= cfg.Daemons {
		return nil, fmt.Errorf("daemon: Index %d outside [0,%d)", cfg.Index, cfg.Daemons)
	}
	if cfg.Peers <= 0 {
		return nil, fmt.Errorf("daemon: Peers must be positive, got %d", cfg.Peers)
	}
	if cfg.PeerWait <= 0 {
		cfg.PeerWait = 30 * time.Second
	}

	t := tcpnet.NewTransport()
	stage := &staging{
		t:        t,
		handlers: map[simnet.PeerID]simnet.Handler{},
		hosted:   map[simnet.PeerID]simnet.Handler{},
	}
	ov, err := pgrid.Build(stage, pgrid.BuildOptions{
		Peers:         cfg.Peers,
		ReplicaFactor: cfg.ReplicaFactor,
		Rng:           rand.New(rand.NewSource(cfg.Seed)),
	})
	if err != nil {
		return nil, err
	}

	d := &Daemon{
		cfg:       cfg,
		transport: t,
		stage:     stage,
		recovered: map[string]uint64{},
		serveDone: make(chan struct{}),
	}
	fail := func(err error) (*Daemon, error) {
		t.Close()
		stage.drain()
		for _, h := range d.hosted {
			h.log.Close() //nolint:errcheck
		}
		return nil, err
	}

	// Previous incarnation's addresses, for port reuse across restarts.
	prev, _ := ReadAddrFile(cfg.Dir, cfg.Index)

	for i, node := range ov.Nodes() {
		if i%cfg.Daemons != cfg.Index {
			continue
		}
		id := string(node.ID())
		l, rec, err := store.Open(store.OsFS{}, filepath.Join(cfg.Dir, "data", id),
			store.Options{SnapshotEvery: cfg.SnapshotEvery})
		if err != nil {
			return fail(fmt.Errorf("daemon %d: open journal for %s: %w", cfg.Index, id, err))
		}
		p, err := mediation.NewDurablePeer(node, l, rec)
		if err != nil {
			l.Close() //nolint:errcheck
			return fail(fmt.Errorf("daemon %d: restore %s: %w", cfg.Index, id, err))
		}
		d.recovered[id] = node.ContentDigest()

		// Recovery done — only now may the peer become reachable. Reuse
		// the pre-restart address so sibling address books stay valid;
		// if someone else grabbed the port, fall back to ephemeral
		// (siblings then reach this peer only after their own restart —
		// the overlay's degraded paths cover the gap).
		addr := "127.0.0.1:0"
		if prev != nil && prev.Peers[id] != "" {
			addr = prev.Peers[id]
		}
		if _, err := t.RegisterOn(node.ID(), addr, stage.handlers[node.ID()]); err != nil {
			if addr == "127.0.0.1:0" {
				l.Close() //nolint:errcheck
				return fail(fmt.Errorf("daemon %d: listen for %s: %w", cfg.Index, id, err))
			}
			if _, err := t.RegisterOn(node.ID(), "127.0.0.1:0", stage.handlers[node.ID()]); err != nil {
				l.Close() //nolint:errcheck
				return fail(fmt.Errorf("daemon %d: listen for %s: %w", cfg.Index, id, err))
			}
		}
		stage.host(node.ID())
		d.hosted = append(d.hosted, hostedPeer{id: id, peer: p, log: l})
	}
	if len(d.hosted) == 0 {
		return fail(fmt.Errorf("daemon %d: hosts no peers (%d peers / %d daemons)",
			cfg.Index, cfg.Peers, cfg.Daemons))
	}
	// Every hosted peer is recovered and reachable in-process: each routes
	// to the others first, so a key whose leaf has a replica here is
	// answered without crossing the transport.
	nodes := make([]*pgrid.Node, len(d.hosted))
	for i, h := range d.hosted {
		nodes[i] = h.peer.Node()
	}
	for _, n := range nodes {
		n.SetCoHosted(nodes)
	}

	// Client listener, same reuse discipline as the peer sockets.
	caddr := cfg.ClientAddr
	if caddr == "" && prev != nil {
		caddr = prev.ClientAddr
	}
	if caddr == "" {
		caddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", caddr)
	if err != nil {
		if cfg.ClientAddr != "" {
			return fail(fmt.Errorf("daemon %d: client listen on %s: %w", cfg.Index, caddr, err))
		}
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return fail(fmt.Errorf("daemon %d: client listen: %w", cfg.Index, err))
		}
	}
	d.ln = ln

	af := AddrFile{Index: cfg.Index, ClientAddr: ln.Addr().String(), Peers: map[string]string{}}
	for _, h := range d.hosted {
		af.Peers[h.id] = t.Addr(simnet.PeerID(h.id))
	}
	if err := writeAddrFile(cfg.Dir, cfg.Index, &af); err != nil {
		ln.Close() //nolint:errcheck
		return fail(fmt.Errorf("daemon %d: publish addresses: %w", cfg.Index, err))
	}

	// Rendezvous: learn where every sibling's peers listen. Files from
	// a previous run are fine — a restarting sibling rebinds the same
	// ports.
	deadline := time.Now().Add(cfg.PeerWait)
	for j := 0; j < cfg.Daemons; j++ {
		if j == cfg.Index {
			continue
		}
		for {
			f, err := ReadAddrFile(cfg.Dir, j)
			if err == nil {
				for id, a := range f.Peers {
					t.AddPeer(simnet.PeerID(id), a)
				}
				break
			}
			if time.Now().After(deadline) {
				ln.Close() //nolint:errcheck
				return fail(fmt.Errorf("daemon %d: timed out waiting for daemon %d's address file", cfg.Index, j))
			}
			time.Sleep(25 * time.Millisecond)
		}
	}

	hosted := make([]wire.Hosted, len(d.hosted))
	for i, h := range d.hosted {
		hosted[i] = wire.Hosted{Peer: h.peer, Digest: h.peer.Node().ContentDigest, WALSeq: h.log.Seq}
	}
	d.server = wire.NewServer(cfg.Index, hosted)
	d.server.SetOverlayStats(d.overlayStats)
	go func() {
		d.server.Serve(ln)
		close(d.serveDone)
	}()
	return d, nil
}

// Shutdown drains and persists in strict order: wire clients first
// (in-flight queries and Receipts complete), then the overlay
// transport (no handler invoked over a socket survives its Close), then
// the local deliveries (a handler running on behalf of a hosted peer
// whose sender's ctx fired may still be mutating a store), then a final
// snapshot and close of each journal. FinalDigests is recorded between
// the last mutation and the journal close, so a restart that recovers
// digest-identical state proves no acknowledged write was lost. ctx
// bounds the drain; on expiry in-flight work is hard-cancelled and
// ctx.Err() is returned, but snapshots are still taken.
func (d *Daemon) Shutdown(ctx context.Context) error {
	firstErr := d.server.Shutdown(ctx)
	// The server closes the listener only once Serve has stored it; a
	// Shutdown right behind Start can come first.
	d.ln.Close() //nolint:errcheck // usually closed already
	<-d.serveDone
	d.transport.Close()
	d.stage.drain()
	d.final = map[string]uint64{}
	for _, h := range d.hosted {
		if err := h.log.Snapshot(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("daemon %d: final snapshot for %s: %w", d.cfg.Index, h.id, err)
		}
		d.final[h.id] = h.peer.Node().ContentDigest()
		if err := h.log.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("daemon %d: close journal for %s: %w", d.cfg.Index, h.id, err)
		}
	}
	// Persist the final digests so an out-of-process observer (the ops
	// tool, the cluster experiment) can verify a later restart against
	// what this incarnation shut down with.
	if err := writeDigestsFile(d.cfg.Dir, d.cfg.Index, d.final); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("daemon %d: record shutdown digests: %w", d.cfg.Index, err)
	}
	return firstErr
}

func writeDigestsFile(dir string, index int, digests map[string]uint64) error {
	if err := os.MkdirAll(filepath.Join(dir, "digests"), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(digests)
	if err != nil {
		return err
	}
	path := digestsPath(dir, index)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// overlayStats snapshots where this daemon's overlay messages went: over
// the transport (and what its connection pool did with them) or straight
// to a hosted peer's handler.
func (d *Daemon) overlayStats() wire.OverlayStats {
	sends, _ := d.transport.Stats()
	ps := d.transport.PoolStats()
	return wire.OverlayStats{
		Sends:           uint64(sends),
		LocalDeliveries: d.stage.local.Load(),
		PoolDials:       ps.Dials,
		PoolReuses:      ps.Reuses,
		PoolRedials:     ps.Redials,
		PoolIdle:        ps.Idle,
	}
}

// ClientAddr returns the wire protocol listen address.
func (d *Daemon) ClientAddr() string { return d.ln.Addr().String() }

// Index returns the daemon's cluster index.
func (d *Daemon) Index() int { return d.cfg.Index }

// PeerIDs returns the hosted peers in overlay creation order.
func (d *Daemon) PeerIDs() []string {
	ids := make([]string, len(d.hosted))
	for i, h := range d.hosted {
		ids[i] = h.id
	}
	return ids
}

// RecoveredDigests returns each hosted peer's store content digest as
// recovered at Start, before the peer served any traffic.
func (d *Daemon) RecoveredDigests() map[string]uint64 {
	out := make(map[string]uint64, len(d.recovered))
	for k, v := range d.recovered {
		out[k] = v
	}
	return out
}

// FinalDigests returns each hosted peer's store content digest as
// captured during Shutdown, after the drain and final snapshot. Valid
// only after Shutdown returned.
func (d *Daemon) FinalDigests() map[string]uint64 {
	out := make(map[string]uint64, len(d.final))
	for k, v := range d.final {
		out[k] = v
	}
	return out
}
