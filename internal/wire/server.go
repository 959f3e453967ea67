package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gridvine/internal/mediation"
)

// Hosted is one peer a Server exposes, plus the daemon-level probes
// the dump surface needs (nil probes report zero).
type Hosted struct {
	Peer *mediation.Peer
	// Digest returns the peer's order-independent store content digest
	// (pgrid.Node.ContentDigest) — the restart-equivalence fingerprint.
	Digest func() uint64
	// WALSeq returns the peer journal's durable sequence number.
	WALSeq func() uint64
}

// Options tunes a server's connection handling.
type Options struct {
	// MaxConns caps concurrently served client connections. A connection
	// accepted past the cap is turned away with a connection-level error
	// frame (a Trailer with ID 0) and closed; connections already being
	// served are unaffected. 0 means unlimited.
	MaxConns int
}

// Server speaks the wire protocol on behalf of a set of hosted
// mediation peers. All engine work runs server-side. Each admitted
// Query/Write frame is handed to an idle worker goroutine, or to a new
// one when none is idle; a worker serves requests one after another, so
// the stack an engine grew stays grown for the next. Each request gets
// its own engine context, cancelled by a Cancel frame, a connection
// loss, or server shutdown.
type Server struct {
	daemon  int
	opts    Options
	hosted  map[string]Hosted
	order   []string
	started time.Time
	overlay func() OverlayStats // nil: Stats reports no overlay counters

	baseCtx   context.Context
	cancelAll context.CancelFunc

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining bool
	reqs     sync.WaitGroup // in-flight Query/Write handlers
	connWg   sync.WaitGroup // connection read loops

	// Workers: work is the unbuffered hand-over to an idle worker, idle
	// counts the workers committed to receive from it (at most idleCap,
	// GOMAXPROCS when the server was built), and spawned counts the
	// workers ever started. Shutdown closes work once no request can be
	// admitted.
	work      chan job
	idle      atomic.Int64
	idleCap   int64
	spawned   atomic.Uint64
	workers   sync.WaitGroup
	closeWork sync.Once

	rr            atomic.Uint64
	activeQueries atomic.Int64
	activeWrites  atomic.Int64
	queriesServed atomic.Uint64
	writesServed  atomic.Uint64
	rowsStreamed  atomic.Uint64
	connsRejected atomic.Uint64
	framesIn      atomic.Uint64
	framesOut     atomic.Uint64
	bytesIn       atomic.Uint64
	bytesOut      atomic.Uint64
	badFrames     atomic.Uint64
}

// NewServer builds a server over the given hosted peers with default
// options. daemon is the daemon's cluster index, reported in stats.
func NewServer(daemon int, hosted []Hosted) *Server {
	return NewServerOptions(daemon, hosted, Options{})
}

// NewServerOptions builds a server over the given hosted peers.
func NewServerOptions(daemon int, hosted []Hosted, opts Options) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		daemon:    daemon,
		opts:      opts,
		hosted:    make(map[string]Hosted, len(hosted)),
		started:   time.Now(),
		baseCtx:   ctx,
		cancelAll: cancel,
		conns:     map[net.Conn]struct{}{},
		work:      make(chan job),
		idleCap:   int64(runtime.GOMAXPROCS(0)),
	}
	for _, h := range hosted {
		id := string(h.Peer.Node().ID())
		s.hosted[id] = h
		s.order = append(s.order, id)
	}
	return s
}

// SetOverlayStats gives the server the source of DaemonStats.Overlay —
// the transport counters live with whoever assembled the peers, not with
// the server. Call it before Serve.
func (s *Server) SetOverlayStats(fn func() OverlayStats) { s.overlay = fn }

// Serve accepts connections on ln until the listener closes (Shutdown
// closes it). It returns after the accept loop exits; connection read
// loops keep running until Shutdown reaps them.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			c.Close()
			continue
		}
		if s.opts.MaxConns > 0 && len(s.conns) >= s.opts.MaxConns {
			s.connsRejected.Add(1)
			s.mu.Unlock()
			// Turn the connection away off the accept loop so a slow
			// rejected client cannot stall admission of others.
			go rejectConn(c)
			continue
		}
		s.conns[c] = struct{}{}
		s.connWg.Add(1)
		s.mu.Unlock()
		go s.serveConn(c)
	}
}

// Shutdown drains the server: stop accepting connections and new
// requests, wait for every in-flight Query stream and Write to finish
// (their frames flushed), then hard-cancel anything still running when
// ctx fires. It returns, with every worker gone, nil on a clean drain,
// ctx.Err() if the drain was cut short.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.reqs.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancelAll()
		<-done
	}

	// In-flight work is gone; tear down the connections so read loops
	// exit, and cancel the base context for good measure.
	s.cancelAll()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.connWg.Wait()

	// Every admitted request has finished, so no dispatch is left to
	// hand over: release the idle workers and wait for them to exit.
	s.closeWork.Do(func() { close(s.work) })
	s.workers.Wait()
	return err
}

// rejectConn tells a turned-away client why before hanging up: a
// connection-level Trailer (ID 0, which no request ever uses) whose
// error the client surfaces as the connection failure. Best-effort —
// the deadline keeps an unread socket from pinning the goroutine.
func rejectConn(c net.Conn) {
	if buf, err := EncodeFrame(TTrailer, &Trailer{Err: "wire: connection limit reached"}); err == nil {
		c.SetWriteDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
		c.Write(buf)                                        //nolint:errcheck
	}
	c.Close()
}

// beginReq registers an in-flight request unless the server is
// draining. The draining check and the WaitGroup Add share the mutex
// so no request can slip in after Shutdown started waiting.
func (s *Server) beginReq() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.reqs.Add(1)
	return true
}

// job is one admitted request for a worker: a Query or a Write.
type job struct {
	sc *srvConn
	q  *Query
	w  *Write
}

// dispatch hands an admitted request to an idle worker, or starts a
// worker for it when none is idle. Concurrency is as unbounded as one
// goroutine per request; a claimed worker is already on its way to the
// receive, so the hand-over waits for nothing else.
func (s *Server) dispatch(j job) {
	for {
		n := s.idle.Load()
		if n == 0 {
			s.spawned.Add(1)
			s.workers.Add(1)
			go s.worker(j)
			return
		}
		if s.idle.CompareAndSwap(n, n-1) {
			s.work <- j
			return
		}
	}
}

// worker serves j, then the requests handed to it while it idles. It
// exits when idleCap workers are already idle, or when Shutdown closes
// the hand-over.
func (s *Server) worker(j job) {
	defer s.workers.Done()
	for {
		if j.q != nil {
			j.sc.handleQuery(j.q)
		} else {
			j.sc.handleWrite(j.w)
		}
		if !s.park() {
			return
		}
		var ok bool
		if j, ok = <-s.work; !ok {
			return
		}
	}
}

// park counts a worker that finished its request as idle, unless idleCap
// workers already are: false means the worker should exit.
func (s *Server) park() bool {
	for {
		n := s.idle.Load()
		if n >= s.idleCap {
			return false
		}
		if s.idle.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// pick resolves a request's peer selector: a hosted peer ID, or empty
// for round-robin over the hosted set.
func (s *Server) pick(id string) (Hosted, error) {
	if id == "" {
		n := s.rr.Add(1)
		return s.hosted[s.order[int(n)%len(s.order)]], nil
	}
	h, ok := s.hosted[id]
	if !ok {
		return Hosted{}, fmt.Errorf("wire: peer %q not hosted here", id)
	}
	return h, nil
}

// srvConn is one client connection's server-side state: the context
// every request's engine context derives from, a write mutex serialising
// response frames and the in-flight request registry the Cancel frames
// act on.
type srvConn struct {
	s   *Server
	c   net.Conn
	ctx context.Context // cancelled when the connection is gone

	wmu sync.Mutex

	mu       sync.Mutex
	inflight map[uint64]context.CancelFunc
}

func (s *Server) serveConn(c net.Conn) {
	defer s.connWg.Done()
	ctx, cancel := context.WithCancel(s.baseCtx)
	sc := &srvConn{s: s, c: c, ctx: ctx, inflight: map[uint64]context.CancelFunc{}}
	defer func() {
		// Connection gone: cancel everything it had in flight so
		// abandoned engines stop promptly.
		cancel()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()

	br := bufio.NewReaderSize(c, 64<<10)
	for {
		_, msg, n, err := readFrame(br)
		if err != nil {
			if errors.Is(err, ErrBadFrame) {
				s.badFrames.Add(1)
			}
			return
		}
		s.framesIn.Add(1)
		s.bytesIn.Add(uint64(n))
		switch m := msg.(type) {
		case *Query:
			if !s.beginReq() {
				sc.send(TTrailer, &Trailer{ID: m.ID, Err: "wire: server draining"})
				continue
			}
			s.dispatch(job{sc: sc, q: m})
		case *Write:
			if !s.beginReq() {
				sc.send(TReceipt, &Receipt{ID: m.ID, Err: "wire: server draining"})
				continue
			}
			s.dispatch(job{sc: sc, w: m})
		case *Cancel:
			sc.mu.Lock()
			if cancel, ok := sc.inflight[m.ID]; ok {
				cancel()
			}
			sc.mu.Unlock()
		case *StatsReq:
			sc.send(TStats, sc.s.statsSnapshot(m.ID))
		case *DumpReq:
			sc.send(TDump, sc.s.dump(m))
		default:
			// Server-bound connections must not carry response frames;
			// drop the connection rather than guess.
			return
		}
	}
}

// send encodes and writes one frame under the connection's write
// mutex, so concurrently streaming requests interleave whole frames.
func (sc *srvConn) send(t Type, msg any) error {
	buf, err := EncodeFrame(t, msg)
	if err != nil {
		return err
	}
	sc.s.framesOut.Add(1)
	sc.s.bytesOut.Add(uint64(len(buf)))
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	_, err = sc.c.Write(buf)
	return err
}

// track registers a request's engine cancel func; the returned func
// unregisters and cancels it.
func (sc *srvConn) track(id uint64, cancel context.CancelFunc) func() {
	sc.mu.Lock()
	sc.inflight[id] = cancel
	sc.mu.Unlock()
	return func() {
		sc.mu.Lock()
		delete(sc.inflight, id)
		sc.mu.Unlock()
		cancel()
	}
}

func (sc *srvConn) handleQuery(q *Query) {
	s := sc.s
	defer s.reqs.Done()
	s.activeQueries.Add(1)
	defer s.activeQueries.Add(-1)
	defer s.queriesServed.Add(1)

	h, err := s.pick(q.Peer)
	if err != nil {
		sc.send(TTrailer, &Trailer{ID: q.ID, Err: err.Error()})
		return
	}
	ctx, cancel := context.WithCancel(sc.ctx)
	defer sc.track(q.ID, cancel)()

	// The engine runs on this goroutine, one frame per hand-over: rows leave
	// as early as the engine lets go of them, and the first frame names the
	// columns.
	var rows [][]string // reused: send has encoded a chunk before the next is built
	gone := false
	tr := trailer(h.Peer.Run(ctx, mediation.Request{
		Pattern:     q.Pattern,
		Patterns:    q.Patterns,
		RDQL:        q.RDQL,
		Reformulate: q.Reformulate,
		Limit:       q.Limit,
		Options:     q.Options,
	}, func(handed []mediation.QueryRow, cols []string) bool {
		chunk := &RowChunk{ID: q.ID}
		if rows == nil {
			chunk.Columns = cols
		}
		rows = slices.Grow(rows[:0], len(handed))
		for _, row := range handed {
			rows = append(rows, row.Values)
		}
		chunk.Rows = rows
		s.rowsStreamed.Add(uint64(len(rows)))
		gone = sc.send(TRowChunk, chunk) != nil
		return !gone
	}))
	if !gone {
		tr.ID = q.ID
		sc.send(TTrailer, tr)
	}
}

// trailer is the Trailer of a query's outcome, ID aside. It is out of
// handleQuery's frame, which sits under the whole engine: a worker started
// when none was idle grows its small stack through that frame.
func trailer(cols []string, st mediation.QueryStats, err error) *Trailer {
	tr := &Trailer{
		Columns: cols,
		Stats: Stats{
			Rows:           st.Rows,
			Messages:       st.Messages,
			Reformulations: st.Reformulations,
			Degraded:       st.Degraded,
			FirstRowMicros: st.FirstRow.Microseconds(),
			ElapsedMicros:  st.Elapsed.Microseconds(),
		},
	}
	if err != nil {
		tr.Err = err.Error()
	}
	return tr
}

func (sc *srvConn) handleWrite(w *Write) {
	s := sc.s
	defer s.reqs.Done()
	s.activeWrites.Add(1)
	defer s.activeWrites.Add(-1)
	defer s.writesServed.Add(1)

	h, err := s.pick(w.Peer)
	if err != nil {
		sc.send(TReceipt, &Receipt{ID: w.ID, Err: err.Error()})
		return
	}
	ctx, cancel := context.WithCancel(sc.ctx)
	defer sc.track(w.ID, cancel)()

	rec, err := h.Peer.Write(ctx, batchOf(w))
	out := &Receipt{ID: w.ID, Applied: rec.Applied, Failed: rec.Failed, Skipped: rec.Skipped,
		Groups: rec.Groups, Messages: rec.Route.Messages}
	if err != nil {
		out.Err = err.Error()
	}
	for _, e := range rec.Entries {
		if e.Err != nil && len(out.EntryErrs) < 8 {
			out.EntryErrs = append(out.EntryErrs, e.Err.Error())
		}
	}
	sc.send(TReceipt, out)
}

// batchOf is the engine batch a Write frame asks for.
func batchOf(w *Write) *mediation.Batch {
	b := &mediation.Batch{Parallelism: w.Parallelism}
	for _, t := range w.Inserts {
		b.InsertTriple(t)
	}
	for _, t := range w.Deletes {
		b.DeleteTriple(t)
	}
	for _, sch := range w.Schemas {
		b.PublishSchema(sch)
	}
	for _, m := range w.Mappings {
		b.PublishMapping(m)
	}
	return b
}

func (s *Server) statsSnapshot(id uint64) *DaemonStats {
	s.mu.Lock()
	draining := s.draining
	activeConns := len(s.conns)
	s.mu.Unlock()
	out := &DaemonStats{
		ID:            id,
		Daemon:        s.daemon,
		Peers:         append([]string(nil), s.order...),
		UptimeMillis:  time.Since(s.started).Milliseconds(),
		Draining:      draining,
		ActiveConns:   activeConns,
		ConnsRejected: s.connsRejected.Load(),
		ActiveQueries: int(s.activeQueries.Load()),
		ActiveWrites:  int(s.activeWrites.Load()),
		QueriesServed: s.queriesServed.Load(),
		WritesServed:  s.writesServed.Load(),
		RowsStreamed:  s.rowsStreamed.Load(),
		Wire: WireStats{
			FramesIn:  s.framesIn.Load(),
			FramesOut: s.framesOut.Load(),
			BytesIn:   s.bytesIn.Load(),
			BytesOut:  s.bytesOut.Load(),
			BadFrames: s.badFrames.Load(),
		},
	}
	if s.overlay != nil {
		out.Overlay = s.overlay()
	}
	for _, pid := range s.order {
		peer := s.hosted[pid].Peer
		if peer.LogErr() != nil {
			out.JournalErrs++
		}
		js := peer.JournalStats()
		out.Journal.Snapshots += js.Snapshots
		out.Journal.SnapshotBytes += js.SnapshotBytes
		out.Journal.WALBytes += js.WALBytes
		cs := peer.ComposeStats()
		out.ComposeHits += cs.Hits
		out.ComposeMisses += cs.Misses
		out.ComposeInvalidations += cs.Invalidations
		out.ComposeEntries += cs.Entries
	}
	return out
}

func (s *Server) dump(req *DumpReq) *Dump {
	out := &Dump{ID: req.ID}
	ids := s.order
	if req.Peer != "" {
		if _, ok := s.hosted[req.Peer]; !ok {
			out.Err = fmt.Sprintf("wire: peer %q not hosted here", req.Peer)
			return out
		}
		ids = []string{req.Peer}
	}
	for _, id := range ids {
		h := s.hosted[id]
		pd := PeerDump{
			ID:      id,
			Path:    h.Peer.Node().Path().String(),
			Triples: h.Peer.DB().Len(),
		}
		if h.Digest != nil {
			pd.Digest = h.Digest()
		}
		if h.WALSeq != nil {
			pd.WALSeq = h.WALSeq()
		}
		if err := h.Peer.LogErr(); err != nil {
			pd.JournalErr = err.Error()
		}
		out.Peers = append(out.Peers, pd)
	}
	return out
}
