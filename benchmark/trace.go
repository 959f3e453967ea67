package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridvine/internal/simnet"
	"gridvine/internal/store"
	"gridvine/internal/tcpnet"
)

// Span names, one per layer boundary the benchmark is handed an interface
// seam at.
const (
	spanOp       = "wire.op"        // client: send → cursor closed / receipt
	spanFirstRow = "wire.first_row" // client: send → first row (a marker, not a layer)
	spanSend     = "tcpnet.send"    // around Transport.Send
	spanHandle   = "pgrid.handle"   // around a registered simnet.Handler
	spanWrite    = "store.write"    // around File.Write of a journal file
	spanSync     = "store.sync"     // around File.Sync / FS.SyncDir
)

// span is one timed interval. Times are nanoseconds since the recorder was
// made. Op is the client op in flight when the span began (0: none — the
// work is background). Parent indexes the innermost enclosing span of the
// same op, -1 for none.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Bytes  int    `json:"bytes,omitempty"`
}

// recorder keeps spans in memory; nothing is written until the run ends.
// While off, the interposers cost one atomic load.
type recorder struct {
	t0    time.Time
	on    atomic.Bool
	curOp atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin returns the start time, or -1 when recording is off.
func (r *recorder) begin() int64 {
	if !r.on.Load() {
		return -1
	}
	return r.now()
}

func (r *recorder) end(name string, start int64, bytes int) {
	if start < 0 {
		return
	}
	r.add(span{Name: name, Start: start, End: r.now(), Op: r.curOp.Load(), Parent: -1, Bytes: bytes})
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// assignParents sets each span's Parent to the innermost span of the same
// op that encloses it in time. Markers (wire.first_row) take a parent but
// are never one. Spans are reordered by start time.
func assignParents(spans []span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End // the enclosing span first
	})
	stacks := map[int64][]int{}
	for i := range spans {
		s := &spans[i]
		st := stacks[s.Op]
		for len(st) > 0 && spans[st[len(st)-1]].End < s.End {
			st = st[:len(st)-1]
		}
		s.Parent = -1
		if len(st) > 0 {
			s.Parent = st[len(st)-1]
		}
		if s.Name != spanFirstRow {
			st = append(st, i)
		}
		stacks[s.Op] = st
	}
}

// selfTimes returns, per span, its duration minus the part of it its
// direct children cover. Children may overlap one another (parallel
// sends); the union of their intervals is subtracted, not the sum.
// Parents must be assigned.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Name != spanFirstRow {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		covered := int64(0)
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		edge := s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close() //nolint:errcheck // the encode error is the one to report
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close() //nolint:errcheck
		return err
	}
	return f.Close()
}

// tracingRegistrar is the simnet.Registrar handed to pgrid.Build in the
// traced stack: like the daemon's staging registrar it captures handlers
// without opening sockets and delegates Send to the real TCP transport,
// and it wraps both in spans. It also keeps the messages it ships, so the
// tcpnet driver can replay a real payload.
type tracingRegistrar struct {
	t        *tcpnet.Transport
	rec      *recorder
	handlers map[simnet.PeerID]simnet.Handler

	mu   sync.Mutex
	sent []simnet.Message // recorded sends, capped at keepMessages
}

const keepMessages = 4096

func (r *tracingRegistrar) Register(id simnet.PeerID, h simnet.Handler) {
	r.handlers[id] = simnet.HandlerFunc(func(from simnet.PeerID, msg simnet.Message) (simnet.Message, error) {
		start := r.rec.begin()
		resp, err := h.HandleMessage(from, msg)
		r.rec.end(spanHandle, start, 0)
		return resp, err
	})
}

func (r *tracingRegistrar) Send(ctx context.Context, from, to simnet.PeerID, msg simnet.Message) (simnet.Message, error) {
	start := r.rec.begin()
	resp, err := r.t.Send(ctx, from, to, msg)
	r.rec.end(spanSend, start, 0)
	if start >= 0 {
		r.mu.Lock()
		if len(r.sent) < keepMessages {
			r.sent = append(r.sent, msg)
		}
		r.mu.Unlock()
	}
	return resp, err
}

// tracingFS wraps the store's file system seam: writes and syncs of
// journal and snapshot files become spans with byte counts.
type tracingFS struct {
	store.FS
	rec *recorder
}

func (f tracingFS) Create(name string) (store.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return tracingFile{file, f.rec}, nil
}

func (f tracingFS) Append(name string) (store.File, error) {
	file, err := f.FS.Append(name)
	if err != nil {
		return nil, err
	}
	return tracingFile{file, f.rec}, nil
}

func (f tracingFS) SyncDir(dir string) error {
	start := f.rec.begin()
	err := f.FS.SyncDir(dir)
	f.rec.end(spanSync, start, 0)
	return err
}

type tracingFile struct {
	store.File
	rec *recorder
}

func (f tracingFile) Write(p []byte) (int, error) {
	start := f.rec.begin()
	n, err := f.File.Write(p)
	f.rec.end(spanWrite, start, n)
	return n, err
}

func (f tracingFile) Sync() error {
	start := f.rec.begin()
	err := f.File.Sync()
	f.rec.end(spanSync, start, 0)
	return err
}
