package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"time"

	"gridvine/internal/mediation"
	"gridvine/internal/pgrid"
	"gridvine/internal/simnet"
	"gridvine/internal/store"
	"gridvine/internal/tcpnet"
	"gridvine/internal/wire"
)

// tracedStack is the serving stack put together the way daemon.Start does
// it — tcpnet.Transport → staging registrar → pgrid.Build → store.Open →
// mediation.NewDurablePeer → wire.NewServer.Serve — for the same seed and
// shape, with interposers at the two interface seams that assembly is
// handed anyway: the simnet.Registrar and the store.FS. One transport hosts
// all peers, so its message counter is the exact count of tcpnet.send
// spans; two wire servers host the peers the two daemons would.
type tracedStack struct {
	endpoint
	rec       *recorder
	reg       *tracingRegistrar
	transport *tcpnet.Transport
	servers   []*wire.Server
	listeners []net.Listener
	served    []chan struct{}
	logs      []*store.Log
}

func startTracedStack(dir string) (*tracedStack, error) {
	rec := newRecorder()
	t := tcpnet.NewTransport()
	reg := &tracingRegistrar{t: t, rec: rec, handlers: map[simnet.PeerID]simnet.Handler{}}
	s := &tracedStack{rec: rec, reg: reg, transport: t}
	s.parallelism = 1
	ok := false
	defer func() {
		if !ok {
			s.stop() //nolint:errcheck // the assembly error is the one to report
		}
	}()

	ov, err := pgrid.Build(reg, pgrid.BuildOptions{
		Peers: clusterPeers, ReplicaFactor: replicaFactor,
		Rng: rand.New(rand.NewSource(corpusSeed)),
	})
	if err != nil {
		return nil, err
	}
	hosted := make([][]wire.Hosted, clusterDaemons)
	s.peerIDs = make([][]string, clusterDaemons)
	fsys := tracingFS{FS: store.OsFS{}, rec: rec}
	for i, node := range ov.Nodes() {
		id := string(node.ID())
		l, recovered, err := store.Open(fsys, filepath.Join(dir, "data", id), store.Options{})
		if err != nil {
			return nil, fmt.Errorf("traced stack: open journal for %s: %w", id, err)
		}
		s.logs = append(s.logs, l)
		p, err := mediation.NewDurablePeer(node, l, recovered)
		if err != nil {
			return nil, fmt.Errorf("traced stack: restore %s: %w", id, err)
		}
		if _, err := t.RegisterOn(node.ID(), "127.0.0.1:0", reg.handlers[node.ID()]); err != nil {
			return nil, fmt.Errorf("traced stack: listen for %s: %w", id, err)
		}
		d := i % clusterDaemons
		hosted[d] = append(hosted[d], wire.Hosted{Peer: p, Digest: node.ContentDigest, WALSeq: l.Seq})
		s.peerIDs[d] = append(s.peerIDs[d], id)
	}
	addrs := make([]string, clusterDaemons)
	for d := 0; d < clusterDaemons; d++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("traced stack: client listen: %w", err)
		}
		srv := wire.NewServer(d, hosted[d])
		done := make(chan struct{})
		s.listeners = append(s.listeners, ln)
		s.servers = append(s.servers, srv)
		s.served = append(s.served, done)
		go func() {
			srv.Serve(ln)
			close(done)
		}()
		addrs[d] = ln.Addr().String()
	}
	if s.clients, err = dialAll(addrs); err != nil {
		return nil, err
	}
	ok = true
	return s, nil
}

// stop releases everything in the daemon's order: clients, wire servers,
// overlay transport, journals.
func (s *tracedStack) stop() error {
	s.closeClients()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var firstErr error
	for i, srv := range s.servers {
		if err := srv.Shutdown(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
		// Shutdown closes the listener only once Serve has stored it.
		s.listeners[i].Close() //nolint:errcheck // usually closed already
		<-s.served[i]
	}
	s.transport.Close()
	for _, l := range s.logs {
		if err := l.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.servers, s.logs = nil, nil
	return firstErr
}
