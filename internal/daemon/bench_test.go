package daemon

import (
	"context"
	"testing"

	"gridvine/internal/keyspace"
	"gridvine/internal/mediation"
	"gridvine/internal/pgrid"
	"gridvine/internal/simnet"
	"gridvine/internal/triple"
)

// capturedLookup starts a one-daemon cluster holding one triple and captures
// the in-process delivery a pattern lookup for its subject makes: the
// ExecRequest, its sender and the hosted peer responsible for it. The
// daemon is shut down when the test ends.
func capturedLookup(tb testing.TB) (d *Daemon, from, to simnet.PeerID, msg simnet.Message) {
	tb.Helper()
	d, err := Start(Config{Dir: tb.TempDir(), Peers: 4, ReplicaFactor: 2, Seed: 7, Daemons: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { d.Shutdown(context.Background()) }) //nolint:errcheck
	ctx := context.Background()
	tr := triple.Triple{Subject: "s", Predicate: "Bench#p", Object: "o"}
	key := keyspace.HashDefault(tr.Subject)
	var issuer *mediation.Peer
	for _, h := range d.hosted {
		if !h.peer.Node().Responsible(key) {
			issuer = h.peer
		}
	}
	if _, err := issuer.InsertTripleContext(ctx, tr); err != nil {
		tb.Fatal(err)
	}

	// The delivery is the one the issuer's own lookup makes, captured on
	// its way through.
	d.stage.mu.Lock()
	hosted := d.stage.hosted
	d.stage.hosted = map[simnet.PeerID]simnet.Handler{}
	for id, h := range hosted {
		id, h := id, h
		d.stage.hosted[id] = simnet.HandlerFunc(func(from simnet.PeerID, m simnet.Message) (simnet.Message, error) {
			to, msg = id, m
			return h.HandleMessage(from, m)
		})
	}
	d.stage.mu.Unlock()
	pat := triple.Pattern{S: triple.Const(tr.Subject), P: triple.Var("p"), O: triple.Var("o")}
	if _, _, err := issuer.Node().Query(ctx, key, mediation.PatternQuery{Patterns: []triple.Pattern{pat}}); err != nil || to == "" {
		tb.Fatalf("lookup: delivered to %q, err %v", to, err)
	}
	d.stage.mu.Lock()
	d.stage.hosted = hosted
	d.stage.mu.Unlock()
	return d, issuer.Node().ID(), to, msg
}

// BenchmarkStagingSend times one in-process delivery of a pattern lookup's
// ExecRequest to the hosted peer responsible for it, the peer's handler and
// its one-row select included: the unit cost of a routed operation whose
// leaf has a replica in the daemon, and the in-process counterpart of
// tcpnet's BenchmarkSend. /read is the lookup as routed, run on the
// caller's goroutine; /goroutine reaches the same handler through a message
// type that is not a read, so it pays the goroutine and reply channel every
// write delivery pays.
func BenchmarkStagingSend(b *testing.B) {
	d, from, to, msg := capturedLookup(b)
	d.stage.mu.Lock()
	h := d.stage.hosted[to]
	d.stage.hosted["goroutine"] = simnet.HandlerFunc(func(from simnet.PeerID, _ simnet.Message) (simnet.Message, error) {
		return h.HandleMessage(from, msg)
	})
	d.stage.mu.Unlock()
	ctx := context.Background()
	for _, bc := range []struct {
		name string
		to   simnet.PeerID
		msg  simnet.Message
	}{
		{"read", to, msg},
		{"goroutine", "goroutine", simnet.Message{Payload: "x"}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resp, err := d.stage.Send(ctx, from, bc.to, bc.msg)
				if err != nil {
					b.Fatal(err)
				}
				if r, ok := resp.Payload.(pgrid.ExecResponse); !ok || !r.Responsible {
					b.Fatalf("answer %+v", resp.Payload)
				}
			}
		})
	}
}
