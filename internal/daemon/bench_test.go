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

// BenchmarkStagingSend times one in-process delivery of a pattern lookup's
// ExecRequest to the hosted peer responsible for it, the peer's handler and
// its one-row select included: the unit cost of a routed operation whose
// leaf has a replica in the daemon, and the in-process counterpart of
// tcpnet's BenchmarkSend.
func BenchmarkStagingSend(b *testing.B) {
	d, err := Start(Config{Dir: b.TempDir(), Peers: 4, ReplicaFactor: 2, Seed: 7, Daemons: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Shutdown(context.Background()) //nolint:errcheck
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
		b.Fatal(err)
	}

	// The delivery is the one the issuer's own lookup makes, captured on
	// its way through and then replayed.
	var to simnet.PeerID
	var msg simnet.Message
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
	if _, _, err := issuer.Node().Query(ctx, key, mediation.PatternQuery{Pattern: pat}); err != nil || to == "" {
		b.Fatalf("lookup: delivered to %q, err %v", to, err)
	}
	d.stage.mu.Lock()
	d.stage.hosted = hosted
	d.stage.mu.Unlock()

	from := issuer.Node().ID()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := d.stage.Send(ctx, from, to, msg)
		if err != nil {
			b.Fatal(err)
		}
		if r, ok := resp.Payload.(pgrid.ExecResponse); !ok || !r.Responsible {
			b.Fatalf("answer %+v", resp.Payload)
		}
	}
}
