package tcpnet

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"gridvine/internal/keyspace"
	"gridvine/internal/mediation"
	"gridvine/internal/pgrid"
	"gridvine/internal/schema"
	"gridvine/internal/simnet"
	"gridvine/internal/triple"
)

func TestSendReceiveRoundtrip(t *testing.T) {
	tr := NewTransport()
	defer tr.Close()
	tr.Register("echo", simnet.HandlerFunc(func(from simnet.PeerID, msg simnet.Message) (simnet.Message, error) {
		return simnet.Message{Payload: "re:" + msg.Payload.(string)}, nil
	}))
	resp, err := tr.Send(context.Background(), "client", "echo", simnet.Message{Payload: "hello"})
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if resp.Payload != "re:hello" {
		t.Errorf("resp = %+v", resp)
	}
}

func TestSendToUnknownPeer(t *testing.T) {
	tr := NewTransport()
	defer tr.Close()
	_, err := tr.Send(context.Background(), "a", "ghost", simnet.Message{Payload: "x"})
	if !errors.Is(err, simnet.ErrUnreachable) {
		t.Errorf("err = %v", err)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	tr := NewTransport()
	defer tr.Close()
	tr.Register("failing", simnet.HandlerFunc(func(simnet.PeerID, simnet.Message) (simnet.Message, error) {
		return simnet.Message{}, errors.New("handler exploded")
	}))
	_, err := tr.Send(context.Background(), "a", "failing", simnet.Message{Payload: "x"})
	if err == nil || err.Error() != "handler exploded" {
		t.Errorf("err = %v", err)
	}
}

func TestFailSimulatesCrash(t *testing.T) {
	tr := NewTransport()
	defer tr.Close()
	tr.Register("victim", simnet.HandlerFunc(func(simnet.PeerID, simnet.Message) (simnet.Message, error) {
		return simnet.Message{Payload: "ok"}, nil
	}))
	if _, err := tr.Send(context.Background(), "a", "victim", simnet.Message{Payload: "x"}); err != nil {
		t.Fatalf("pre-crash send: %v", err)
	}
	if ps := tr.PoolStats(); ps.Idle != 1 {
		t.Fatalf("pool before the crash = %+v, want the connection idle in it", ps)
	}
	// The pooled connection must die with the listener: a failed peer
	// that kept answering on it would never be suspected.
	tr.Fail("victim")
	if _, err := tr.Send(context.Background(), "a", "victim", simnet.Message{Payload: "x"}); !errors.Is(err, simnet.ErrUnreachable) {
		t.Errorf("post-crash err = %v", err)
	}
	if ps := tr.PoolStats(); ps.Redials != 1 || ps.Idle != 0 {
		t.Errorf("pool after the crash = %+v, want one redial (refused) and nothing idle", ps)
	}
}

func TestStats(t *testing.T) {
	tr := NewTransport()
	defer tr.Close()
	tr.Register("p", simnet.HandlerFunc(func(simnet.PeerID, simnet.Message) (simnet.Message, error) {
		return simnet.Message{}, nil
	}))
	tr.Send(context.Background(), "a", "p", simnet.Message{})
	tr.Send(context.Background(), "a", "ghost", simnet.Message{})
	msgs, dropped := tr.Stats()
	if msgs != 2 || dropped != 1 {
		t.Errorf("stats = %d/%d", msgs, dropped)
	}
}

func TestSendAfterClose(t *testing.T) {
	tr := NewTransport()
	tr.Register("p", simnet.HandlerFunc(func(simnet.PeerID, simnet.Message) (simnet.Message, error) {
		return simnet.Message{}, nil
	}))
	tr.Close()
	if _, err := tr.Send(context.Background(), "a", "p", simnet.Message{}); !errors.Is(err, simnet.ErrUnreachable) {
		t.Errorf("err = %v", err)
	}
}

func TestAddPeerExternalAddress(t *testing.T) {
	// Two transports = two "processes": B hosts, A knows B's address.
	host := NewTransport()
	defer host.Close()
	host.Register("remote", simnet.HandlerFunc(func(simnet.PeerID, simnet.Message) (simnet.Message, error) {
		return simnet.Message{Payload: "from-remote"}, nil
	}))
	client := NewTransport()
	defer client.Close()
	client.AddPeer("remote", host.Addr("remote"))
	resp, err := client.Send(context.Background(), "local", "remote", simnet.Message{Payload: "x"})
	if err != nil {
		t.Fatalf("cross-transport send: %v", err)
	}
	if resp.Payload != "from-remote" {
		t.Errorf("resp = %+v", resp)
	}
}

// TestOverlayOverTCP runs a full P-Grid overlay over real TCP sockets:
// build, update, retrieve, from several issuers.
func TestOverlayOverTCP(t *testing.T) {
	tr := NewTransport()
	defer tr.Close()
	ov, err := pgrid.Build(tr, pgrid.BuildOptions{
		Peers:         8,
		ReplicaFactor: 2,
		Rng:           rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatalf("Build over TCP: %v", err)
	}
	key := keyspace.HashDefault("tcp-item")
	if _, err := ov.Nodes()[0].Update(context.Background(), key, "tcp-value"); err != nil {
		t.Fatalf("Update: %v", err)
	}
	for _, issuer := range ov.Nodes()[:4] {
		values, route, err := issuer.Retrieve(context.Background(), key)
		if err != nil {
			t.Fatalf("Retrieve from %s: %v", issuer.ID(), err)
		}
		if len(values) != 1 || values[0] != "tcp-value" {
			t.Errorf("values = %v (route %+v)", values, route)
		}
	}
}

// TestMediationOverTCP exercises the full mediation stack — triples,
// schemas, mappings, reformulation — across TCP, proving the overlay codec
// encodes every payload.
func TestMediationOverTCP(t *testing.T) {
	tr := NewTransport()
	defer tr.Close()
	ov, err := pgrid.Build(tr, pgrid.BuildOptions{
		Peers:         8,
		ReplicaFactor: 2,
		Rng:           rand.New(rand.NewSource(2)),
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	peers := make([]*mediation.Peer, 0, 8)
	for _, n := range ov.Nodes() {
		peers = append(peers, mediation.NewPeer(n))
	}

	peers[0].InsertTripleContext(context.Background(), triple.Triple{Subject: "EMBL:A78712", Predicate: "EMBL#Organism", Object: "Aspergillus nidulans"})
	peers[0].InsertTripleContext(context.Background(), triple.Triple{Subject: "NEN94295-05", Predicate: "EMP#SystematicName", Object: "Aspergillus flavus"})
	peers[0].InsertSchemaContext(context.Background(), schema.NewSchema("EMBL", "bio", "Organism"))
	peers[0].InsertSchemaContext(context.Background(), schema.NewSchema("EMP", "bio", "SystematicName"))
	m := schema.NewMapping("EMBL", "EMP", schema.Equivalence, schema.Manual, []schema.Correspondence{
		{SourceAttr: "Organism", TargetAttr: "SystematicName", Confidence: 1},
	})
	m.Bidirectional = true
	peers[0].InsertMappingContext(context.Background(), m)

	q := triple.Pattern{S: triple.Var("x"), P: triple.Const("EMBL#Organism"), O: triple.LikeTerm("%Aspergillus%")}
	rs, err := mediation.CollectPattern(context.Background(), peers[5], mediation.Request{Pattern: &q, Reformulate: true})
	if err != nil {
		t.Fatalf("search over TCP: %v", err)
	}
	if len(rs.Results) != 2 {
		t.Errorf("results = %d, want 2 (both schemas)", len(rs.Results))
	}

	// Schema lookup over TCP.
	s, err := peers[3].LookupSchema(context.Background(), "EMBL")
	if err != nil || s.Name != "EMBL" {
		t.Errorf("LookupSchema = %+v err=%v", s, err)
	}

	// Domain registry over TCP.
	peers[1].ReportDomainDegree(context.Background(), "bio", "EMBL", 1, 1)
	peers[1].ReportDomainDegree(context.Background(), "bio", "EMP", 1, 1)
	report, err := peers[6].DomainConnectivity(context.Background(), "bio")
	if err != nil {
		t.Fatalf("DomainConnectivity: %v", err)
	}
	if report.Schemas != 2 || report.CI != 0 {
		t.Errorf("report = %+v", report)
	}
}

func TestSendHonorsContextCancellation(t *testing.T) {
	tr := NewTransport()
	defer tr.Close()
	release := make(chan struct{})
	tr.Register("slow", simnet.HandlerFunc(func(from simnet.PeerID, msg simnet.Message) (simnet.Message, error) {
		<-release
		return simnet.Message{Payload: "late"}, nil
	}))
	defer close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := tr.Send(ctx, "a", "slow", simnet.Message{Payload: "x"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline-bound send took %v — the read did not unblock", elapsed)
	}
}

func TestSendPreCancelled(t *testing.T) {
	tr := NewTransport()
	defer tr.Close()
	tr.Register("p", simnet.HandlerFunc(func(from simnet.PeerID, msg simnet.Message) (simnet.Message, error) {
		return simnet.Message{}, nil
	}))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tr.Send(ctx, "a", "p", simnet.Message{}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestRegisterOnReusesAddress proves a peer can re-bind to the exact
// address it held before (the daemon restart path: the address book
// other processes hold stays valid), and that the bound address is
// reported back.
func TestRegisterOnReusesAddress(t *testing.T) {
	tr := NewTransport()
	defer tr.Close()
	echo := simnet.HandlerFunc(func(from simnet.PeerID, msg simnet.Message) (simnet.Message, error) {
		return msg, nil
	})
	addr, err := tr.RegisterOn("p", "127.0.0.1:0", echo)
	if err != nil {
		t.Fatal(err)
	}
	if addr != tr.Addr("p") {
		t.Fatalf("RegisterOn returned %q, Addr reports %q", addr, tr.Addr("p"))
	}
	ctx := context.Background()
	if _, err := tr.Send(ctx, "a", "p", simnet.Message{Payload: "x"}); err != nil {
		t.Fatalf("send before re-bind: %v", err)
	}

	// Re-register on the same concrete address: the old listener is
	// replaced and the address book entry still routes.
	addr2, err := tr.RegisterOn("p", addr, echo)
	if err != nil {
		t.Fatalf("re-bind to %s: %v", addr, err)
	}
	if addr2 != addr {
		t.Fatalf("re-bind moved the peer: %q -> %q", addr, addr2)
	}
	// The connection pooled before the re-bind belongs to the old
	// listener. The first send after it must succeed all the same, at
	// the price of exactly one redial.
	before := tr.PoolStats()
	if _, err := tr.Send(ctx, "a", "p", simnet.Message{Payload: "y"}); err != nil {
		t.Fatalf("send after re-bind: %v", err)
	}
	after := tr.PoolStats()
	if after.Redials != before.Redials+1 || after.Dials != before.Dials+1 {
		t.Errorf("pool %+v -> %+v across the re-bind, want one redial and one dial", before, after)
	}

	// A genuinely taken address must error, not panic.
	occupied, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer occupied.Close()
	if _, err := tr.RegisterOn("q", occupied.Addr().String(), echo); err == nil {
		t.Fatal("RegisterOn on an occupied address succeeded")
	}
}
