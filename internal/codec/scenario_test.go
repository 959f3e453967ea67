package codec

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"gridvine/internal/keyspace"
	"gridvine/internal/mediation"
	"gridvine/internal/pgrid"
	"gridvine/internal/schema"
	"gridvine/internal/simnet"
	"gridvine/internal/triple"
)

// codecNet is the in-memory network with tcpnet's codec in the path: every
// request and every response is encoded to a frame, read back with
// ReadFrame and decoded, so handlers and issuers see exactly what they
// would see over a socket. A payload type without a tag, or a field a walk
// drops, fails the test that sent it instead of looking like a dead peer
// in a daemon.
type codecNet struct {
	*simnet.Network
	t testing.TB
}

func (n codecNet) Send(ctx context.Context, from, to simnet.PeerID, msg simnet.Message) (simnet.Message, error) {
	req := n.cross(Envelope{From: from, Msg: msg})
	resp, err := n.Network.Send(ctx, req.From, to, req.Msg)
	if err != nil {
		return simnet.Message{}, err
	}
	return n.cross(Envelope{Msg: resp}).Msg, nil
}

// cross returns e as the far end of a connection decodes it.
func (n codecNet) cross(e Envelope) Envelope {
	frame, err := EncodeOverlay(&e)
	if err != nil {
		n.t.Errorf("%T message does not encode: %v", e.Msg.Payload, err)
		return e
	}
	_, payload, err := ReadFrame(bytes.NewReader(frame), FrameOverlay)
	if err != nil {
		n.t.Errorf("%T frame does not read back: %v", e.Msg.Payload, err)
		return e
	}
	out, err := DecodeOverlay(payload)
	if err != nil {
		n.t.Errorf("%T message does not decode: %v", e.Msg.Payload, err)
		return e
	}
	return out
}

// onBothNetworks runs scenario on the plain in-memory network and on one
// with the codec in the path, and requires the two transcripts — answers
// and message counts, whatever the scenario records — to be equal.
func onBothNetworks(t *testing.T, scenario func(t *testing.T, net simnet.Registrar, raw *simnet.Network) []string) {
	t.Helper()
	plain := simnet.NewNetwork()
	want := scenario(t, plain, plain)
	through := simnet.NewNetwork()
	got := scenario(t, codecNet{through, t}, through)
	if len(want) == 0 {
		t.Fatal("the scenario recorded nothing")
	}
	for i := 0; i < len(want) || i < len(got); i++ {
		switch {
		case i >= len(got):
			t.Fatalf("line %d missing through the codec; plain: %s", i, want[i])
		case i >= len(want):
			t.Fatalf("line %d only through the codec: %s", i, got[i])
		case got[i] != want[i]:
			t.Fatalf("line %d differs\nthrough the codec: %s\n            plain: %s", i, got[i], want[i])
		}
	}
}

// transcript collects a scenario's observations, one line each.
type transcript struct {
	raw   *simnet.Network
	lines []string
}

// note records what an operation returned and the messages sent so far.
func (tr *transcript) note(what string, answer any) {
	tr.lines = append(tr.lines, fmt.Sprintf("%s: %+v (after %d messages)", what, answer, tr.raw.Stats().Messages))
}

func buildOverlay(t testing.TB, net simnet.Registrar, peers int, seed int64) *pgrid.Overlay {
	t.Helper()
	ov, err := pgrid.Build(net, pgrid.BuildOptions{Peers: peers, ReplicaFactor: 2, Rng: rand.New(rand.NewSource(seed))})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return ov
}

// TestOverlayChurnThroughCodec drives every pgrid message — routed exec
// with each stored scalar and list type, batched writes and their
// replication, probes, subtree and range enumeration, digest, repair and
// full-sync anti-entropy after a crash with missed deletes — and requires
// stores, answers and message counts to match the plain network.
func TestOverlayChurnThroughCodec(t *testing.T) {
	onBothNetworks(t, func(t *testing.T, net simnet.Registrar, raw *simnet.Network) []string {
		ctx := context.Background()
		tr := &transcript{raw: raw}
		ov := buildOverlay(t, net, 16, 61)
		nodes := ov.Nodes()
		values := []any{"plain", 42, -7, true, 2.5, []any{"nested", 1, []any{false}},
			triple.Triple{Subject: "s", Predicate: "P#a", Object: "o"}}
		keyOf := func(i int) keyspace.Key {
			return keyspace.UniformHash(fmt.Sprintf("churn-key-%d", i), keyspace.DefaultDepth)
		}
		for i := 0; i < 48; i++ {
			route, err := nodes[i%len(nodes)].Update(ctx, keyOf(i), values[i%len(values)])
			tr.note(fmt.Sprintf("update %d", i), fmt.Sprint(route.Messages, err))
		}
		var entries []pgrid.BatchEntry
		for i := 48; i < 96; i++ {
			entries = append(entries, pgrid.BatchEntry{Key: keyOf(i).String(), Op: pgrid.OpInsert, Value: fmt.Sprintf("batched-%d", i)})
		}
		out, err := nodes[3].WriteBatch(ctx, entries)
		if err != nil {
			t.Fatalf("WriteBatch: %v", err)
		}
		tr.note("batch", fmt.Sprint(out.Applied(), out.Groups, out.Route.Messages))

		// Two peers crash and miss deletes, inserts and a replace.
		victims := []*pgrid.Node{nodes[5], nodes[10]}
		for _, v := range victims {
			raw.Fail(v.ID())
		}
		for i := 0; i < 96; i += 3 {
			v := values[i%len(values)]
			if i >= 48 {
				v = fmt.Sprintf("batched-%d", i)
			}
			route, err := nodes[0].Delete(ctx, keyOf(i), v)
			tr.note(fmt.Sprintf("delete %d", i), fmt.Sprint(route.Messages, err))
		}
		for i := 96; i < 120; i++ {
			route, err := nodes[1].Update(ctx, keyOf(i), fmt.Sprintf("late-%d", i))
			tr.note(fmt.Sprintf("late update %d", i), fmt.Sprint(route.Messages, err))
		}
		for _, v := range victims {
			raw.Recover(v.ID())
		}
		for _, v := range victims {
			tr.note("resync "+string(v.ID()), v.AntiEntropy(ctx))
		}
		for _, n := range nodes {
			tr.note("anti-entropy "+string(n.ID()), n.AntiEntropy(ctx))
		}

		for i := 0; i < 120; i += 5 {
			got, route, err := nodes[(i+7)%len(nodes)].Retrieve(ctx, keyOf(i))
			tr.note(fmt.Sprintf("retrieve %d", i), fmt.Sprintf("%v %d %v", got, route.Messages, err))
		}
		items, route, err := nodes[2].SubtreeRetrieve(ctx, keyspace.MustParseKey("01"))
		tr.note("subtree 01", fmt.Sprint(len(items), route.Messages, err))
		items, route, err = nodes[2].RangeRetrieve(ctx, keyspace.MustParseKey("0010"), keyspace.MustParseKey("1101"))
		tr.note("range", fmt.Sprint(len(items), route.Messages, err))
		for _, n := range nodes {
			tr.note("store "+string(n.ID()), fmt.Sprintf("%s %d items %d tombs %x", n.Path(), n.StoreSize(), n.TombstoneCount(), n.ContentDigest()))
		}
		return tr.lines
	})
}

// rowsOf renders a pattern answer in a canonical order.
func rowsOf(rs *mediation.ResultSet) []string {
	out := make([]string, len(rs.Results))
	for i, r := range rs.Results {
		out[i] = fmt.Sprintf("%v via %v @%.3f", r.Triple, r.MappingPath, r.Confidence)
	}
	sort.Strings(out)
	return out
}

// TestMediationThroughCodec drives the application payloads: a batched
// write of schemas, mappings and triples with a mapping replacement,
// plain and composite (wave loop and warm closure) reformulation, a
// semi-join that ships a Bloom filter, an object-range scan, published
// statistics digests feeding the planner, and the connectivity registry —
// answers and message counts as on the plain network.
func TestMediationThroughCodec(t *testing.T) {
	onBothNetworks(t, func(t *testing.T, net simnet.Registrar, raw *simnet.Network) []string {
		ctx := context.Background()
		tr := &transcript{raw: raw}
		var peers []*mediation.Peer
		for _, n := range buildOverlay(t, net, 16, 77).Nodes() {
			peers = append(peers, mediation.NewPeer(n))
		}
		corr := func(a, b string) []schema.Correspondence {
			return []schema.Correspondence{{SourceAttr: a, TargetAttr: b, Confidence: 0.9}}
		}
		ab := schema.NewMapping("A", "B", schema.Equivalence, schema.Manual, corr("org", "name"))
		ab.Bidirectional = true
		bc := schema.NewMapping("B", "C", schema.Equivalence, schema.Automatic, corr("name", "label"))
		b := &mediation.Batch{Parallelism: 1}
		b.PublishSchema(schema.Schema{Name: "A", Domain: "bio", Attributes: []string{"org", "len", "ref"}})
		b.PublishSchema(schema.Schema{Name: "B", Domain: "bio", Attributes: []string{"name"}})
		b.PublishMapping(ab)
		b.PublishMapping(bc)
		for e := 0; e < 60; e++ {
			s := fmt.Sprintf("s%03d", e)
			b.InsertTriple(triple.Triple{Subject: s, Predicate: "A#org", Object: fmt.Sprintf("species-%d", e%5)})
			b.InsertTriple(triple.Triple{Subject: s, Predicate: "A#len", Object: fmt.Sprint(100 + e)})
			b.InsertTriple(triple.Triple{Subject: "t" + s, Predicate: "B#name", Object: fmt.Sprintf("species-%d", e%5)})
			b.InsertTriple(triple.Triple{Subject: "u" + s, Predicate: "C#label", Object: fmt.Sprintf("species-%d", e%5)})
		}
		b.DeleteTriple(triple.Triple{Subject: "never", Predicate: "A#org", Object: "stored"})
		rec, err := peers[0].Write(ctx, b)
		if err != nil || rec.Failed != 0 {
			t.Fatalf("Write: %+v, %v", rec, err)
		}
		tr.note("write", fmt.Sprint(rec.Applied, rec.Groups, rec.Messages()))
		bc2 := bc
		bc2.Confidence = 0.8
		_, err = peers[4].InsertMappingContext(ctx, bc2)
		tr.note("replace mapping", err)
		for i, p := range peers {
			tr.note(fmt.Sprintf("db %d", i), fmt.Sprintf("%d triples, overlay %x", p.DB().Len(), p.Node().ContentDigest()))
		}

		q := triple.Pattern{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Const("species-2")}
		requests := []struct {
			name string
			req  mediation.Request
		}{
			{"plain", mediation.Request{Pattern: &q}},
			{"waves", mediation.Request{Pattern: &q, Reformulate: true, Options: mediation.SearchOptions{Parallelism: 1}}},
			{"limited", mediation.Request{Pattern: &q, Reformulate: true, Limit: 30, Options: mediation.SearchOptions{Parallelism: 1}}},
			{"closure", mediation.Request{Pattern: &q, Reformulate: true, Options: mediation.SearchOptions{Parallelism: 1, ComposeMappings: true}}},
			{"warm closure", mediation.Request{Pattern: &q, Reformulate: true, Options: mediation.SearchOptions{Parallelism: 1, ComposeMappings: true}}},
		}
		// An issuer away from the data, so the root pattern's hop crosses the
		// network too.
		issuer := peers[0]
		for _, p := range peers {
			if !p.Node().Responsible(keyspace.HashDefault("species-2")) {
				issuer = p
			}
		}
		for _, r := range requests {
			rs, err := mediation.CollectPattern(ctx, issuer, r.req)
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			if r.name != "plain" && r.name != "limited" && len(rs.Results) != 36 {
				t.Errorf("%s: %d rows, want 12 from each of A, B and C", r.name, len(rs.Results))
			}
			tr.note(r.name, fmt.Sprint(rowsOf(rs), rs.Messages, rs.Reformulations, rs.Degraded))
		}

		join := []triple.Pattern{
			{S: triple.Var("x"), P: triple.Const("A#len"), O: triple.Var("len")},
			{S: triple.Var("x"), P: triple.Const("A#org"), O: triple.Const("species-3")},
		}
		conjunctive := func(name string, reformulate bool) {
			set, stats, err := mediation.CollectSet(ctx, peers[9], mediation.Request{Patterns: join, Reformulate: reformulate,
				Options: mediation.SearchOptions{Parallelism: 1, PushdownLimit: 2}})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if stats.SemiJoins == 0 || set.Len() != 12 {
				t.Errorf("%s: %d rows, %d semi-joins; want 12 rows through a shipped filter", name, set.Len(), stats.SemiJoins)
			}
			stats.StatsFetches, stats.StatsDigests = 0, 0
			tr.note(name, fmt.Sprintf("%v %+v", set.ToBindings(), stats))
		}
		conjunctive("semi-join", false)
		conjunctive("semi-join, reformulated", true)
		if f := mediation.NewVarFilter("x", join12()); f.Bloom == nil {
			t.Errorf("twelve bound values ship as an exact list; the scenario means to ship a Bloom filter")
		}

		rows, route, err := peers[2].SearchObjectRange(ctx, "A#len", "110", "125")
		tr.note("object range", fmt.Sprint(rows, route.Messages, err))

		for i, p := range peers {
			n, route, err := p.PublishStats(ctx)
			tr.note(fmt.Sprintf("publish stats %d", i), fmt.Sprint(n, route.Messages, err))
		}
		conjunctive("semi-join with statistics", false)

		tr.note("degree A", peers[1].ReportDomainDegree(ctx, "bio", "A", 1, 2))
		tr.note("degree B", peers[3].ReportDomainDegree(ctx, "bio", "B", 2, 1))
		tr.note("degree A again", peers[5].ReportDomainDegree(ctx, "bio", "A", 1, 1))
		degrees, err := peers[6].DomainDegrees(ctx, "bio")
		tr.note("degrees", fmt.Sprint(degrees, err))
		report, err := peers[8].DomainConnectivity(ctx, "bio")
		tr.note("connectivity", fmt.Sprint(report, err))
		if report.Schemas != 2 || !reflect.DeepEqual(degrees, []mediation.DomainDegree{{Schema: "B", InDegree: 2, OutDegree: 1}, {Schema: "A", InDegree: 1, OutDegree: 1}}) {
			t.Errorf("registry holds %+v, report %+v; want A's report replaced, B's kept", degrees, report)
		}
		return tr.lines
	})
}

// join12 is the twelve subjects the scenario's join binds.
func join12() []string {
	var out []string
	for e := 3; e < 60; e += 5 {
		out = append(out, fmt.Sprintf("s%03d", e))
	}
	return out
}
