package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"gridvine/internal/bioworkload"
	"gridvine/internal/codec"
	"gridvine/internal/keyspace"
	"gridvine/internal/mediation"
	"gridvine/internal/metrics"
	"gridvine/internal/pgrid"
	"gridvine/internal/simnet"
	"gridvine/internal/triple"
)

// newSimPeers builds the world every mediation experiment starts from: a
// fresh simulated network, a replica-factor-2 overlay over it — adapted to
// sampleKeys when given, balanced otherwise — and one mediation peer per
// node. The overlay build is the only draw from rng, so a seeded caller's
// later draws (and message counts) do not depend on this helper.
func newSimPeers(peers int, sampleKeys []keyspace.Key, rng *rand.Rand) (*simnet.Network, []*mediation.Peer, error) {
	net := simnet.NewNetwork()
	ov, err := pgrid.Build(net, pgrid.BuildOptions{
		Peers:         peers,
		ReplicaFactor: 2,
		SampleKeys:    sampleKeys,
		Rng:           rng,
	})
	if err != nil {
		return nil, nil, err
	}
	ps := make([]*mediation.Peer, 0, peers)
	for _, n := range ov.Nodes() {
		ps = append(ps, mediation.NewPeer(n))
	}
	return net, ps, nil
}

// setDefault gives a Config field its default when the caller left it zero.
func setDefault[T comparable](field *T, def T) {
	var zero T
	if *field == zero {
		*field = def
	}
}

// frameBytes is the one bandwidth sizer every experiment installs with
// simnet.Network.SetPayloadDelay: a payload costs the length of the overlay
// frame it travels in, so Stats.PayloadUnits counts the bytes a real peer
// would ship. A payload the codec has no tag for could not travel at all;
// the error names its type, and a run that installed frameBytes returns the
// network's SizeErr, so it fails rather than report figures missing a
// message.
func frameBytes(payload any) (int, error) {
	frame, err := codec.EncodeOverlay(&codec.Envelope{Msg: simnet.Message{Payload: payload}})
	return len(frame), err
}

// WANModel is the modelled WAN the wall-clock experiments (K, L, M, N)
// embed in their Config. TransitDelay is the per-message wall-clock delay
// (default 1ms); PerByteDelay models bandwidth as extra delay per byte of
// the message's overlay frame (default 2.4µs: an answer's triple, ≈ 21 B,
// costs ≈ 50µs, and a routed request ≈ 0.5ms). A negative value disables
// either; the bytes are counted either way.
type WANModel struct {
	TransitDelay time.Duration
	PerByteDelay time.Duration
}

func (w WANModel) withDefaults() WANModel {
	setDefault(&w.TransitDelay, time.Millisecond)
	setDefault(&w.PerByteDelay, 2400*time.Nanosecond)
	return w
}

// apply switches the delays on. Runners call it once their data is loaded:
// setup is not the measurement.
func (w WANModel) apply(net *simnet.Network) {
	if w.TransitDelay > 0 {
		net.SetSendDelay(w.TransitDelay)
	}
	net.SetPayloadDelay(max(w.PerByteDelay, 0), frameBytes)
}

// armCost accumulates the per-query costs of one evaluator arm of a
// comparison; the result fields are means over the arm's queries. Messages
// and bytes are what net carried, the bytes being overlay frames as
// frameBytes sizes them — requests, with any filters they carry, and answers.
type armCost struct {
	net                              *simnet.Network
	at                               time.Time
	sent                             simnet.Stats
	wallMicros, msgs, bytes, shipped metrics.Distribution
}

// begin marks the start of one query of the arm.
func (a *armCost) begin() { a.at, a.sent = time.Now(), a.net.Stats() }

// add records the query begun last, which reported shipped triples.
func (a *armCost) add(shipped int) {
	sent := a.net.Stats()
	a.wallMicros.Add(float64(time.Since(a.at).Microseconds()))
	a.msgs.Add(float64(sent.Messages - a.sent.Messages))
	a.bytes.Add(float64(sent.PayloadUnits - a.sent.PayloadUnits))
	a.shipped.Add(float64(shipped))
}

func (a *armCost) wallMs() float64 { return a.wallMicros.Mean() / 1000 }

// bulkInsert loads a triple set through the batched write path — the way
// every experiment now assimilates its dataset (one Write, key-grouped
// shipping) instead of a per-triple loop over three routed updates each.
// The batch runs serially: which leaf a peer learns for a key depends on
// the order key groups ship in, and a seeded run must replay bit for bit.
func bulkInsert(issuer *mediation.Peer, ts []triple.Triple) error {
	b := &mediation.Batch{Parallelism: 1}
	for _, t := range ts {
		b.InsertTriple(t)
	}
	rec, err := issuer.Write(context.Background(), b)
	if err != nil {
		return err
	}
	if rec.Applied != len(ts) {
		return fmt.Errorf("bulk load applied %d of %d triples: %w", rec.Applied, len(ts), rec.FirstErr())
	}
	return nil
}

// searchConjunctiveSet runs a conjunctive query through the streaming
// engine and drains it into the sorted binding-set form the experiment
// tables aggregate.
func searchConjunctiveSet(ctx context.Context, issuer *mediation.Peer, patterns []triple.Pattern, reformulate bool, opts mediation.SearchOptions) (*triple.BindingSet, mediation.ConjunctiveStats, error) {
	return mediation.CollectSet(ctx, issuer, mediation.Request{Patterns: patterns, Reformulate: reformulate, Options: opts})
}

// searchFor resolves one pattern without reformulation and drains the
// stream into the aggregate ResultSet.
func searchFor(ctx context.Context, issuer *mediation.Peer, q triple.Pattern) (*mediation.ResultSet, error) {
	return mediation.CollectPattern(ctx, issuer, mediation.Request{Pattern: &q})
}

// searchWithReformulation resolves one pattern with mapping traversal and
// drains the stream into the aggregate ResultSet the recall and latency
// experiments score.
func searchWithReformulation(ctx context.Context, issuer *mediation.Peer, q triple.Pattern, opts mediation.SearchOptions) (*mediation.ResultSet, error) {
	return mediation.CollectPattern(ctx, issuer, mediation.Request{Pattern: &q, Reformulate: true, Options: opts})
}

// workloadKeySample returns the overlay keys of (a capped sample of) the
// workload's triples — one key per component, exactly the keys the
// mediation layer will route. Experiments hand this to the overlay builder
// so the trie adapts to the real key distribution, mirroring P-Grid's
// storage load balancing: data keyed by the order-preserving hash is
// heavily skewed (URIs and accessions share long prefixes), so a balanced
// trie would put everything on one leaf.
func workloadKeySample(w *bioworkload.Workload, cap int, rng *rand.Rand) []keyspace.Key {
	triples := w.Triples()
	idx := rng.Perm(len(triples))
	if cap <= 0 || cap > len(triples) {
		cap = len(triples)
	}
	out := make([]keyspace.Key, 0, 3*cap)
	for _, i := range idx[:cap] {
		t := triples[i]
		out = append(out,
			keyspace.HashDefault(t.Subject),
			keyspace.HashDefault(t.Predicate),
			keyspace.HashDefault(t.Object))
	}
	return out
}
