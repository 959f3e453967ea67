package pgrid

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"gridvine/internal/keyspace"
	"gridvine/internal/simnet"
)

// batchTestEntries builds n insert entries over a spread of keys.
func batchTestEntries(n int) []BatchEntry {
	out := make([]BatchEntry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, BatchEntry{
			Key:   keyspace.HashDefault(fmt.Sprintf("item-%04d", i)).String(),
			Op:    OpInsert,
			Value: fmt.Sprintf("value-%04d", i),
		})
	}
	return out
}

// storeSnapshot collects every node's stored (key → values) map.
func storeSnapshot(ov *Overlay) map[simnet.PeerID]map[string][]any {
	out := map[simnet.PeerID]map[string][]any{}
	for _, n := range ov.Nodes() {
		m := map[string][]any{}
		for _, k := range n.LocalKeys() {
			key := keyspace.MustParseKey(k)
			m[k] = n.LocalGet(key)
		}
		out[n.ID()] = m
	}
	return out
}

// TestWriteBatchMatchesPerOp: a batched write over many keys must leave
// every node's store byte-identical to the per-operation loop, while
// shipping far fewer routed groups than entries.
func TestWriteBatchMatchesPerOp(t *testing.T) {
	entries := batchTestEntries(120)

	netA, ovA := testOverlay(t, 32, 2, 77)
	netB, ovB := testOverlay(t, 32, 2, 77)

	netA.ResetStats()
	out, err := ovA.Nodes()[0].WriteBatch(context.Background(), entries)
	if err != nil {
		t.Fatalf("WriteBatch: %v", err)
	}
	batchMsgs := netA.Stats().Messages

	netB.ResetStats()
	issuerB := ovB.Nodes()[0]
	for _, e := range entries {
		if _, err := issuerB.Update(context.Background(), keyspace.MustParseKey(e.Key), e.Value); err != nil {
			t.Fatalf("Update: %v", err)
		}
	}
	perOpMsgs := netB.Stats().Messages

	if got := out.Applied(); got != len(entries) {
		t.Fatalf("applied %d of %d entries (failed %d, skipped %d)", got, len(entries), out.Failed(), out.Skipped())
	}
	if out.Groups >= len(entries) {
		t.Errorf("batch shipped %d groups for %d entries — no grouping happened", out.Groups, len(entries))
	}
	if batchMsgs >= perOpMsgs {
		t.Errorf("batched write cost %d messages, per-op loop %d", batchMsgs, perOpMsgs)
	}

	snapA, snapB := storeSnapshot(ovA), storeSnapshot(ovB)
	if !reflect.DeepEqual(snapA, snapB) {
		t.Error("batched and per-op stores diverged")
	}
}

// TestWriteBatchSameKeyOrder: same-key entries apply in submission order,
// so a delete-then-insert sequence lands as a replacement.
func TestWriteBatchSameKeyOrder(t *testing.T) {
	_, ov := testOverlay(t, 16, 2, 78)
	issuer := ov.Nodes()[0]
	key := keyspace.HashDefault("slot")
	if _, err := issuer.Update(context.Background(), key, "old"); err != nil {
		t.Fatalf("Update: %v", err)
	}
	out, err := issuer.WriteBatch(context.Background(), []BatchEntry{
		{Key: key.String(), Op: OpDelete, Value: "old"},
		{Key: key.String(), Op: OpInsert, Value: "new"},
	})
	if err != nil {
		t.Fatalf("WriteBatch: %v", err)
	}
	if out.Applied() != 2 {
		t.Fatalf("applied %d of 2", out.Applied())
	}
	values, _, err := issuer.Retrieve(context.Background(), key)
	if err != nil {
		t.Fatalf("Retrieve: %v", err)
	}
	if len(values) != 1 || values[0] != "new" {
		t.Errorf("values = %v, want [new]", values)
	}
}

// TestWriteBatchReplicates: replicas of the responsible leaf receive the
// batch's entries through the batched synchronization message.
func TestWriteBatchReplicates(t *testing.T) {
	_, ov := testOverlay(t, 16, 2, 79)
	issuer := ov.Nodes()[0]
	entries := batchTestEntries(40)
	if _, err := issuer.WriteBatch(context.Background(), entries); err != nil {
		t.Fatalf("WriteBatch: %v", err)
	}
	for _, e := range entries {
		key := keyspace.MustParseKey(e.Key)
		for _, n := range ov.Nodes() {
			if !n.Responsible(key) {
				continue
			}
			found := false
			for _, v := range n.LocalGet(key) {
				if v == e.Value {
					found = true
				}
			}
			if !found {
				t.Fatalf("node %s responsible for %s but missing %v", n.ID(), e.Key, e.Value)
			}
		}
	}
}

// TestWriteBatchCancellation: cancelling mid-batch returns ctx.Err() with
// the not-yet-attempted entries skipped. Keys are uniform-hashed so the
// batch spans many leaves (the order-preserving hash would cluster them
// onto one group, which could complete before the deadline).
func TestWriteBatchCancellation(t *testing.T) {
	net, ov := testOverlay(t, 32, 2, 80)
	net.SetSendDelay(2 * time.Millisecond)
	issuer := ov.Nodes()[0]
	entries := make([]BatchEntry, 0, 200)
	for i := 0; i < 200; i++ {
		entries = append(entries, BatchEntry{
			Key:   keyspace.UniformHash(fmt.Sprintf("item-%04d", i), keyspace.DefaultDepth).String(),
			Op:    OpInsert,
			Value: fmt.Sprintf("value-%04d", i),
		})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	out, err := issuer.WriteBatch(ctx, entries)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if out.Skipped() == 0 {
		t.Error("no entry skipped despite mid-batch cancellation")
	}
	if out.Applied()+out.Failed()+out.Skipped() != len(entries) {
		t.Errorf("outcome does not cover the batch: %d+%d+%d != %d",
			out.Applied(), out.Failed(), out.Skipped(), len(entries))
	}
}

// TestRetryBudgetFailsFast: with per-hop latency observed and a deadline
// too tight to cover another hop, a rerouting round is abandoned with
// ErrRetryBudget instead of burning the remaining budget.
func TestRetryBudgetFailsFast(t *testing.T) {
	net, ov := testOverlay(t, 32, 2, 81)
	issuer := ov.Nodes()[0]
	key := keyspace.HashDefault("budget-target")
	if issuer.Responsible(key) {
		t.Skip("issuer responsible; no routing to starve")
	}

	// Prime the per-hop latency estimate under a slow network.
	net.SetSendDelay(20 * time.Millisecond)
	if _, _, err := issuer.Retrieve(context.Background(), key); err != nil {
		t.Fatalf("prime Retrieve: %v", err)
	}
	if issuer.HopLatencyEstimate() < 20*time.Millisecond {
		t.Fatalf("hop latency estimate %v not primed", issuer.HopLatencyEstimate())
	}

	// Make the first pass dead-end instantly (drops cost no delay), leaving
	// a remaining budget far below one observed hop.
	net.SetSendDelay(0)
	drops := simnet.NewFaultPlan(1)
	drops.SetDropRate(1)
	net.SetFaultPlan(drops)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := issuer.Retrieve(ctx, key)
	if !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("err = %v, want ErrRetryBudget", err)
	}
	if elapsed := time.Since(start); elapsed > 8*time.Millisecond {
		t.Errorf("fail-fast took %v, should not have waited out the deadline", elapsed)
	}
}

// TestPerOpWritesCostOneRoutedOperation pins what Update and Delete cost
// as one-entry batches: the issuer-observed route is the
// probe's hops, and the transport carries exactly those plus one
// replication send per replica of the answering peer — nothing else.
func TestPerOpWritesCostOneRoutedOperation(t *testing.T) {
	net, ov := testOverlay(t, 32, 3, 91)
	ctx := context.Background()
	ops := map[string]func(*Node, keyspace.Key) (Route, error){
		"update": func(n *Node, k keyspace.Key) (Route, error) { return n.Update(ctx, k, "v") },
		"delete": func(n *Node, k keyspace.Key) (Route, error) { return n.Delete(ctx, k, "v") },
	}
	for name, op := range ops {
		for i, issuer := range ov.Nodes() {
			key := keyspace.HashDefault(fmt.Sprintf("%s-cost-%d", name, i))
			net.ResetStats()
			route, err := op(issuer, key)
			if err != nil {
				t.Fatalf("%s from %s: %v", name, issuer.ID(), err)
			}
			owner := issuer
			if len(route.Contacted) > 0 {
				owner = ov.Node(route.Contacted[len(route.Contacted)-1])
			}
			if !owner.Responsible(key) {
				t.Fatalf("%s from %s answered by non-responsible %s", name, issuer.ID(), owner.ID())
			}
			if route.Messages != len(route.Contacted) || route.Retries != 0 || route.Degraded {
				t.Fatalf("%s from %s: route %+v, want one message per contacted peer on a healthy overlay", name, issuer.ID(), route)
			}
			if got, want := net.Stats().Messages, route.Messages+len(owner.Replicas()); got != want {
				t.Fatalf("%s from %s: transport carried %d messages, want %d routed + %d replication", name, issuer.ID(), got, route.Messages, len(owner.Replicas()))
			}
		}
	}
}

// TestExecRejectsMutationOps: mutations travel as batch entries only; a
// routed request naming one is an unknown op.
func TestExecRejectsMutationOps(t *testing.T) {
	_, ov := testOverlay(t, 4, 2, 19)
	key := keyspace.HashDefault("no-per-op-path")
	for _, n := range ov.Nodes() {
		if !n.Responsible(key) {
			continue
		}
		for _, op := range []Op{OpInsert, OpDelete} {
			if _, err := n.handleExec(ExecRequest{Key: key.String(), Op: op}); err == nil {
				t.Errorf("handleExec accepted %s", op)
			}
		}
	}
}
