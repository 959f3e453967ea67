package pgrid

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"gridvine/internal/keyspace"
	"gridvine/internal/simnet"
)

// The write path — the only one: Update and Delete are one-entry
// WriteBatch calls. A bulk mutation over the overlay costs, naively,
// one routed operation per (key, value) pair — O(log |Π|) messages each,
// every one carrying its value across every hop. WriteBatch collapses that:
// entries are sorted by key, so (the hash being order-preserving and
// responsibility a path prefix) the keys one leaf covers form a contiguous
// run; a routed OpProbe carrying only the run's head entry resolves the
// responsible peer and its path while applying the head on arrival, and the
// rest of the run then ships as ONE BatchUpdate message directly to that
// peer, which applies it under one lock pass and synchronizes each replica
// with one message. Routed message count collapses from the number of
// entries toward the number of distinct responsible peers — and a run of
// one costs exactly one routed operation.

// BatchStatus is the terminal state of one WriteBatch entry.
type BatchStatus int8

// Entry states: Skipped entries were never attempted (the context fired
// first), Applied entries reached their responsible peer, Failed entries
// could not be routed or delivered.
const (
	BatchSkipped BatchStatus = iota
	BatchApplied
	BatchFailed
)

func (s BatchStatus) String() string {
	switch s {
	case BatchApplied:
		return "applied"
	case BatchFailed:
		return "failed"
	default:
		return "skipped"
	}
}

// BatchOutcome reports how a WriteBatch resolved.
type BatchOutcome struct {
	// Statuses and Errs align with the input entries (Errs non-nil only for
	// failed entries).
	Statuses []BatchStatus
	Errs     []error
	// Groups counts the BatchUpdate messages shipped (plus locally applied
	// runs) — the "distinct responsible peers" the batch collapsed to.
	Groups int
	// Route aggregates the issuer-observed message cost: probe routing plus
	// one message per shipped group.
	Route Route
}

// Applied counts entries that reached their responsible peer.
func (o *BatchOutcome) Applied() int { return o.count(BatchApplied) }

// Failed counts entries that could not be routed or delivered.
func (o *BatchOutcome) Failed() int { return o.count(BatchFailed) }

// Skipped counts entries never attempted (cancellation).
func (o *BatchOutcome) Skipped() int { return o.count(BatchSkipped) }

func (o *BatchOutcome) count(s BatchStatus) int {
	n := 0
	for _, st := range o.Statuses {
		if st == s {
			n++
		}
	}
	return n
}

// WriteBatch applies a set of keyed mutations across the overlay with
// key-grouped shipping (see the package notes above). Entries need not be
// pre-sorted; same-key entries are applied in slice order. The returned
// error is terminal — cancellation, an expired deadline, or an abandoned
// retry budget — and leaves the not-yet-attempted entries BatchSkipped in
// the outcome; per-destination routing failures are recorded per entry
// (BatchFailed) and do not stop the rest of the batch.
func (n *Node) WriteBatch(ctx context.Context, entries []BatchEntry) (*BatchOutcome, error) {
	out := &BatchOutcome{
		Statuses: make([]BatchStatus, len(entries)),
		Errs:     make([]error, len(entries)),
	}
	if len(entries) == 0 {
		return out, nil
	}

	// Sort (stably) by key: one leaf's keys are contiguous under the
	// order-preserving hash, and same-key mutations keep submission order.
	remaining := make([]int, len(entries))
	for i := range remaining {
		remaining[i] = i
	}
	sort.SliceStable(remaining, func(a, b int) bool {
		return entries[remaining[a]].Key < entries[remaining[b]].Key
	})

	failHead := func(err error) {
		out.Statuses[remaining[0]] = BatchFailed
		out.Errs[remaining[0]] = err
		remaining = remaining[1:]
	}
	// declines counts, per entry, responsible-peer declines (a concurrent
	// path split between the routing check and the locked apply): declined
	// heads re-probe — the next round routes to the new responsible peer —
	// bounded by maxRetries so a pathological loop still terminates.
	declines := map[int]int{}

	for len(remaining) > 0 {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		head := entries[remaining[0]]
		headKey, err := keyspace.ParseKey(head.Key)
		if err != nil {
			failHead(err)
			continue
		}

		// Resolve the run's responsible peer (and its path) with a routed
		// probe that carries — and applies — the head entry, so a run of one
		// costs exactly one routed operation.
		resp, route, err := n.execute(ctx, ExecRequest{Key: head.Key, Op: OpProbe, Payload: head})
		out.Route.Add(route)
		if err != nil {
			if ctx.Err() != nil {
				return out, ctx.Err()
			}
			if errors.Is(err, ErrRetryBudget) {
				return out, err
			}
			failHead(err)
			continue
		}
		out.Groups++
		if result, ok := resp.AppResult.(BatchResult); !ok || len(result.Applied) != 1 {
			// The answering peer passed the routing responsibility check but
			// declined the head under its store lock — its path split
			// beneath us. Re-probe (bounded), then fail for progress.
			declines[remaining[0]]++
			if declines[remaining[0]] > maxRetries {
				failHead(fmt.Errorf("pgrid: responsible peer did not apply the head entry for %s", head.Key))
			}
			continue
		}
		out.Statuses[remaining[0]] = BatchApplied
		path, perr := keyspace.ParseKey(resp.Path)
		if perr != nil || !path.IsPrefixOf(headKey) {
			// The head applied but the path is unusable for run extension;
			// fall back to per-head progress.
			remaining = remaining[1:]
			continue
		}

		// The rest of the run: the maximal sorted prefix of the remaining
		// keys (beyond the head) under the responsible peer's path.
		runLen := 1
		for runLen < len(remaining) {
			k, err := keyspace.ParseKey(entries[remaining[runLen]].Key)
			if err != nil || !path.IsPrefixOf(k) {
				break
			}
			runLen++
		}
		rest := remaining[1:runLen]
		if len(rest) == 0 {
			remaining = remaining[1:]
			continue
		}
		group := make([]BatchEntry, len(rest))
		for i, idx := range rest {
			group[i] = entries[idx]
		}

		// Ship the rest of the run in one message (or apply locally when
		// this node answered its own probe).
		var applied []int
		if len(route.Contacted) == 0 {
			applied = n.applyBatch(group, true)
		} else {
			dest := route.Contacted[len(route.Contacted)-1]
			out.Route.Messages++
			msg, err := n.net.Send(ctx, n.id, dest, simnet.Message{Payload: BatchUpdate{Entries: group}})
			if err != nil {
				if cerr := ctx.Err(); cerr != nil {
					return out, cerr
				}
				// The peer died between probe and delivery: the head stands,
				// the rest re-routes (a replica answers the next probe).
				remaining = remaining[1:]
				continue
			}
			out.Route.Contacted = append(out.Route.Contacted, dest)
			result, ok := msg.Payload.(BatchResult)
			if !ok {
				remaining = remaining[1:]
				continue
			}
			applied = result.Applied
		}

		appliedSet := make(map[int]bool, len(applied))
		for _, i := range applied {
			if i >= 0 && i < len(rest) {
				out.Statuses[rest[i]] = BatchApplied
				appliedSet[i] = true
			}
		}
		// Entries of the run the peer declined (its path moved under us) go
		// back on the queue, preserving order. The head always applied, so
		// progress is guaranteed.
		kept := remaining[:0]
		for i := 0; i < len(rest); i++ {
			if !appliedSet[i] {
				kept = append(kept, rest[i])
			}
		}
		remaining = append(kept, remaining[runLen:]...)
	}
	return out, nil
}
