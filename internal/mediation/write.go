package mediation

import (
	"context"
	"slices"
	"strings"

	"gridvine/internal/keyspace"
	"gridvine/internal/pgrid"
	"gridvine/internal/schema"
	"gridvine/internal/triple"
)

// The batched write surface. Peer.Write is the single mutation entry point
// of the mediation layer — the write-side mirror of Peer.Query: a Batch
// mixes triple inserts and deletes, schema publishes and mapping
// publishes, and one Write plans and ships them together.
//
// Planning hashes every index key up front (a triple costs three, per the
// paper's Update(t) ≡ 3 × Update(Hash(component)) — §2.2), sorts the
// resulting key-writes, and splits them into contiguous key segments that a
// bounded worker pool resolves concurrently through the overlay's
// key-grouped shipping (pgrid.Node.WriteBatch): one routing probe plus one
// BatchUpdate message per distinct responsible peer, instead of one routed
// operation per key-write. The request context governs the whole batch —
// cancelling it (or letting its deadline expire, or tripping the
// deadline-aware retry budget) stops the pool between groups, and the
// returned Receipt records exactly which entries were applied, which
// failed, and which were never attempted. No goroutine outlives Write.

// Batch collects mutations for one Peer.Write. The zero value is an empty
// batch ready for use; it must not be shared across concurrent Writes.
type Batch struct {
	// Parallelism bounds the worker pool that ships key segments
	// concurrently. 0 selects DefaultParallelism; 1 executes serially (the
	// deterministic mode the seeded experiment harness uses); negative
	// values are treated as 1.
	Parallelism int

	entries []writeEntry
}

type writeKind int8

const (
	writeInsertTriple writeKind = iota
	writeDeleteTriple
	writePublishSchema
	writePublishMapping
)

type writeEntry struct {
	kind writeKind
	t    triple.Triple
	s    schema.Schema
	m    schema.Mapping
}

// InsertTriple queues a triple insertion (three index key-writes).
func (b *Batch) InsertTriple(t triple.Triple) {
	b.entries = append(b.entries, writeEntry{kind: writeInsertTriple, t: t})
}

// DeleteTriple queues a triple removal from all three component indexes.
func (b *Batch) DeleteTriple(t triple.Triple) {
	b.entries = append(b.entries, writeEntry{kind: writeDeleteTriple, t: t})
}

// PublishSchema queues a schema publication at its name's key, replacing
// the version stored there.
func (b *Batch) PublishSchema(s schema.Schema) {
	b.entries = append(b.entries, writeEntry{kind: writePublishSchema, s: s})
}

// PublishMapping queues a mapping publication at its source schema's key
// (and the target's, when bidirectional), replacing the version stored
// there under its ID: a confidence change or a deprecation is published
// the way the mapping was. A mapping's keys are fixed when it is created —
// its ID hashes Source, Target and Type, and Bidirectional is set before
// the first publish — so a new version lands where the old one is.
func (b *Batch) PublishMapping(m schema.Mapping) {
	b.entries = append(b.entries, writeEntry{kind: writePublishMapping, m: m})
}

// Len returns the number of queued entries.
func (b *Batch) Len() int { return len(b.entries) }

// EntryState is the terminal state of one batch entry in a Receipt.
type EntryState int8

// Entry states. EntrySkipped covers entries whose key-writes were never
// attempted — or only partially attempted — before the context fired; a
// skipped entry may therefore have left some of its index keys written.
const (
	EntrySkipped EntryState = iota
	EntryApplied
	EntryFailed
)

func (s EntryState) String() string {
	switch s {
	case EntryApplied:
		return "applied"
	case EntryFailed:
		return "failed"
	default:
		return "skipped"
	}
}

// EntryStatus is one entry's outcome.
type EntryStatus struct {
	State EntryState
	// Err carries the first routing/delivery failure of the entry's
	// key-writes; nil unless State is EntryFailed.
	Err error
}

// Receipt reports how a Write resolved, entry by entry.
type Receipt struct {
	// Entries aligns with the batch's submission order. An entry is Applied
	// only when every one of its key-writes reached its responsible peer; a
	// failed or skipped entry may have landed a subset of its index keys
	// (e.g. one side of a bidirectional mapping), which re-issuing the
	// write completes idempotently.
	Entries []EntryStatus
	// Applied / Failed / Skipped count entries per terminal state.
	Applied, Failed, Skipped int
	// Groups counts the routed BatchUpdate shipments (one per distinct
	// responsible peer per segment) the batch collapsed to.
	Groups int
	// Route aggregates the issuer-observed overlay cost across every
	// segment: probe routing plus one message per shipped group.
	Route pgrid.Route
}

// Messages returns the issuer-observed overlay message cost.
func (r *Receipt) Messages() int { return r.Route.Messages }

// FirstErr returns the first failed entry's error, or nil when no entry
// failed.
func (r *Receipt) FirstErr() error {
	for _, e := range r.Entries {
		if e.Err != nil {
			return e.Err
		}
	}
	return nil
}

// keyWrite is one expanded (key, op, value) overlay mutation, tagged with
// the batch entry it belongs to.
type keyWrite struct {
	be    pgrid.BatchEntry
	entry int
}

// expand flattens the batch into key-writes: three per triple, one per
// schema, one or two per mapping.
func (p *Peer) expand(b *Batch) []keyWrite {
	writes := make([]keyWrite, 0, 3*len(b.entries))
	add := func(entry int, key keyspace.Key, op pgrid.Op, value any) {
		writes = append(writes, keyWrite{
			be:    pgrid.BatchEntry{Key: key.String(), Op: op, Value: value},
			entry: entry,
		})
	}
	for i, e := range b.entries {
		switch e.kind {
		case writeInsertTriple, writeDeleteTriple:
			op := pgrid.OpInsert
			if e.kind == writeDeleteTriple {
				op = pgrid.OpDelete
			}
			var t any = e.t // boxed once for the three keys
			for _, k := range p.tripleKeys(e.t) {
				add(i, k, op, t)
			}
		case writePublishSchema:
			add(i, p.schemaKey(e.s.Name), pgrid.OpInsert, e.s)
		case writePublishMapping:
			add(i, p.schemaKey(e.m.Source), pgrid.OpInsert, e.m)
			if e.m.Bidirectional {
				add(i, p.schemaKey(e.m.Target), pgrid.OpInsert, e.m)
			}
		}
	}
	return writes
}

// segmentWrites splits sorted key-writes into at most workers contiguous
// segments of near-equal size, never splitting between equal keys (so
// same-key ordering — a triple's delete before its re-insert — survives
// concurrent segment execution).
func segmentWrites(writes []keyWrite, workers int) [][]keyWrite {
	if workers < 1 {
		workers = 1
	}
	if workers > len(writes) {
		workers = len(writes)
	}
	if workers <= 1 {
		if len(writes) == 0 {
			return nil
		}
		return [][]keyWrite{writes}
	}
	segments := make([][]keyWrite, 0, workers)
	per := (len(writes) + workers - 1) / workers
	start := 0
	for start < len(writes) {
		end := start + per
		if end >= len(writes) {
			end = len(writes)
		} else {
			for end < len(writes) && writes[end].be.Key == writes[end-1].be.Key {
				end++
			}
		}
		segments = append(segments, writes[start:end])
		start = end
	}
	return segments
}

// Write plans and ships the batch (see the package notes above). The
// returned error is terminal only — cancellation, an expired deadline or a
// tripped retry budget; per-entry routing failures are reported through
// the Receipt instead (FirstErr surfaces the first one). The Receipt is
// never nil, and on cancellation it records the partial progress: entries
// whose key-writes never shipped are EntrySkipped.
func (p *Peer) Write(ctx context.Context, b *Batch) (*Receipt, error) {
	writes := p.expand(b)
	rec := &Receipt{Entries: make([]EntryStatus, len(b.entries))}
	if len(writes) == 0 {
		return rec, ctx.Err()
	}

	// Global sort by key (stable: same-key writes keep submission order),
	// then contiguous segments for the pool — contiguity keeps each
	// worker's groups aligned with responsible-peer key runs.
	slices.SortStableFunc(writes, func(a, b keyWrite) int { return strings.Compare(a.be.Key, b.be.Key) })
	workers := b.Parallelism
	if workers == 0 {
		workers = DefaultParallelism
	}
	segments := segmentWrites(writes, workers)

	outcomes := make([]*pgrid.BatchOutcome, len(segments))
	segErrs := make([]error, len(segments))
	poolErr := runPoolCtx(ctx, len(segments), workers, func(i int) {
		entries := make([]pgrid.BatchEntry, len(segments[i]))
		for j, w := range segments[i] {
			entries[j] = w.be
		}
		outcomes[i], segErrs[i] = p.node.WriteBatch(ctx, entries)
	})

	// Fold key-write statuses into per-entry states: any failure makes the
	// entry Failed; otherwise any skipped key-write leaves it Skipped; a
	// fully applied entry is Applied.
	applied := make([]int, len(b.entries))
	needed := make([]int, len(b.entries))
	for _, w := range writes {
		needed[w.entry]++
	}
	for i, seg := range segments {
		out := outcomes[i]
		if out == nil {
			continue // segment never ran (pool cancelled before its turn)
		}
		rec.Groups += out.Groups
		rec.Route.Add(out.Route)
		for j, w := range seg {
			switch out.Statuses[j] {
			case pgrid.BatchApplied:
				applied[w.entry]++
			case pgrid.BatchFailed:
				if rec.Entries[w.entry].Err == nil {
					rec.Entries[w.entry].Err = out.Errs[j]
				}
				rec.Entries[w.entry].State = EntryFailed
			}
		}
	}
	for i := range rec.Entries {
		if rec.Entries[i].State != EntryFailed && applied[i] == needed[i] {
			rec.Entries[i].State = EntryApplied
		}
		switch rec.Entries[i].State {
		case EntryApplied:
			rec.Applied++
		case EntryFailed:
			rec.Failed++
		default:
			rec.Skipped++
		}
	}

	// Issuer-side composite invalidation: whatever this batch did to the
	// mapping graph, closures through the affected schemas are stale now —
	// even on partial failure (some key-writes may have landed), so the
	// invalidation is unconditional once shipping was attempted.
	p.invalidateComposites(b.mappingSchemas())

	if err := ctx.Err(); err != nil {
		return rec, err
	}
	if poolErr != nil {
		return rec, poolErr
	}
	// A retry-budget abort is terminal for its segment but not ctx-visible;
	// surface the first one so callers can tell a doomed deadline from
	// per-destination failures (which live in the Receipt).
	for _, err := range segErrs {
		if err != nil {
			return rec, err
		}
	}
	return rec, nil
}
