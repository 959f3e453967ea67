package pgrid

import (
	"encoding/gob"

	"gridvine/internal/simnet"
)

// ReadOnly reports whether msg's handler only reads the receiving node's
// local state: it takes the node's and the index's read locks, answers, and
// never sends, appends to the journal or fsyncs. A transport that delivers
// between co-hosted peers may run such a message on the sender's goroutine.
//
// That holds for the empty message (the liveness probe), a routed get, a
// routed query and a probe without a head entry. A query runs the node's
// QueryHandler, and mediation's sends nothing: one σ per pattern of a
// PatternQuery, or the connectivity indicator from the degree reports
// stored under the key. A
// probe carrying a BatchEntry, a batch, a replica push and a repair apply
// mutations (journal append, fsync, BatchReplicate). A subtree step and a
// digest scan the whole store, so they stay off the caller's goroutine and
// an inline delivery costs at most one key's values.
func ReadOnly(msg simnet.Message) bool {
	switch req := msg.Payload.(type) {
	case nil:
		return true
	case ExecRequest:
		return req.Op == OpGet || req.Op == OpQuery || req.Op == OpProbe && req.Payload == nil
	}
	return false
}

// Op names an operation at the responsible peer.
type Op int

// OpGet, OpQuery and OpProbe travel in a routed ExecRequest; OpInsert and
// OpDelete are the mutations a BatchEntry carries. OpQuery invokes the
// registered application handler with the request payload — this is the
// Retrieve(key, q) primitive the mediation layer uses to ship
// triple-pattern queries to data (paper §2.3).
const (
	OpGet Op = iota
	OpInsert
	OpDelete
	OpQuery
	// OpProbe resolves the responsible peer for a key: the answer carries
	// the peer's path, which the write path uses to compute the full key run
	// the peer covers before shipping it one BatchUpdate message. A probe
	// carrying a head BatchEntry applies it on arrival.
	OpProbe
)

func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpQuery:
		return "query"
	case OpProbe:
		return "probe"
	default:
		return "unknown"
	}
}

// Replacer lets a stored value type opt into atomic replacement. An
// OpInsert of a Replacer removes, under one key and one store lock
// acquisition, every stored value the incoming value Replaces, then inserts
// the incoming value — a single routed operation where the retrieve +
// delete + update sequence costs three routed round-trips and races with
// concurrent publishers of the same logical slot.
type Replacer interface {
	// Replaces reports whether the receiver supersedes the stored value —
	// e.g. a statistics digest supersedes the same origin peer's previous
	// digest for the same schema, a mapping the stored one with its ID.
	Replaces(old any) bool
}

// ExecRequest asks the receiving peer to either perform the operation (if
// responsible for Key) or answer with closer references.
type ExecRequest struct {
	Key     string // binary key, e.g. "010011…"
	Op      Op
	Payload any // OpQuery: handed to the application handler; OpProbe: the head BatchEntry
}

// ExecResponse carries either the operation result (Responsible=true) or
// the next-hop candidates (Responsible=false).
type ExecResponse struct {
	Responsible bool
	NextHops    []simnet.PeerID
	Values      []any
	AppResult   any
	// Path is the answering responsible peer's trie path π(p); the batched
	// write path uses it to compute the contiguous key run the peer covers.
	Path string
}

// BatchEntry is one keyed mutation of a batched write.
type BatchEntry struct {
	Key   string
	Op    Op // OpInsert or OpDelete
	Value any
}

// BatchUpdate delivers a run of mutations to one responsible peer in a
// single message — the batched counterpart of N individual routed Updates.
// The receiver applies every entry whose key it is responsible for (in
// order), synchronizes its replicas with one BatchReplicate message each,
// and answers with a BatchResult. Entries outside the receiver's path (a
// concurrent path split, for instance) are left to the issuer to re-route.
type BatchUpdate struct {
	Entries []BatchEntry
}

// BatchResult reports which BatchUpdate entries the receiver applied, as
// indices into the shipped entry slice.
type BatchResult struct {
	Applied []int
}

// BatchReplicate carries the applied entries of one BatchUpdate to a
// replica — one synchronization message per replica per batch, where the
// per-entry path costs one per entry.
type BatchReplicate struct {
	Entries []BatchEntry
}

// SubtreeRequest asks a peer for its local items under Prefix plus the
// references needed to reach the rest of the prefix's subtree.
type SubtreeRequest struct {
	Prefix string
}

// SubtreeItem is one stored (key, value) pair returned by a subtree step.
type SubtreeItem struct {
	Key   string
	Value any
}

// SubtreeResponse returns the peer's path, matching local items, and
// further peers that cover sibling branches under the prefix.
type SubtreeResponse struct {
	Path     string
	Items    []SubtreeItem
	Onward   []simnet.PeerID
	Replicas []simnet.PeerID
}

func init() {
	gob.Register(ExecRequest{})
	gob.Register(ExecResponse{})
	gob.Register(BatchEntry{})
	gob.Register(BatchUpdate{})
	gob.Register(BatchResult{})
	gob.Register(BatchReplicate{})
	gob.Register(SubtreeRequest{})
	gob.Register(SubtreeResponse{})
	gob.Register(SubtreeItem{})
	gob.Register([]any(nil))
	gob.Register([]simnet.PeerID(nil))
}
