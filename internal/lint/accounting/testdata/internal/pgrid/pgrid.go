// Package pgrid is an accounting fixture stub: empty shapes carrying the
// charged, data-free, and unregistered payload type names.
package pgrid

// Charged payload types (must appear in PayloadTriples' switch).
type (
	ExecRequest     struct{}
	ExecResponse    struct{}
	BatchEntry      struct{}
	BatchUpdate     struct{}
	BatchReplicate  struct{}
	SubtreeResponse struct{}
	RepairResponse  struct{}
)

// Data-free payload types (acks and pure requests; never charged).
type (
	BatchResult    struct{}
	SubtreeRequest struct{}
	DigestRequest  struct{}
	DigestResponse struct{}
	RepairRequest  struct{}
)

// Gossip is deliberately unregistered: shipping it must be flagged.
type Gossip struct{}
