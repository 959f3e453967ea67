// Package mediation is an accounting fixture for the sizer-drift check:
// PayloadTriples' type switch omits one charged type (RepairResponse) and
// sizes one unregistered type (RepairRequest), so the analyzer must report
// drift in both directions on the switch.
package mediation

import (
	"gridvine/internal/pgrid"
	"gridvine/internal/triple"
)

// PatternQuery, ReformulatedQuery and ReformulatedResponse mirror the
// charged mediation payloads.
type (
	PatternQuery         struct{}
	ReformulatedQuery    struct{}
	ReformulatedResponse struct{}
	CompositeQuery       struct{}
	CompositeResponse    struct{}
)

// PayloadTriples mirrors the real sizing helper's shape.
func PayloadTriples(payload any) int {
	switch payload.(type) { // want `missing a sizing case for charged payload type gridvine/internal/pgrid\.RepairResponse` `PayloadTriples sizes gridvine/internal/pgrid\.RepairRequest, which is not in the accounting analyzer's charged-type registry`
	case pgrid.ExecRequest, pgrid.ExecResponse:
		return 1
	case pgrid.BatchEntry, pgrid.BatchUpdate, pgrid.BatchReplicate:
		return 2
	case pgrid.SubtreeResponse:
		return 3
	case pgrid.RepairRequest:
		return 4
	case []triple.Triple:
		return 5
	case PatternQuery, ReformulatedQuery, ReformulatedResponse:
		return 6
	case CompositeQuery, CompositeResponse:
		return 8
	}
	return 0
}
