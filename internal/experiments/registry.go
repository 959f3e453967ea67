package experiments

import "encoding/json"

// Result is what an experiment returns: every result renders the
// paper-style table, and the gated ones (B, C, K, L, M, N, O, P, R) also
// carry a Check() error method holding the inequalities the result must
// satisfy.
type Result interface{ Table() string }

// Experiment is one entry of the registry. Each experiment is declared
// once, next to its Config: the -quick parameter set lives in Run, the gate
// in the result type's Check, the table in its Table.
type Experiment struct {
	ID    string
	Title string
	// Run executes the experiment at paper scale, or, with quick, on its
	// scaled-down parameter set.
	Run func(quick bool, seed int64) (Result, error)
	// Decode parses a result of this experiment's type from the JSON form
	// gridvine-bench -json writes, so a committed BENCH_*.json entry can be
	// re-checked against the gate it was produced under.
	Decode func(raw []byte) (Result, error)
}

// declare builds a registry entry from a typed runner; the result type R
// fixes what Decode produces.
func declare[R Result](id, title string, run func(quick bool, seed int64) (R, error)) Experiment {
	return Experiment{
		ID:    id,
		Title: title,
		Run: func(quick bool, seed int64) (Result, error) {
			r, err := run(quick, seed)
			return r, err
		},
		Decode: func(raw []byte) (Result, error) {
			var r R
			err := json.Unmarshal(raw, &r)
			return r, err
		},
	}
}

// All lists every experiment of DESIGN.md §3 in run order.
var All = []Experiment{
	expA, expB, expC, RecallExperiment(1), expE, expJ,
	expK, expL, expM, expN, expO, expP, expR,
}

// Lookup returns the registry entry with the given ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Check runs the result's gate; a result type without one passes.
func Check(r Result) error {
	if g, ok := r.(interface{ Check() error }); ok {
		return g.Check()
	}
	return nil
}
