// Package lint assembles the gridvine-lint analyzer suite: three custom
// analyzers encoding invariants the codebase's design depends on but the
// compiler cannot check. See DESIGN.md, "Static analysis & enforced
// invariants", for the invariant catalogue and the escape-hatch
// directives (//gridvine:serverctx, //gridvine:exacterr,
// //gridvine:lockio).
package lint

import (
	"gridvine/internal/lint/analysis"
	"gridvine/internal/lint/ctxpropagate"
	"gridvine/internal/lint/errsentinel"
	"gridvine/internal/lint/lockscope"
)

// Analyzers returns the full suite, in the order diagnostics group best.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxpropagate.Analyzer,
		errsentinel.Analyzer,
		lockscope.Analyzer,
	}
}
