// Package analysis is a minimal, dependency-free mirror of the
// golang.org/x/tools/go/analysis core types. The container this repository
// builds in has no module proxy access, so the real x/tools framework
// cannot be vendored; this package reproduces the narrow surface the
// gridvine analyzers need — Analyzer, Pass, Diagnostic — with API shapes deliberately kept identical, so a future swap to the
// upstream framework is a mechanical import rewrite.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check: a name, a documentation string
// (first line is the summary), and the Run function applied once per
// package.
type Analyzer struct {
	// Name is the analyzer's identifier, a valid Go identifier. It appears
	// in diagnostics as a suffix ("message (name)") and selects the
	// analyzer on the multichecker command line.
	Name string
	// Doc documents the invariant the analyzer encodes.
	Doc string
	// Run applies the check to one package and reports findings through
	// pass.Report. The returned value is ignored by this driver (the
	// upstream framework threads it to dependent analyzers; none of ours
	// depend on each other).
	Run func(*Pass) (any, error)
}

func (a *Analyzer) String() string { return a.Name }

// Pass presents one type-checked package to an Analyzer's Run function.
type Pass struct {
	// Analyzer is the check being applied.
	Analyzer *Analyzer
	// Fset maps positions of every file in Files.
	Fset *token.FileSet
	// Files are the package's parsed syntax trees, comments included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo carries the type-checker's results for Files.
	TypesInfo *types.Info
	// Report delivers one finding.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position and a message.
type Diagnostic struct {
	Pos token.Pos
	// End optionally marks the end of the offending range.
	End     token.Pos
	Message string
}
