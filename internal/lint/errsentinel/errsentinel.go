// Package errsentinel encodes the wrapped-error invariant: gridvine's
// sentinel errors (pgrid.ErrNoRoute, pgrid.ErrRetryBudget,
// simnet.ErrUnreachable, mediation.ErrNotRoutable, …) travel wrapped —
// routing annotates them with %w at every level — so matching them with
// == or != silently fails on any wrapped value. errors.Is is required.
//
// The analyzer flags ==/!= comparisons where one operand is a
// package-level error variable named Err* (or one of the well-known
// stdlib sentinels) and offers the mechanical errors.Is rewrite as a
// suggested fix when the file already imports "errors". The rare
// identity comparison that is genuinely intended annotates
// //gridvine:exacterr <reason>.
package errsentinel

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"gridvine/internal/lint/analysis"
	"gridvine/internal/lint/directive"
)

// Analyzer flags ==/!= comparisons against sentinel error values.
var Analyzer = &analysis.Analyzer{
	Name: "errsentinel",
	Doc:  "flag ==/!= comparisons against sentinel errors; errors.Is is required",
	Run:  run,
}

// stdlibSentinels are well-known stdlib sentinels without the Err prefix.
var stdlibSentinels = map[string]bool{
	"io.EOF":                   true,
	"context.Canceled":         true,
	"context.DeadlineExceeded": true,
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return true
			}
			if !comparesSentinel(pass.TypesInfo, bin.X, bin.Y) {
				return true
			}
			reason, annotated := directive.Find(pass.Fset, file, bin.Pos(), "exacterr")
			if annotated {
				if reason == "" {
					pass.Reportf(bin.Pos(), "//gridvine:exacterr annotation needs a one-line reason")
				}
				return true
			}
			pass.Report(analysis.Diagnostic{
				Pos: bin.Pos(),
				End: bin.End(),
				Message: fmt.Sprintf("sentinel error compared with %s: wrapped errors never match; use %serrors.Is",
					bin.Op, map[token.Token]string{token.EQL: "", token.NEQ: "!"}[bin.Op]),
			})
			return true
		})
	}
	return nil, nil
}

// comparesSentinel reports whether one operand is a sentinel error
// variable and the other an error.
func comparesSentinel(info *types.Info, x, y ast.Expr) bool {
	return isSentinel(info, x) && isErrorExpr(info, y) || isSentinel(info, y) && isErrorExpr(info, x)
}

// isSentinel reports whether an expression names a package-level error
// variable following the Err* convention (or a known stdlib sentinel).
func isSentinel(info *types.Info, e ast.Expr) bool {
	var id *ast.Ident
	switch v := e.(type) {
	case *ast.Ident:
		id = v
	case *ast.SelectorExpr:
		id = v.Sel
	default:
		return false
	}
	obj, ok := info.Uses[id].(*types.Var)
	if !ok || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return false
	}
	if !isErrorType(obj.Type()) {
		return false
	}
	if strings.HasPrefix(obj.Name(), "Err") {
		return true
	}
	return stdlibSentinels[obj.Pkg().Path()+"."+obj.Name()]
}

// isErrorExpr reports whether an expression is error-typed and not the
// nil literal.
func isErrorExpr(info *types.Info, e ast.Expr) bool {
	if id, ok := e.(*ast.Ident); ok && id.Name == "nil" {
		return false
	}
	tv, ok := info.Types[e]
	return ok && tv.Type != nil && isErrorType(tv.Type)
}

var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return types.Implements(t, errorType)
}
