// Package ctxpropagate encodes GridVine's context-threading invariant:
// inside the library packages that sit on the query and write paths
// (mediation, pgrid, tcpnet, simnet), operations must run under the
// caller's context — cancellation and deadlines thread
// transport→pgrid→mediation end to end (DESIGN.md §2, "Query lifecycle &
// cancellation"). Minting a fresh context.Background() or context.TODO()
// in those packages severs that chain silently.
//
// Genuinely server-side work — replication fan-out, anti-entropy —
// legitimately outlives any client request and is exempt, but each such
// site must say so: annotate it
//
//	//gridvine:serverctx <one-line reason>
//
// so every fresh root context in a library path is an audited decision,
// not an accident. Test files are not checked.
package ctxpropagate

import (
	"go/ast"
	"go/types"

	"gridvine/internal/lint/analysis"
	"gridvine/internal/lint/directive"
)

// Analyzer flags context.Background()/context.TODO() in library packages.
var Analyzer = &analysis.Analyzer{
	Name: "ctxpropagate",
	Doc:  "flag unannotated context.Background()/TODO() in gridvine library paths",
	Run:  run,
}

// restricted lists the packages forming the transport→pgrid→mediation
// spine, where every operation is expected to run under a caller context.
var restricted = map[string]bool{
	"gridvine/internal/mediation": true,
	"gridvine/internal/pgrid":     true,
	"gridvine/internal/tcpnet":    true,
	"gridvine/internal/simnet":    true,
}

func run(pass *analysis.Pass) (any, error) {
	if !restricted[directive.PkgPath(pass.Pkg.Path())] {
		return nil, nil
	}
	for _, file := range pass.Files {
		if directive.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := freshContextCall(pass.TypesInfo, call)
			if name == "" {
				return true
			}
			reason, annotated := directive.Find(pass.Fset, file, call.Pos(), "serverctx")
			switch {
			case !annotated:
				pass.Reportf(call.Pos(),
					"context.%s() in library path %s: thread the caller's ctx, or annotate //gridvine:serverctx <reason> for genuinely server-side work",
					name, directive.PkgPath(pass.Pkg.Path()))
			case reason == "":
				pass.Reportf(call.Pos(),
					"//gridvine:serverctx annotation needs a one-line reason")
			}
			return true
		})
	}
	return nil, nil
}

// freshContextCall reports which fresh-root constructor a call invokes:
// "Background", "TODO", or "" for anything else.
func freshContextCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if name := fn.Name(); name == "Background" || name == "TODO" {
		return name
	}
	return ""
}
