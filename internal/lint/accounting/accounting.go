// Package accounting encodes the honest-accounting invariant of PR 5:
// every payload a transport send ships must be measurable by the
// mediation.PayloadTriples sizing helper, so the bandwidth model
// (simnet.SetPayloadDelay, Stats.PayloadUnits) and the experiment message
// accounting can never silently miss data-bearing traffic.
//
// The analyzer enforces the invariant from both ends:
//
//   - wherever a simnet.Message composite literal is built, its Payload's
//     static type must belong to the charged-type registry below (or to
//     the small set of payloads that carry no stored data, or be
//     annotated //gridvine:uncharged <reason>);
//   - in the package defining PayloadTriples, the function's type switch
//     must cover exactly the charged registry — so the registry and the
//     sizer cannot drift apart without a diagnostic.
package accounting

import (
	"go/ast"
	"go/types"
	"sort"

	"gridvine/internal/lint/analysis"
	"gridvine/internal/lint/directive"
)

// Analyzer enforces that transport payloads flow through PayloadTriples.
var Analyzer = &analysis.Analyzer{
	Name: "accounting",
	Doc:  "flag transport payloads the PayloadTriples charging helper does not cover",
	Run:  run,
}

const (
	simnetPkg    = "gridvine/internal/simnet"
	mediationPkg = "gridvine/internal/mediation"
)

// chargedTypes are the payload types PayloadTriples knows how to size,
// written with full package paths. PayloadTriples' own type switch is
// checked against this set whenever the analyzer visits its package.
var chargedTypes = map[string]bool{
	"gridvine/internal/pgrid.ExecRequest":              true,
	"gridvine/internal/pgrid.ExecResponse":             true,
	"gridvine/internal/pgrid.BatchEntry":               true,
	"gridvine/internal/pgrid.BatchUpdate":              true,
	"gridvine/internal/pgrid.BatchReplicate":           true,
	"gridvine/internal/pgrid.SubtreeResponse":          true,
	"gridvine/internal/pgrid.RepairResponse":           true,
	"[]gridvine/internal/triple.Triple":                true,
	"gridvine/internal/mediation.PatternQuery":         true,
	"gridvine/internal/mediation.ReformulatedQuery":    true,
	"gridvine/internal/mediation.ReformulatedResponse": true,
	"gridvine/internal/mediation.CompositeQuery":       true,
	"gridvine/internal/mediation.CompositeResponse":    true,
}

// dataFreeTypes are payload types that structurally carry no stored
// values — acks and pure requests — and therefore need no charging case.
var dataFreeTypes = map[string]bool{
	"gridvine/internal/pgrid.BatchResult":    true,
	"gridvine/internal/pgrid.SubtreeRequest": true,
	// Digest anti-entropy control traffic carries hashes only.
	"gridvine/internal/pgrid.DigestRequest":  true,
	"gridvine/internal/pgrid.DigestResponse": true,
	"gridvine/internal/pgrid.RepairRequest":  true,
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		if directive.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.CompositeLit); ok {
				checkMessageLiteral(pass, file, lit)
			}
			if fd, ok := n.(*ast.FuncDecl); ok && fd.Name.Name == "PayloadTriples" &&
				directive.PkgPath(pass.Pkg.Path()) == mediationPkg {
				checkSizerSwitch(pass, fd)
				return false
			}
			return true
		})
	}
	return nil, nil
}

// checkMessageLiteral verifies the Payload field of a simnet.Message
// composite literal.
func checkMessageLiteral(pass *analysis.Pass, file *ast.File, lit *ast.CompositeLit) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok || typeString(tv.Type) != simnetPkg+".Message" {
		return
	}
	var payload ast.Expr
	for _, elt := range lit.Elts {
		kv, isKV := elt.(*ast.KeyValueExpr)
		if !isKV {
			continue
		}
		if key, isIdent := kv.Key.(*ast.Ident); isIdent && key.Name == "Payload" {
			payload = kv.Value
		}
	}
	if payload == nil {
		return // no payload: a ping or a bare ack, nothing to charge
	}
	ptv, ok := pass.TypesInfo.Types[payload]
	if !ok {
		return
	}
	name := typeString(ptv.Type)
	if chargedTypes[name] || dataFreeTypes[name] || name == "untyped nil" {
		return
	}
	reason, annotated := directive.Find(pass.Fset, file, payload.Pos(), "uncharged")
	switch {
	case !annotated:
		pass.Reportf(payload.Pos(),
			"transport payload type %s is not charged by mediation.PayloadTriples: add a sizing case and register it in the accounting analyzer, or annotate //gridvine:uncharged <reason>",
			name)
	case reason == "":
		pass.Reportf(payload.Pos(), "//gridvine:uncharged annotation needs a one-line reason")
	}
}

// checkSizerSwitch diffs PayloadTriples' type-switch cases against the
// charged registry, reporting drift in either direction.
func checkSizerSwitch(pass *analysis.Pass, fd *ast.FuncDecl) {
	covered := map[string]bool{}
	var switchPos = fd.Pos()
	ast.Inspect(fd, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSwitchStmt)
		if !ok {
			return true
		}
		switchPos = ts.Pos()
		for _, clause := range ts.Body.List {
			cc, isCase := clause.(*ast.CaseClause)
			if !isCase {
				continue
			}
			for _, texpr := range cc.List {
				if tv, found := pass.TypesInfo.Types[texpr]; found {
					covered[typeString(tv.Type)] = true
				}
			}
		}
		return true
	})
	if len(covered) == 0 {
		pass.Reportf(fd.Pos(), "PayloadTriples has no type switch; the accounting invariant cannot be checked")
		return
	}
	var missing, extra []string
	for name := range chargedTypes {
		if !covered[name] {
			missing = append(missing, name)
		}
	}
	for name := range covered {
		if !chargedTypes[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	for _, name := range missing {
		pass.Reportf(switchPos, "PayloadTriples is missing a sizing case for charged payload type %s", name)
	}
	for _, name := range extra {
		pass.Reportf(switchPos, "PayloadTriples sizes %s, which is not in the accounting analyzer's charged-type registry: register it", name)
	}
}

// typeString renders a type with full package paths
// ("gridvine/internal/pgrid.BatchUpdate").
func typeString(t types.Type) string {
	return types.TypeString(t, nil)
}
