// Package lockscope encodes the deadlock-freedom discipline the batched
// write path was designed around (DESIGN.md §2, "Write path & bulk
// ingest"): no transport send, channel operation, or select may execute
// while a triple.DB lock or pgrid node lock is held. A blocked
// transport peer, a full channel, or a never-firing select would then
// pin the lock — and with it every routed operation that needs the same
// store or node state on the remote side of the send.
//
// The analyzer tracks sync.Mutex/RWMutex hold regions per function body
// (Lock/RLock … Unlock/RUnlock in straight-line order; a deferred Unlock
// holds to function end) in the storage-layer packages and flags, inside
// a held region: calls to methods named Send, channel sends and receives,
// and select statements. Function literals start lock-free (a spawned
// goroutine does not inherit its parent's critical section). Escape
// hatch: //gridvine:lockio <reason>.
package lockscope

import (
	"go/ast"
	"go/token"
	"go/types"

	"gridvine/internal/lint/analysis"
	"gridvine/internal/lint/directive"
)

// Analyzer flags blocking I/O under storage-layer locks.
var Analyzer = &analysis.Analyzer{
	Name: "lockscope",
	Doc:  "flag transport sends, channel ops and selects while holding triple.DB or pgrid locks",
	Run:  run,
}

// restricted lists the packages whose locks guard overlay-visible state.
var restricted = map[string]bool{
	"gridvine/internal/triple":    true,
	"gridvine/internal/pgrid":     true,
	"gridvine/internal/mediation": true,
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
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkBody(pass, file, fn.Body)
				}
				return false
			}
			return true
		})
	}
	return nil, nil
}

// checkBody scans one function body. Nested function literals are scanned
// independently with an empty held set.
func checkBody(pass *analysis.Pass, file *ast.File, body *ast.BlockStmt) {
	s := &scanner{pass: pass, file: file, held: map[string]token.Pos{}}
	s.block(body)
}

type scanner struct {
	pass *analysis.Pass
	file *ast.File
	// held maps the source text of a locked mutex expression ("s.mu") to
	// the position of its Lock call.
	held map[string]token.Pos
	// deferred marks mutexes released only by a deferred Unlock: they stay
	// held for the rest of the body.
	deferred map[string]bool
}

func (s *scanner) block(b *ast.BlockStmt) {
	for _, stmt := range b.List {
		s.stmt(stmt)
	}
}

func (s *scanner) stmt(stmt ast.Stmt) {
	switch v := stmt.(type) {
	case *ast.ExprStmt:
		if mutex, op, ok := s.lockCall(v.X); ok {
			switch op {
			case "Lock", "RLock":
				s.held[mutex] = v.Pos()
			case "Unlock", "RUnlock":
				delete(s.held, mutex)
			}
			return
		}
	case *ast.DeferStmt:
		if mutex, op, ok := s.lockCall(v.Call); ok && (op == "Unlock" || op == "RUnlock") {
			if s.deferred == nil {
				s.deferred = map[string]bool{}
			}
			s.deferred[mutex] = true
			return
		}
	case *ast.BlockStmt:
		s.block(v)
		return
	case *ast.IfStmt:
		s.inspectHeld(v.Init)
		s.inspectHeld(v.Cond)
		s.block(v.Body)
		if v.Else != nil {
			s.stmt(v.Else)
		}
		return
	case *ast.ForStmt:
		s.inspectHeld(v.Init)
		s.inspectHeld(v.Cond)
		s.inspectHeld(v.Post)
		s.block(v.Body)
		return
	case *ast.RangeStmt:
		s.inspectHeld(v.X)
		s.block(v.Body)
		return
	case *ast.SwitchStmt:
		s.inspectHeld(v.Init)
		s.inspectHeld(v.Tag)
		for _, clause := range v.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				for _, st := range cc.Body {
					s.stmt(st)
				}
			}
		}
		return
	case *ast.TypeSwitchStmt:
		for _, clause := range v.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				for _, st := range cc.Body {
					s.stmt(st)
				}
			}
		}
		return
	}
	s.inspectHeld(stmt)
}

// inspectHeld reports blocking operations inside node while any lock is
// held. Function literals are scanned separately, starting lock-free.
func (s *scanner) inspectHeld(node ast.Node) {
	if node == nil {
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			checkBody(s.pass, s.file, lit.Body)
			return false
		}
		if !s.holding() {
			return true
		}
		switch v := n.(type) {
		case *ast.SendStmt:
			s.report(v.Pos(), "channel send")
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				s.report(v.Pos(), "channel receive")
			}
		case *ast.SelectStmt:
			s.report(v.Pos(), "select")
			return false
		case *ast.CallExpr:
			if sel, isSel := v.Fun.(*ast.SelectorExpr); isSel && sel.Sel.Name == "Send" {
				if _, isMethod := s.pass.TypesInfo.Uses[sel.Sel].(*types.Func); isMethod {
					s.report(v.Pos(), "transport send")
				}
			}
		}
		return true
	})
}

func (s *scanner) holding() bool {
	return len(s.held) > 0 || len(s.deferred) > 0
}

func (s *scanner) report(pos token.Pos, what string) {
	reason, annotated := directive.Find(s.pass.Fset, s.file, pos, "lockio")
	switch {
	case !annotated:
		var mutex string
		for m := range s.held {
			mutex = m
		}
		for m := range s.deferred {
			mutex = m
		}
		s.pass.Reportf(pos,
			"%s while holding lock %s: release the lock first (or annotate //gridvine:lockio <reason>)",
			what, mutex)
	case reason == "":
		s.pass.Reportf(pos, "//gridvine:lockio annotation needs a one-line reason")
	}
}

// lockCall decomposes expressions of the form <mutex>.Lock() /
// .RLock() / .Unlock() / .RUnlock() where <mutex> is a sync.Mutex or
// sync.RWMutex (possibly through a pointer).
func (s *scanner) lockCall(e ast.Expr) (mutex, op string, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall || len(call.Args) != 0 {
		return "", "", false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	tv, found := s.pass.TypesInfo.Types[sel.X]
	if !found || !isMutexType(tv.Type) {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

func isMutexType(t types.Type) bool {
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != "sync" {
		return false
	}
	name := named.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}
