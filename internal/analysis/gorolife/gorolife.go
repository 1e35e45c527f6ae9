// Package gorolife enforces goroutine lifecycle discipline: every `go`
// statement must have a provable join or quit path, so a million-stream
// deployment can actually drain on shutdown instead of leaking workers.
// A spawned body passes if it shows any of:
//
//   - a top-level `defer wg.Done()` on a sync.WaitGroup — the spawner
//     joins via Wait;
//   - a top-level `defer close(ch)` — completion is signalled on a
//     channel someone receives from (the shard-loop `done` idiom);
//   - a top-level `for … range ch` over a channel — the goroutine quits
//     when its feed channel is closed (the request-pump idiom);
//   - a select case receiving from a channel whose body returns — the
//     quit-channel / context.Done idiom;
//   - a final top-level send on a channel — the result hand-off idiom,
//     joined by the receiver.
//
// `go expr()` on a named function or method applies the same rules to
// that function's body when it is declared in the same package; a callee
// the analyzer cannot see (cross-package, function values, interface
// methods) is a finding, because nothing local proves the goroutine ever
// stops. Deliberately detached goroutines are waived in place with
// //trnglint:detached <reason> (equivalently //trnglint:allow gorolife
// <reason>), which keeps every intentionally-leaked goroutine documented
// and greppable.
//
// The check is shape-based, not flow-sensitive: a `defer wg.Done()`
// buried behind a conditional early-return still counts. That keeps
// false positives near zero at the cost of trusting the body's first
// screenful — the golden and mutation suites pin the exact shapes.
package gorolife

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer flags go statements with no provable join/quit path.
var Analyzer = &analysis.Analyzer{
	Name: "gorolife",
	Doc: "require every go statement to have a provable join/quit path " +
		"(defer wg.Done, defer close, range-over-channel, quit-select, final send) " +
		"or a //trnglint:detached waiver",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	// Named declarations in this package, for resolving `go m.loop()`.
	_, decls := analysis.FuncDecls(pass.Files, pass.TypesInfo)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
				if !bodyHasJoinOrQuit(pass, lit.Body) {
					pass.Reportf(gs.Pos(),
						"goroutine has no provable join or quit path (defer wg.Done, defer close, "+
							"range over a channel, quit-channel select, or final send) — "+
							"add one or waive with //trnglint:detached <reason>")
				}
				return true
			}
			callee := analysis.CalleeFunc(pass.TypesInfo, gs.Call)
			if callee != nil {
				if fd, here := decls[callee]; here {
					if !bodyHasJoinOrQuit(pass, fd.Body) {
						pass.Reportf(gs.Pos(),
							"goroutine %s has no provable join or quit path in its body — "+
								"add one or waive with //trnglint:detached <reason>", callee.Name())
					}
					return true
				}
			}
			pass.Reportf(gs.Pos(),
				"goroutine target is not analyzable here (function value, cross-package, or interface method), "+
					"so no join/quit path is provable — spawn a local wrapper with one, "+
					"or waive with //trnglint:detached <reason>")
			return true
		})
	}
	return nil, nil
}

// bodyHasJoinOrQuit applies the lifecycle shapes to one goroutine body.
func bodyHasJoinOrQuit(pass *analysis.Pass, body *ast.BlockStmt) bool {
	for _, stmt := range body.List {
		switch s := stmt.(type) {
		case *ast.DeferStmt:
			if isWaitGroupDone(pass, s.Call) || isClose(pass, s.Call) {
				return true
			}
		case *ast.RangeStmt:
			if t := pass.TypeOf(s.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					return true
				}
			}
		}
	}
	// The result hand-off idiom: the last thing the goroutine does is
	// send its result; the spawner (or a collector) receives it.
	if len(body.List) > 0 {
		if _, ok := body.List[len(body.List)-1].(*ast.SendStmt); ok {
			return true
		}
	}
	// The quit-channel idiom, anywhere in the body: a select case that
	// receives from a channel and leaves.
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		cc, ok := n.(*ast.CommClause)
		if !ok {
			return true
		}
		if !isChannelReceive(cc.Comm) {
			return true
		}
		for _, st := range cc.Body {
			if ret, ok := st.(*ast.ReturnStmt); ok && ret != nil {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isWaitGroupDone matches wg.Done() on a sync.WaitGroup.
func isWaitGroupDone(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Name() != "Done" || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "WaitGroup"
}

// isClose matches the close(ch) builtin.
func isClose(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "close" {
		return false
	}
	_, isBuiltin := pass.ObjectOf(id).(*types.Builtin)
	return isBuiltin
}

// isChannelReceive matches the comm statement of a receive case:
// `case <-ch:` or `case v, ok := <-ch:`.
func isChannelReceive(comm ast.Stmt) bool {
	switch s := comm.(type) {
	case *ast.ExprStmt:
		u, ok := s.X.(*ast.UnaryExpr)
		return ok && u.Op == token.ARROW
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			u, ok := s.Rhs[0].(*ast.UnaryExpr)
			return ok && u.Op == token.ARROW
		}
	}
	return false
}
