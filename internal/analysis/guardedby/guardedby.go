// Package guardedby enforces //trnglint:guardedby field contracts: a
// field annotated
//
//	//trnglint:guardedby mu
//	closed bool
//
// may only be read or written while the named mutex is provably held on
// EVERY path reaching the access. The proof is flow-sensitive (the
// lockflow engine): deferred unlocks keep the lock held through early
// returns, branch joins intersect, a goroutine or stored closure starts
// with no locks, and a loop body is never credited with a lock some
// iteration may have released. //trnglint:holds <mu> on a function states
// a caller-side precondition — assumed inside the body, checked at every
// call site — which is how helpers like Stream.flushStaged (documented
// "callers hold pushMu") participate in the proof.
//
// This is exactly the contract whose violation shipped as the PR 6 detach
// TOCTOU: a producer checked a detach flag, then enqueued, while Detach
// finalized the stream in between. With drained/idx annotated, removing
// the pushMu ordering makes the unlocked access a lint finding instead of
// a race-detector lottery ticket.
//
// Known precision limits, by design: lock identity is the mutex FIELD
// (p.mu and s.pool.mu are one lock; distinct Pool instances are
// conflated), RLock counts as a full hold, TryLock never counts, and a
// function containing goto is skipped entirely rather than guessed at.
// Constructor writes through composite literals (&Pool{closed: true}) are
// naturally exempt — literal keys are not field selector expressions.
// Intentional unguarded accesses are waived in place with
// //trnglint:allow guardedby <reason>.
package guardedby

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer proves annotated fields are accessed only under their mutex.
var Analyzer = &analysis.Analyzer{
	Name: "guardedby",
	Doc: "prove //trnglint:guardedby fields are only accessed with the named " +
		"mutex held and //trnglint:holds call preconditions are met",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	// guardedby owns annotation-error reporting: a typo'd contract is a
	// finding here (and only here, so the suite doesn't triple-report).
	ann := analysis.CollectConcAnnotations(pass.Fset, pass.Files, pass.Pkg, pass.TypesInfo, pass.Reportf)
	if len(ann.Guards) == 0 && len(ann.Holds) == 0 {
		return nil, nil
	}
	decls, _ := analysis.FuncDecls(pass.Files, pass.TypesInfo)
	for _, d := range decls {
		checkBody(pass, ann, d.Decl.Body, ann.AssumedLocks(d.Fn))
	}
	return nil, nil
}

func checkBody(pass *analysis.Pass, ann *analysis.ConcAnnotations, body *ast.BlockStmt, assumed []types.Object) {
	analysis.LockWalk(pass.TypesInfo, body, assumed, func(n ast.Node, held *analysis.LockSet, provable bool) bool {
		if !provable {
			// goto froze the walk: no lock set is trustworthy, so stay
			// silent rather than report on guesses.
			return true
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			field := analysis.FieldObjectOf(pass.TypesInfo, n)
			spec := ann.GuardOf(field)
			if spec == nil || held.Holds(spec.Mutex) {
				return true
			}
			pass.Reportf(n.Sel.Pos(),
				"%s is guarded by %s (//trnglint:guardedby) but accessed without it provably held — "+
					"lock it, or waive with //trnglint:allow guardedby <reason>",
				field.Name(), spec.Path)
		case *ast.CallExpr:
			callee := analysis.CalleeFunc(pass.TypesInfo, n)
			for _, spec := range ann.HoldsOf(callee) {
				if held.Holds(spec.Mutex) {
					continue
				}
				pass.Reportf(n.Pos(),
					"call to %s requires %s held (//trnglint:holds) but it is not provably held here — "+
						"lock it, or waive with //trnglint:allow guardedby <reason>",
					callee.Name(), spec.Path)
			}
		}
		return true
	})
}
