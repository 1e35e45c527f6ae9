// Package resetcheck enforces the monitor-reuse contract that the
// deterministic fan-out machinery (core.SequenceRunner, PowerSweep) is
// built on: a Monitor carries state across sequences — sequence counter,
// bit offset, history — so pointing an already-used monitor at a *new*
// source without calling Reset leaks one trial's state into the next and
// the run stops being a pure function of the per-trial seeds. Continuous
// monitoring of one stream (Watch in a loop over the same source — the
// paper's always-on mode) is exactly the allowed case and is not flagged.
//
// A Watch is reported when some path reaches it with the monitor still
// holding a different source, and no Reset or escape (the monitor passed
// to a call or assigned) in between; a source built afresh every loop
// iteration (a call expression) gets the loop's own text. The paths come
// from the shared flow walker (analysis.ResetWalk), closures included. A
// deliberate continuation is waived with //trnglint:allow resetcheck <reason>.
package resetcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer flags Monitor reuse across sources without an intervening
// Reset.
var Analyzer = &analysis.Analyzer{
	Name: "resetcheck",
	Doc: "flag Monitor reuse paths that reach a second, different source " +
		"without an intervening Reset",
	Run: run,
}

// monitorTypeName is the tracked stateful type. The contract is keyed by
// type name so the golden packages can model it without importing the
// real core package.
const monitorTypeName = "Monitor"

func run(pass *analysis.Pass) (any, error) {
	isMonitor := func(e ast.Expr) bool { return isMonitorExpr(pass, e) }
	// visit reports a Watch that may feed a monitor a second source.
	visit := func(n ast.Node, watched analysis.Watched) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		key, next, ok := analysis.WatchCall(call, isMonitor)
		prior, seen := watched[key]
		switch {
		case !ok || !seen || prior.Continues(next):
		case next.Fresh && prior.Loop != nil && prior.Loop.Pos() <= call.Pos() && call.End() <= prior.Loop.End():
			pass.Reportf(call.Pos(),
				"Watch on monitor %q builds a fresh source every loop iteration but the loop never "+
					"calls Reset: trial state leaks across sequences — Reset before Watch or waive "+
					"with //trnglint:allow resetcheck <reason>", key)
		default:
			pass.Reportf(call.Pos(),
				"monitor already monitored source %s; feeding it %s without Reset carries the "+
					"sequence counter and history into an unrelated stream — Reset first or waive "+
					"with //trnglint:allow resetcheck <reason>", prior.Source, next.Source)
		}
		return true
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				analysis.ResetWalk(pass.TypesInfo, n.Body, isMonitor, visit)
				return false
			case *ast.FuncLit: // in a package-level initializer
				analysis.ResetWalk(pass.TypesInfo, n.Body, isMonitor, visit)
				return false
			}
			return true
		})
	}
	return nil, nil
}

// isMonitorExpr reports whether e denotes a value of (pointer to) a named
// type called Monitor. Unary &x is unwrapped so `&m` as an argument
// counts as an escape of m.
func isMonitorExpr(pass *analysis.Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	if ue, ok := e.(*ast.UnaryExpr); ok && ue.Op == token.AND {
		e = ue.X
	}
	t := pass.TypeOf(e)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == monitorTypeName
}
